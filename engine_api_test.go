package datacell

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell/internal/bat"
)

// sortedRelRows renders a relation's rows as sorted pipe-joined strings,
// the byte-comparison currency of the differential tests.
func sortedRelRows(rel *bat.Relation) []string {
	tbl := tableOf(rel)
	rows := make([]string, 0, len(tbl.Rows))
	for _, r := range tbl.Rows {
		parts := make([]string, len(r))
		for i, c := range r {
			parts[i] = fmt.Sprint(c)
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return rows
}

// apiEngineVia builds the walQueries workload engine through one of the
// three equivalent configuration surfaces: functional options at New,
// imperative Set* calls, or SQL pragmas. The differential tests below pin
// that the choice of surface never changes a byte of query output.
func apiEngineVia(t *testing.T, how string, s Strategy, p int) *Engine {
	t.Helper()
	var eng *Engine
	switch how {
	case "options":
		eng = New(WithStrategy(s), WithParallelism(p))
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
	case "setters":
		eng = New()
		if err := eng.SetStrategy(s); err != nil {
			t.Fatal(err)
		}
		if err := eng.SetParallelism(p); err != nil {
			t.Fatal(err)
		}
	case "pragmas":
		eng = New()
		if _, err := eng.Exec(fmt.Sprintf(`set strategy = '%s'`, s)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Exec(fmt.Sprintf(`set parallelism = %d`, p)); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown surface %q", how)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket a (k int, v int, u int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(walQueries); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestOptionsSettersPragmasEquivalent is the API-redesign acceptance
// differential: for every strategy × parallelism, an engine configured
// with functional options, one configured with Set* calls and one
// configured with SQL pragmas produce byte-identical sorted outputs on
// the full mixed workload (slices, windows, grouped aggregates, top-N).
func TestOptionsSettersPragmasEquivalent(t *testing.T) {
	for _, s := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", s, p), func(t *testing.T) {
				var ref map[string][]string
				for _, how := range []string{"options", "setters", "pragmas"} {
					eng := apiEngineVia(t, how, s, p)
					if err := eng.Append("s", walSRows()...); err != nil {
						t.Fatal(err)
					}
					if err := eng.Append("a", walARows()...); err != nil {
						t.Fatal(err)
					}
					if err := eng.RunSync(); err != nil {
						t.Fatal(err)
					}
					got := collectWALOutputs(t, eng)
					eng.Stop()
					if ref == nil {
						ref = got
						continue
					}
					if !reflect.DeepEqual(ref, got) {
						t.Fatalf("surface %q diverged from options-built engine:\noptions: %v\n%s: %v",
							how, ref, how, got)
					}
				}
			})
		}
	}
}

// apiWALFeed builds an engine over the given surface with a WAL at dir,
// feeds n rows over a text listener with the scheduler stopped, and
// crashes it (no checkpoint), leaving the rows only in the log.
func apiWALFeed(t *testing.T, eng *Engine, dir string, n int) {
	t.Helper()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("low", `select t.k, t.v from [select * from s where v < 100] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("rng", `select t.v from [select * from s where v >= 100 and v < 400] t`); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%d|%d\n", i%16, (i*37)%2000)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitIngested(t, eng, "s", int64(n))
	eng.Kill()
}

// TestOptionsWALEquivalence runs the crash-and-recover cycle twice — once
// on an engine whose WAL came from New(WithWAL(dir)), once from an
// explicit OpenWAL call — and requires the recovered query outputs to be
// byte-identical to each other and to an undisturbed in-memory reference.
func TestOptionsWALEquivalence(t *testing.T) {
	const n = 300
	outputs := map[string]map[string][]string{}
	for _, how := range []string{"options", "setters"} {
		dir := t.TempDir()
		var eng *Engine
		// SyncBytes 1 makes every frame durable before Kill — the test
		// exercises surface equivalence, not crash-window redelivery.
		if how == "options" {
			eng = New(WithStrategy(StrategyShared), WithParallelism(2),
				WithWALOptions(WALOptions{Dir: dir, SyncBytes: 1}))
			if err := eng.Err(); err != nil {
				t.Fatal(err)
			}
		} else {
			eng = New()
			if err := eng.SetStrategy(StrategyShared); err != nil {
				t.Fatal(err)
			}
			if err := eng.SetParallelism(2); err != nil {
				t.Fatal(err)
			}
			if err := eng.OpenWAL(WALOptions{Dir: dir, SyncBytes: 1}); err != nil {
				t.Fatal(err)
			}
		}
		apiWALFeed(t, eng, dir, n)

		// Recover on a fresh engine built over the same surface.
		var eng2 *Engine
		if how == "options" {
			// WithWAL is the default-tuning sugar over WithWALOptions; the
			// recovery side reads the same log either way.
			eng2 = New(WithStrategy(StrategyShared), WithParallelism(2), WithWAL(dir))
			if err := eng2.Err(); err != nil {
				t.Fatal(err)
			}
		} else {
			eng2 = New()
			if err := eng2.SetStrategy(StrategyShared); err != nil {
				t.Fatal(err)
			}
			if err := eng2.SetParallelism(2); err != nil {
				t.Fatal(err)
			}
			if err := eng2.OpenWAL(WALOptions{Dir: dir}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng2.Exec(`create basket s (k int, v int)`); err != nil {
			t.Fatal(err)
		}
		if err := eng2.RegisterQuery("low", `select t.k, t.v from [select * from s where v < 100] t`); err != nil {
			t.Fatal(err)
		}
		if err := eng2.RegisterQuery("rng", `select t.v from [select * from s where v >= 100 and v < 400] t`); err != nil {
			t.Fatal(err)
		}
		rec, err := eng2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Tuples != n {
			t.Fatalf("%s: recovered %d tuples, want %d", how, rec.Tuples, n)
		}
		if err := eng2.RunSync(); err != nil {
			t.Fatal(err)
		}
		snap := eng2.Snapshot()
		if snap.WALDir != dir {
			t.Errorf("%s: Snapshot().WALDir = %q, want %q", how, snap.WALDir, dir)
		}
		if snap.Recovery == nil || snap.Recovery.Tuples != n {
			t.Errorf("%s: Snapshot().Recovery = %+v, want %d tuples", how, snap.Recovery, n)
		}
		got := map[string][]string{}
		for _, q := range []string{"low", "rng"} {
			out, err := eng2.Out(q)
			if err != nil {
				t.Fatal(err)
			}
			got[q] = sortedRelRows(out.Snapshot())
		}
		outputs[how] = got
		eng2.Stop()
	}

	// In-memory reference: the same rows appended directly, no WAL.
	ref := New(WithStrategy(StrategyShared), WithParallelism(2))
	if _, err := ref.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := ref.RegisterQuery("low", `select t.k, t.v from [select * from s where v < 100] t`); err != nil {
		t.Fatal(err)
	}
	if err := ref.RegisterQuery("rng", `select t.v from [select * from s where v >= 100 and v < 400] t`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ref.Append("s", Row{int64(i % 16), int64((i * 37) % 2000)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.RunSync(); err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	for _, q := range []string{"low", "rng"} {
		out, err := ref.Out(q)
		if err != nil {
			t.Fatal(err)
		}
		want := sortedRelRows(out.Snapshot())
		for _, how := range []string{"options", "setters"} {
			if !reflect.DeepEqual(outputs[how][q], want) {
				t.Errorf("%s %s: recovered output diverged from reference (%d vs %d rows)",
					how, q, len(outputs[how][q]), len(want))
			}
		}
	}
	if !reflect.DeepEqual(outputs["options"], outputs["setters"]) {
		t.Error("WithWAL and OpenWAL recoveries diverged")
	}
}

// TestNewOptionErrorSurfaced pins the misconstruction contract: New keeps
// its single-return signature, a failing option parks the error on the
// engine, and both Err and Start surface it.
func TestNewOptionErrorSurfaced(t *testing.T) {
	eng := New(WithParallelism(0))
	if eng.Err() == nil {
		t.Fatal("Err() = nil for an invalid option")
	}
	if err := eng.Start(); err == nil {
		eng.Stop()
		t.Fatal("Start() accepted a misconstructed engine")
	}
	if New().Err() != nil {
		t.Fatal("Err() non-nil on a clean engine")
	}
}

// TestSubscriptionMetadata pins the Emit contract: per-subscription Seq
// starts at 1 with no gaps, EmitTime comes from the engine clock
// (WithClock-aware), and a late subscription starts its own numbering.
func TestSubscriptionMetadata(t *testing.T) {
	fixed := time.Unix(1700000000, 0)
	eng := New(WithClock(func() time.Time { return fixed }))
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select * from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var emits []Emit
	rows := 0
	sub, err := eng.SubscribeQuery("q", SubscribeOptions{OnEmit: func(em Emit) {
		mu.Lock()
		emits = append(emits, em)
		rows += em.Table.Len()
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SubscribeQuery("q", SubscribeOptions{}); err == nil {
		t.Fatal("SubscribeQuery accepted a nil OnEmit")
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	const n = 5
	for i := 0; i < n; i++ {
		if err := eng.Append("s", Row{i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		r := rows
		mu.Unlock()
		if r >= n || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if rows != n {
		t.Fatalf("delivered %d rows, want %d", rows, n)
	}
	for i, em := range emits {
		if em.Seq != int64(i+1) {
			t.Errorf("emit %d: Seq = %d, want %d (contiguous from 1)", i, em.Seq, i+1)
		}
		if !em.EmitTime.Equal(fixed) {
			t.Errorf("emit %d: EmitTime = %v, want the injected clock %v", i, em.EmitTime, fixed)
		}
		if em.Query != "q" {
			t.Errorf("emit %d: Query = %q", i, em.Query)
		}
	}
	batches := int64(len(emits))
	mu.Unlock()
	if sub.Emits() != batches {
		t.Errorf("sub.Emits() = %d, want %d", sub.Emits(), batches)
	}
	if sub.Query() != "q" {
		t.Errorf("sub.Query() = %q", sub.Query())
	}

	// A second subscription numbers its own deliveries from 1.
	var lateFirst atomic64
	late, err := eng.SubscribeQuery("q", SubscribeOptions{OnEmit: func(em Emit) {
		lateFirst.compareAndStore(em.Seq)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Cancel()
	if err := eng.Append("s", Row{99}); err != nil {
		t.Fatal(err)
	}
	for lateFirst.load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := lateFirst.load(); got != 1 {
		t.Errorf("late subscription's first Seq = %d, want 1", got)
	}
}

// atomic64 is a tiny first-value latch for the late-subscription check.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) compareAndStore(v int64) {
	a.mu.Lock()
	if a.v == 0 {
		a.v = v
	}
	a.mu.Unlock()
}

func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// TestSubscriptionCancelRace hammers Cancel against live emits and
// concurrent strategy/parallelism rewires under -race: cancels must never
// tear the subscriber list, at most one in-flight delivery may land after
// Cancel returns, and the engine ends with zero live subscriptions.
func TestSubscriptionCancelRace(t *testing.T) {
	eng := New(WithStrategy(StrategySeparate), WithParallelism(1))
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select * from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	const nSubs = 8
	type tracked struct {
		sub      *Subscription
		mu       sync.Mutex
		count    int64
		atCancel int64
	}
	subs := make([]*tracked, nSubs)
	for i := range subs {
		tr := &tracked{}
		sub, err := eng.SubscribeQuery("q", SubscribeOptions{OnEmit: func(em Emit) {
			tr.mu.Lock()
			tr.count++
			// One subscription cancels itself from inside its own callback.
			if i == 0 && tr.count == 3 {
				tr.atCancel = tr.count
				tr.mu.Unlock()
				tr.sub.Cancel()
				return
			}
			tr.mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
		tr.sub = sub
		subs[i] = tr
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := eng.Append("s", Row{seed*100000 + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ps := []int{1, 2, 4}
		ss := []Strategy{StrategyShared, StrategyPartial, StrategySeparate}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.SetParallelism(ps[i%len(ps)]); err != nil {
				t.Error(err)
				return
			}
			if err := eng.SetStrategy(ss[i%len(ss)]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Cancel the remaining subscriptions at staggered times while the
	// appenders and the rewirer run.
	for i, tr := range subs {
		if i == 0 {
			continue
		}
		wg.Add(1)
		go func(tr *tracked, d time.Duration) {
			defer wg.Done()
			time.Sleep(d)
			tr.mu.Lock()
			tr.atCancel = tr.count
			tr.mu.Unlock()
			tr.sub.Cancel()
			tr.sub.Cancel() // idempotent
		}(tr, time.Duration(10+i*15)*time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	// The rewire storm can starve the subscription emitter so badly that
	// the whole run's output arrives as one or two giant batches — sub 0
	// may not have seen its third delivery yet. Feed small batches at a
	// calm pace until its self-cancel (from inside the callback) fires, so
	// the zero-subscriptions invariant below is actually reachable.
	for i := 0; i < 5000 && !subs[0].sub.cancelled.Load(); i++ {
		if err := eng.Append("s", Row{900000 + i}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if !subs[0].sub.cancelled.Load() {
		t.Fatal("sub 0 never reached its third delivery; self-cancel did not run")
	}
	eng.Drain(10 * time.Second)

	if n := eng.Snapshot().Subscriptions; n != 0 {
		t.Errorf("Snapshot().Subscriptions = %d after cancelling all, want 0", n)
	}
	time.Sleep(20 * time.Millisecond)
	for i, tr := range subs {
		tr.mu.Lock()
		count, at := tr.count, tr.atCancel
		tr.mu.Unlock()
		// atCancel was read just before Cancel; one delivery may already be
		// in flight on the emitter thread, plus one racing the Cancel call
		// itself — anything beyond that is a leak of the cancelled consumer.
		if count > at+2 {
			t.Errorf("sub %d: %d deliveries after Cancel (count %d, at cancel %d)", i, count-at, count, at)
		}
	}
}

// TestRemoveQueryCancelsSubscriptions pins the teardown contract: removing
// a query detaches its subscriptions, and re-registering the same name
// starts a fresh emitter with fresh numbering.
func TestRemoveQueryCancelsSubscriptions(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select * from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SubscribeQuery("q", SubscribeOptions{OnEmit: func(Emit) {}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SubscribeQuery("q", SubscribeOptions{OnEmit: func(Emit) {}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if n := eng.Snapshot().Subscriptions; n != 2 {
		t.Fatalf("Subscriptions = %d, want 2", n)
	}
	if err := eng.RemoveQuery("q"); err != nil {
		t.Fatal(err)
	}
	if n := eng.Snapshot().Subscriptions; n != 0 {
		t.Errorf("Subscriptions = %d after RemoveQuery, want 0", n)
	}

	if err := eng.RegisterQuery("q", `select * from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []int64
	if _, err := eng.SubscribeQuery("q", SubscribeOptions{OnEmit: func(em Emit) {
		mu.Lock()
		seqs = append(seqs, em.Seq)
		mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{7}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seqs)
		mu.Unlock()
		if n >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) == 0 || seqs[0] != 1 {
		t.Errorf("re-registered query's first Seq = %v, want 1", seqs)
	}
}
