package datacell

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell/internal/bat"
	"datacell/internal/faultpoint"
	"datacell/internal/ingest"
	"datacell/internal/stream"
	"datacell/internal/vector"
	"datacell/internal/wal"
)

// walQueries is the crash-differential workload: a row-local slice and a
// range-pruned window over the textual stream s, plus two-phase grouped
// aggregates (sum/count and avg) and a top-N over a unique key on the
// binary stream a — every wiring shape recovery must reproduce exactly.
// Windows are disjoint so the partial strategy's residue chain leaves
// every query a non-empty slice (same constraint as the agg workload).
var walQueries = []NamedQuery{
	{Name: "s_low", SQL: `select t.k, t.v from [select * from s where v < 100] t`},
	{Name: "s_range", SQL: `select t.v from [select * from s where v >= 100 and v < 400] t`},
	{Name: "a_gsum", SQL: `select t.k, count(*) as n, sum(t.v) as total from [select * from a where v < 400] t group by t.k`},
	{Name: "a_gavg", SQL: `select t.k, avg(t.v) as av from [select * from a where v >= 400 and v < 800] t group by t.k`},
	{Name: "a_top", SQL: `select top 8 t.k, t.v, t.u from [select * from a where v >= 800] t order by t.u desc`},
}

var (
	walSTypes = []vector.Type{vector.Int, vector.Int}
	walATypes = []vector.Type{vector.Int, vector.Int, vector.Int}
)

// walSRows and walARows are closed-form (no RNG) so the kill -9 child
// process regenerates the identical feed without any channel to the
// parent.
func walSRows() []Row {
	rows := make([]Row, 800)
	for i := range rows {
		rows[i] = Row{int64(i % 16), int64((i * 37) % 2000)}
	}
	return rows
}

func walARows() []Row {
	rows := make([]Row, 800)
	for i := range rows {
		rows[i] = Row{int64(i % 12), int64((i * 53) % 1000), int64(i)}
	}
	return rows
}

func buildWALEngine(t testing.TB, strategy Strategy, parallelism int) *Engine {
	t.Helper()
	eng := New()
	if err := eng.SetStrategy(strategy); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetParallelism(parallelism); err != nil {
		t.Fatal(err)
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

func collectWALOutputs(t testing.TB, eng *Engine) map[string][]string {
	t.Helper()
	got := map[string][]string{}
	for _, q := range walQueries {
		out, err := eng.Out(q.Name)
		if err != nil {
			t.Fatal(err)
		}
		tbl := tableOf(out.Snapshot())
		rows := make([]string, 0, len(tbl.Rows))
		for _, r := range tbl.Rows {
			parts := make([]string, len(r))
			for i, c := range r {
				parts[i] = fmt.Sprint(c)
			}
			rows = append(rows, strings.Join(parts, "|"))
		}
		sort.Strings(rows)
		got[q.Name] = rows
	}
	return got
}

// walReference is the uninterrupted run: the full feed resident, one
// synchronous scheduler pass — the output any crash-and-recover run must
// reproduce byte for byte.
func walReference(t testing.TB, strategy Strategy, parallelism int) map[string][]string {
	t.Helper()
	eng := buildWALEngine(t, strategy, parallelism)
	defer eng.Stop()
	if err := eng.Append("s", walSRows()...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("a", walARows()...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	return collectWALOutputs(t, eng)
}

// walDurableRows reads one stream's segment files straight off disk —
// what genuinely survived the crash — as pipe-joined row strings.
func walDurableRows(t testing.TB, dir string, types []vector.Type) []string {
	t.Helper()
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	names := make([]string, len(types))
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	rel := bat.NewEmptyRelation(names, types)
	br := bufio.NewReader(bytes.NewReader(nil))
	fr := ingest.NewFrameReader(br, types)
	var rows []string
	if _, err := wal.Scan(dir, 0, func(seq uint64, frame []byte) error {
		br.Reset(bytes.NewReader(frame))
		if _, derr := fr.DecodeFrameInto(rel); derr != nil {
			return derr
		}
		rows = append(rows, stream.EncodeRelation(rel, len(types))...)
		rel.Clear()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// walRemainder is the sender's redelivery after a crash: the multiset
// difference between everything it sent and what the WAL made durable.
// It also cross-checks the log never fabricates or duplicates rows.
func walRemainder(t testing.TB, all []Row, durable []string) []Row {
	t.Helper()
	durCount := map[string]int{}
	for _, r := range durable {
		durCount[r]++
	}
	var rem []Row
	for _, row := range all {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprint(v)
		}
		key := strings.Join(parts, "|")
		if durCount[key] > 0 {
			durCount[key]--
			continue
		}
		rem = append(rem, row)
	}
	for k, c := range durCount {
		if c > 0 {
			t.Fatalf("WAL holds %d cop(ies) of %q that were never sent", c, k)
		}
	}
	return rem
}

// walFeedCrash feeds both streams over TCP into an engine whose
// scheduler is stopped, with the given faultpoint armed; once the site
// fires it kills the engine. Write errors are expected — the crash
// severs the connections mid-feed.
func walFeedCrash(t *testing.T, eng *Engine, sAddr, aAddr, site string) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", sAddr)
		if err != nil {
			return
		}
		defer conn.Close()
		w := bufio.NewWriter(conn)
		for i, r := range walSRows() {
			fmt.Fprintf(w, "%d|%d\n", r[0], r[1])
			if i%40 == 39 {
				if w.Flush() != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
		w.Flush()
	}()
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", aAddr)
		if err != nil {
			return
		}
		defer conn.Close()
		bw := ingest.NewBatchWriter(conn, []string{"k", "v", "u"}, walATypes, 16)
		for i, r := range walARows() {
			if bw.WriteRow(vector.NewInt(r[0].(int64)), vector.NewInt(r[1].(int64)), vector.NewInt(r[2].(int64))) != nil {
				return
			}
			if i%40 == 39 {
				time.Sleep(time.Millisecond)
			}
		}
		bw.Flush()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for faultpoint.Armed(site) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fired := !faultpoint.Armed(site)
	eng.Kill()
	wg.Wait()
	if !fired {
		t.Fatalf("faultpoint %s never fired during the feed", site)
	}
}

// walCrashRun is one crash-and-recover leg: ingest with a fault armed,
// die at the faultpoint, then recover into a fresh engine over the same
// WAL directory, redeliver the non-durable remainder, and run to
// quiescence.
func walCrashRun(t *testing.T, strategy Strategy, parallelism int, site string, act faultpoint.Action, after int) map[string][]string {
	t.Helper()
	faultpoint.Clear()
	defer faultpoint.Clear()
	dir := t.TempDir()

	eng := buildWALEngine(t, strategy, parallelism)
	if err := eng.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	ls, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	la, err := eng.ListenIngest("a", "127.0.0.1:0", IngestOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Scheduler deliberately not started: the crash lands mid-ingest with
	// nothing consumed, so recovery owns the whole feed.
	faultpoint.Inject(site, act, after, nil)
	walFeedCrash(t, eng, ls.Addr(), la.Addr(), site)

	durS := walDurableRows(t, filepath.Join(dir, "s"), walSTypes)
	durA := walDurableRows(t, filepath.Join(dir, "a"), walATypes)

	eng2 := buildWALEngine(t, strategy, parallelism)
	defer eng2.Stop()
	if err := eng2.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	rec, err := eng2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tuples != int64(len(durS)+len(durA)) {
		t.Fatalf("Recover replayed %d tuples, the segment files hold %d", rec.Tuples, len(durS)+len(durA))
	}
	rec2, err := eng2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Frames != 0 {
		t.Fatalf("second Recover replayed %d frames, want a no-op", rec2.Frames)
	}
	if rem := walRemainder(t, walSRows(), durS); len(rem) > 0 {
		if err := eng2.Append("s", rem...); err != nil {
			t.Fatal(err)
		}
	}
	if rem := walRemainder(t, walARows(), durA); len(rem) > 0 {
		if err := eng2.Append("a", rem...); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng2.RunSync(); err != nil {
		t.Fatal(err)
	}
	return collectWALOutputs(t, eng2)
}

// TestWALCrashRecoveryDifferential is the acceptance differential: for
// every faultpoint site, sharing strategy and parallelism, an engine
// killed mid-ingest and restarted with Recover (plus the sender's
// redelivery of non-durable rows) emits byte-identical output to the
// uninterrupted run — including range-pruned and two-phase-aggregation
// wirings.
func TestWALCrashRecoveryDifferential(t *testing.T) {
	faults := []struct {
		site  string
		act   faultpoint.Action
		after int
	}{
		{wal.FaultAppend, faultpoint.Crash, 20},
		{wal.FaultAppend, faultpoint.Short, 20},
		{wal.FaultSync, faultpoint.Crash, 3},
		{wal.FaultSynced, faultpoint.Crash, 3},
		{ingest.FaultDeliver, faultpoint.Crash, 20},
	}
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		for _, p := range []int{1, 4} {
			want := walReference(t, strategy, p)
			for _, f := range faults {
				t.Run(fmt.Sprintf("%s_P%d_%s_%s", strategy, p, f.site, f.act), func(t *testing.T) {
					got := walCrashRun(t, strategy, p, f.site, f.act, f.after)
					for name, w := range want {
						if len(w) == 0 {
							t.Fatalf("%s produced no rows; differential is vacuous", name)
						}
						g := got[name]
						if len(g) != len(w) {
							t.Fatalf("%s: recovered run produced %d rows, uninterrupted %d", name, len(g), len(w))
						}
						for i := range w {
							if g[i] != w[i] {
								t.Fatalf("%s: row %d differs after recovery: %q vs %q", name, i, g[i], w[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestWALCheckpointOnCleanStop pins the clean-shutdown path: a drained,
// stopped engine leaves a checkpoint covering every logged frame, so the
// next start replays nothing.
func TestWALCheckpointOnCleanStop(t *testing.T) {
	dir := t.TempDir()
	eng := buildWALEngine(t, StrategyShared, 2)
	if err := eng.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	const n = 200
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%d|%d\n", i%16, i)
	}
	w.Flush()
	conn.Close()
	waitIngested(t, eng, "s", n)
	if !eng.Drain(60 * time.Second) {
		t.Fatal("engine did not drain")
	}
	eng.Stop()

	info, err := wal.Scan(filepath.Join(dir, "s"), ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq == 0 {
		t.Fatal("nothing was logged")
	}
	if info.Checkpoint != info.LastSeq {
		t.Fatalf("checkpoint %d, want %d (clean stop must checkpoint the whole log)", info.Checkpoint, info.LastSeq)
	}
	eng2 := buildWALEngine(t, StrategyShared, 2)
	defer eng2.Stop()
	if err := eng2.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	rec, err := eng2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames != 0 {
		t.Fatalf("recovery after clean stop replayed %d frames, want 0", rec.Frames)
	}
}

// TestWALCheckpointKeepsResidentTuples pins that a checkpoint never
// covers tuples a window still holds: five tuples wait in a TOP 10 window
// at a Drain, the engine is killed, and after Recover five more tuples
// must complete the window, under the shared wiring (the tuples wait in
// the stream basket) and the separate one (they wait in the query's
// private replica).
func TestWALCheckpointKeepsResidentTuples(t *testing.T) {
	const window = `select t.k, t.v from [select top 10 * from s] t`
	build := func(strategy Strategy) *Engine {
		eng := New()
		if err := eng.SetStrategy(strategy); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterQuery("win", window); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, strategy := range []Strategy{StrategyShared, StrategySeparate} {
		t.Run(string(strategy), func(t *testing.T) {
			dir := t.TempDir()
			eng := build(strategy)
			if err := eng.OpenWAL(WALOptions{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				fmt.Fprintf(conn, "%d|%d\n", i, i)
			}
			conn.Close()
			waitIngested(t, eng, "s", 5)
			if !eng.Drain(10 * time.Second) {
				t.Fatal("engine did not drain")
			}
			eng.Kill()

			eng2 := build(strategy)
			defer eng2.Stop()
			if err := eng2.OpenWAL(WALOptions{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			rec, err := eng2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Tuples != 5 {
				t.Errorf("Recover replayed %d tuples, want the 5 the window held", rec.Tuples)
			}
			for i := 5; i < 10; i++ {
				if err := eng2.Append("s", Row{int64(i), int64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng2.RunSync(); err != nil {
				t.Fatal(err)
			}
			out, err := eng2.Out("win")
			if err != nil {
				t.Fatal(err)
			}
			if n := out.Len(); n != 10 {
				t.Fatalf("window emitted %d rows after recovery, want 10", n)
			}
		})
	}
}

// TestWALCheckpointWaitsForInFlightDelivery pins that a checkpoint never
// covers a frame a receptor has logged but not yet routed: with a
// delivery held between its log write and its basket append, the
// checkpoint must wait for it and then find the tuple resident, so a
// crash after it still replays the frame.
func TestWALCheckpointWaitsForInFlightDelivery(t *testing.T) {
	build := func() *Engine {
		eng := New()
		if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterQuery("win", `select t.k, t.v from [select top 10 * from s] t`); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	dir := t.TempDir()
	eng := build()
	if err := eng.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	eng.mu.Lock()
	tgt, lg := eng.groups["s"].target(), eng.wal.logs["s"]
	eng.mu.Unlock()
	names, types := eng.cat.Basket("s").UserSchema()
	rel := bat.NewEmptyRelation(names, types)
	rel.AppendRow(vector.NewInt(1), vector.NewInt(1))

	// The delivery path of a receptor, stopped between log and append.
	sink, release := tgt.Acquire()
	if _, err := lg.LogBatch(rel); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		eng.checkpointWAL(false)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := sink.Append(rel); err != nil {
		t.Fatal(err)
	}
	release()
	<-done
	eng.Kill()

	eng2 := build()
	defer eng2.Stop()
	if err := eng2.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	rec, err := eng2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames != 1 {
		t.Fatalf("Recover replayed %d frames, want the 1 the checkpoint must not cover", rec.Frames)
	}
}

// TestWALHistoryLateJoin pins the WAL-backed replay source: a
// late-registered reader gets the stream's full logged history back as
// the textual lines a stream.Replayer consumes.
func TestWALHistoryLateJoin(t *testing.T) {
	dir := t.TempDir()
	eng := buildWALEngine(t, StrategyShared, 1)
	defer eng.Stop()
	if err := eng.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	w := bufio.NewWriter(conn)
	for i := 0; i < 50; i++ {
		line := fmt.Sprintf("%d|%d", i%16, i)
		want = append(want, line)
		fmt.Fprintf(w, "%s\n", line)
	}
	w.Flush()
	conn.Close()
	waitIngested(t, eng, "s", 50)

	rc, err := eng.WALHistory("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var got []string
	sc := bufio.NewScanner(rc)
	for sc.Scan() {
		got = append(got, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("history returned %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("history line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// walKill9Env carries the WAL directory into the helper child process.
const walKill9Env = "DATACELL_WAL_KILL9_DIR"

// TestWALKill9Child is the subprocess half of TestWALKill9Differential:
// it ingests with a crash faultpoint armed past a real fsync and dies
// with os.Exit(137) — genuine process death, not a simulation. It skips
// unless the parent set the environment marker.
func TestWALKill9Child(t *testing.T) {
	dir := os.Getenv(walKill9Env)
	if dir == "" {
		t.Skip("helper for TestWALKill9Differential")
	}
	faultpoint.SetCrashFn(func() { os.Exit(137) })
	eng := buildWALEngine(t, StrategyShared, 2)
	if err := eng.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Inject(wal.FaultSynced, faultpoint.Crash, 5, nil)
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	for i, r := range walSRows() {
		fmt.Fprintf(w, "%d|%d\n", r[0], r[1])
		if i%20 == 19 {
			if w.Flush() != nil {
				break // the crash severed the connection under us
			}
			time.Sleep(time.Millisecond)
		}
	}
	w.Flush()
	time.Sleep(2 * time.Second) // group-commit ticks keep running; die soon
	os.Exit(3)                  // the faultpoint never fired: distinct failure code
}

// TestWALKill9Differential crashes a real process with exit(137) at a
// post-fsync faultpoint mid-ingest, then recovers from the files it left
// behind and checks the differential against an uninterrupted run.
func TestWALKill9Differential(t *testing.T) {
	if os.Getenv(walKill9Env) != "" {
		t.Skip("running as child")
	}
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestWALKill9Child$")
	cmd.Env = append(os.Environ(), walKill9Env+"="+dir)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 137 {
		t.Fatalf("child exit = %v, want code 137; output:\n%s", err, out)
	}

	durable := walDurableRows(t, filepath.Join(dir, "s"), walSTypes)
	if len(durable) == 0 {
		t.Fatal("nothing durable: the child crashed after an fsync, frames must survive")
	}

	ref := buildWALEngine(t, StrategyShared, 2)
	defer ref.Stop()
	if err := ref.Append("s", walSRows()...); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSync(); err != nil {
		t.Fatal(err)
	}
	want := collectWALOutputs(t, ref)

	eng := buildWALEngine(t, StrategyShared, 2)
	defer eng.Stop()
	if err := eng.OpenWAL(WALOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if rem := walRemainder(t, walSRows(), durable); len(rem) > 0 {
		if err := eng.Append("s", rem...); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	got := collectWALOutputs(t, eng)
	for _, name := range []string{"s_low", "s_range"} {
		w, g := want[name], got[name]
		if len(w) == 0 {
			t.Fatalf("%s produced no rows; differential is vacuous", name)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: recovered %d rows, uninterrupted %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: row %d differs after kill -9 recovery: %q vs %q", name, i, g[i], w[i])
			}
		}
	}
}
