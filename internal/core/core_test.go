package core

import (
	"fmt"
	"testing"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/relop"
	"datacell/internal/vector"
)

// MustFactory is NewFactory that panics on error; for static test wiring.
func MustFactory(name string, inputs, outputs []*basket.Basket, body Body) *Factory {
	f, err := NewFactory(name, inputs, outputs, body)
	if err != nil {
		panic(err)
	}
	return f
}

func intBasket(name string) *basket.Basket {
	return basket.New(name, []string{"x"}, []vector.Type{vector.Int})
}

func intRel(vals ...int64) *bat.Relation {
	return bat.NewRelation([]string{"x"}, []*vector.Vector{vector.FromInts(vals)})
}

// rangeScan returns a ScanQuery matching lo <= x < hi, covering everything
// it matched.
func rangeScan(name string, lo, hi int64) ScanQuery {
	return ScanQuery{
		Name: name,
		Scan: func(rel *bat.Relation) (matched, covered []int32) {
			sel := relop.SelectRange(rel.ColByName("x"), vector.NewInt(lo), vector.NewInt(hi), true, false, nil)
			return sel, sel
		},
	}
}

// allScan matches and covers every tuple.
func allScan(name string) ScanQuery {
	return ScanQuery{
		Name: name,
		Scan: func(rel *bat.Relation) (matched, covered []int32) {
			sel := relop.CandAll(rel.Len())
			return sel, sel
		},
	}
}

// bindAll pairs scan callbacks with their result baskets in the
// StreamQuery form the strategies consume.
func bindAll(qs []ScanQuery, results []*basket.Basket) []StreamQuery {
	out := make([]StreamQuery, len(qs))
	for i, q := range qs {
		out[i] = q.Bind(results[i])
	}
	return out
}

func TestFactoryValidation(t *testing.T) {
	b := intBasket("b")
	if _, err := NewFactory("f", nil, []*basket.Basket{b}, func(*Context) error { return nil }); err == nil {
		t.Error("factory without inputs should be rejected")
	}
	if _, err := NewFactory("f", []*basket.Basket{b}, nil, func(*Context) error { return nil }); err == nil {
		t.Error("factory without outputs should be rejected")
	}
	if _, err := NewFactory("f", []*basket.Basket{b}, []*basket.Basket{b}, nil); err == nil {
		t.Error("factory without body should be rejected")
	}
}

func TestFactorySelectPipeline(t *testing.T) {
	// The paper's Algorithm 1: select values of X in [v1,v2) from input to
	// output, emptying the input each firing.
	in, out := intBasket("in"), intBasket("out")
	f := MustFactory("select", []*basket.Basket{in}, []*basket.Basket{out}, func(ctx *Context) error {
		rel := ctx.In(0).TakeAllLocked()
		sel := relop.SelectRange(rel.ColByName("x"), vector.NewInt(10), vector.NewInt(20), true, false, nil)
		if len(sel) > 0 {
			_, err := ctx.Out(0).AppendLocked(rel.Gather(sel))
			return err
		}
		return nil
	})
	in.Append(intRel(5, 12, 25, 15))
	fired, err := f.TryFire()
	if err != nil || !fired {
		t.Fatalf("fired=%v err=%v", fired, err)
	}
	if in.Len() != 0 {
		t.Errorf("input not emptied: %d", in.Len())
	}
	got := out.TakeAll()
	if got.Len() != 2 || got.Col(0).Ints()[0] != 12 || got.Col(0).Ints()[1] != 15 {
		t.Errorf("output: %v", got.Col(0).Ints())
	}
	if f.Fires() != 1 {
		t.Errorf("fires = %d", f.Fires())
	}
}

func TestFactoryThreshold(t *testing.T) {
	in, out := intBasket("in"), intBasket("out")
	f := MustFactory("batch", []*basket.Basket{in}, []*basket.Basket{out}, func(ctx *Context) error {
		_, err := ctx.Out(0).AppendLocked(ctx.In(0).TakeAllLocked())
		return err
	})
	f.SetThreshold(0, 3)
	in.Append(intRel(1, 2))
	if fired, _ := f.TryFire(); fired {
		t.Error("fired below threshold")
	}
	in.Append(intRel(3))
	if fired, _ := f.TryFire(); !fired {
		t.Error("did not fire at threshold")
	}
	if out.Len() != 3 {
		t.Errorf("out = %d", out.Len())
	}
}

func TestFactorySavedState(t *testing.T) {
	// Factory state survives between calls via the closure: a running sum.
	in, out := intBasket("in"), intBasket("out")
	var total int64
	f := MustFactory("sum", []*basket.Basket{in}, []*basket.Basket{out}, func(ctx *Context) error {
		rel := ctx.In(0).TakeAllLocked()
		for _, v := range rel.ColByName("x").Ints() {
			total += v
		}
		_, err := ctx.Out(0).AppendLocked(intRel(total))
		return err
	})
	in.Append(intRel(1, 2))
	f.TryFire()
	in.Append(intRel(3))
	f.TryFire()
	got := out.TakeAll()
	if got.Col(0).Ints()[1] != 6 {
		t.Errorf("running sums: %v", got.Col(0).Ints())
	}
}

func TestFactoryErrorTracking(t *testing.T) {
	in, out := intBasket("in"), intBasket("out")
	f := MustFactory("bad", []*basket.Basket{in}, []*basket.Basket{out}, func(ctx *Context) error {
		ctx.In(0).TakeAllLocked()
		return fmt.Errorf("boom")
	})
	in.Append(intRel(1))
	fired, err := f.TryFire()
	if !fired || err == nil {
		t.Fatalf("fired=%v err=%v", fired, err)
	}
	if f.Errors() != 1 || f.LastError() == nil {
		t.Errorf("errors=%d lastErr=%v", f.Errors(), f.LastError())
	}
}

func TestSchedulerPipelineConcurrent(t *testing.T) {
	// R -> B1 -> Q -> B2 -> drain, concurrent mode.
	b1, b2 := intBasket("b1"), intBasket("b2")
	q := MustFactory("q", []*basket.Basket{b1}, []*basket.Basket{b2}, func(ctx *Context) error {
		rel := ctx.In(0).TakeAllLocked()
		sel := relop.SelectPred(rel.ColByName("x"), relop.GT, vector.NewInt(50), nil)
		if len(sel) > 0 {
			_, err := ctx.Out(0).AppendLocked(rel.Gather(sel))
			return err
		}
		return nil
	})
	s := NewScheduler()
	if err := s.Register(q); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for i := int64(0); i < 100; i++ {
		b1.Append(intRel(i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for b2.Len() < 49 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := b2.Len(); got != 49 {
		t.Errorf("results = %d, want 49", got)
	}
	if !s.WaitQuiescent(time.Second) {
		t.Error("network did not quiesce")
	}
}

func TestSchedulerRunUntilQuiescent(t *testing.T) {
	// Chain of three factories, synchronous mode.
	b := []*basket.Basket{intBasket("c0"), intBasket("c1"), intBasket("c2"), intBasket("c3")}
	s := NewScheduler()
	for i := 0; i < 3; i++ {
		i := i
		f := MustFactory(fmt.Sprintf("f%d", i), []*basket.Basket{b[i]}, []*basket.Basket{b[i+1]}, func(ctx *Context) error {
			_, err := ctx.Out(0).AppendLocked(ctx.In(0).TakeAllLocked())
			return err
		})
		s.Register(f)
	}
	b[0].Append(intRel(1, 2, 3))
	fires, err := s.RunUntilQuiescent(0)
	if err != nil {
		t.Fatal(err)
	}
	if fires != 3 {
		t.Errorf("fires = %d", fires)
	}
	if b[3].Len() != 3 {
		t.Errorf("sink = %d", b[3].Len())
	}
	if !s.Quiescent() {
		t.Error("not quiescent after drain")
	}
}

func TestSchedulerDynamicRegistration(t *testing.T) {
	s := NewScheduler()
	in, out := intBasket("i"), intBasket("o")
	f := MustFactory("f", []*basket.Basket{in}, []*basket.Basket{out}, func(ctx *Context) error {
		_, err := ctx.Out(0).AppendLocked(ctx.In(0).TakeAllLocked())
		return err
	})
	s.Register(f)
	s.Start()
	defer s.Stop()
	if err := s.Start(); err == nil {
		t.Error("double start should fail")
	}
	// A factory registered while running starts firing immediately.
	in2, out2 := intBasket("i2"), intBasket("o2")
	f2 := MustFactory("f2", []*basket.Basket{in2}, []*basket.Basket{out2}, func(ctx *Context) error {
		_, err := ctx.Out(0).AppendLocked(ctx.In(0).TakeAllLocked())
		return err
	})
	if err := s.Register(f2); err != nil {
		t.Fatal(err)
	}
	in2.Append(intRel(1, 2, 3))
	deadline := time.Now().Add(2 * time.Second)
	for out2.Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if out2.Len() != 3 {
		t.Errorf("dynamic factory results = %d", out2.Len())
	}
}

func TestSeparateBasketsStrategy(t *testing.T) {
	in := intBasket("stream")
	results := []*basket.Basket{intBasket("r0"), intBasket("r1")}
	qs := []ScanQuery{rangeScan("low", 0, 50), rangeScan("high", 50, 100)}
	fs, err := SeparateBaskets("sep", in, bindAll(qs, results))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 { // replicator + 2 queries
		t.Fatalf("factories = %d", len(fs))
	}
	s := NewScheduler()
	for _, f := range fs {
		s.Register(f)
	}
	in.Append(intRel(10, 60, 45, 99))
	if _, err := s.RunUntilQuiescent(0); err != nil {
		t.Fatal(err)
	}
	if got := results[0].Len(); got != 2 {
		t.Errorf("low results = %d", got)
	}
	if got := results[1].Len(); got != 2 {
		t.Errorf("high results = %d", got)
	}
}

func TestSharedBasketsStrategy(t *testing.T) {
	in := intBasket("stream")
	results := []*basket.Basket{intBasket("r0"), intBasket("r1"), intBasket("r2")}
	qs := []ScanQuery{rangeScan("a", 0, 30), rangeScan("b", 30, 60), rangeScan("c", 60, 100)}
	fs, err := SharedBaskets("sh", in, bindAll(qs, results))
	if err != nil {
		t.Fatal(err)
	}
	// locker + 3 readers + unlocker
	if len(fs) != 5 {
		t.Fatalf("factories = %d", len(fs))
	}
	s := NewScheduler()
	for _, f := range fs {
		s.Register(f)
	}
	in.Append(intRel(10, 40, 70, 20, 90))
	if _, err := s.RunUntilQuiescent(100); err != nil {
		t.Fatal(err)
	}
	if got := results[0].Len(); got != 2 {
		t.Errorf("q a results = %d", got)
	}
	if got := results[1].Len(); got != 1 {
		t.Errorf("q b results = %d", got)
	}
	if got := results[2].Len(); got != 2 {
		t.Errorf("q c results = %d", got)
	}
	// All tuples were covered by some query, so the shared basket drains
	// and is re-enabled for the next round.
	if in.Len() != 0 {
		t.Errorf("shared basket residue = %d", in.Len())
	}
	if !in.Enabled() {
		t.Error("shared basket left disabled")
	}
	// Second round works (idle token was returned).
	in.Append(intRel(25, 65))
	if _, err := s.RunUntilQuiescent(100); err != nil {
		t.Fatal(err)
	}
	if got := results[0].Len(); got != 3 {
		t.Errorf("round 2: q a results = %d", got)
	}
}

func TestSharedBasketsKeepsUncoveredTuples(t *testing.T) {
	in := intBasket("stream")
	results := []*basket.Basket{intBasket("r0")}
	// Query covers only x < 10; other tuples must survive in the basket.
	qs := []ScanQuery{rangeScan("small", 0, 10)}
	fs, err := SharedBaskets("sh2", in, bindAll(qs, results))
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler()
	for _, f := range fs {
		s.Register(f)
	}
	in.Append(intRel(5, 50))
	// Bound the run: the uncovered tuple keeps the shared basket non-empty,
	// so the locker cycle would spin forever in synchronous mode.
	if _, err := s.RunUntilQuiescent(20); err != nil {
		t.Fatal(err)
	}
	if results[0].Len() != 1 {
		t.Errorf("results = %d", results[0].Len())
	}
	if snap := in.Snapshot(); snap.Len() != 1 || snap.Col(0).Ints()[0] != 50 {
		t.Errorf("residue: %v", snap)
	}
}

func TestPartialDeletesStrategy(t *testing.T) {
	in := intBasket("stream")
	results := []*basket.Basket{intBasket("r0"), intBasket("r1")}
	qs := []ScanQuery{rangeScan("low", 0, 50), rangeScan("high", 50, 100)}
	fs, err := PartialDeletes("pd", in, bindAll(qs, results))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("factories = %d", len(fs))
	}
	s := NewScheduler()
	for _, f := range fs {
		s.Register(f)
	}
	in.Append(intRel(10, 60, 45, 99))
	if _, err := s.RunUntilQuiescent(0); err != nil {
		t.Fatal(err)
	}
	if got := results[0].Len(); got != 2 {
		t.Errorf("low results = %d", got)
	}
	if got := results[1].Len(); got != 2 {
		t.Errorf("high results = %d", got)
	}
}

func TestPartialDeletesShrinkChain(t *testing.T) {
	// The second query must only see the residue of the first.
	in := intBasket("stream")
	var secondSaw int
	q1 := rangeScan("q1", 0, 50)
	q2 := ScanQuery{
		Name: "probe",
		Scan: func(rel *bat.Relation) (matched, covered []int32) {
			secondSaw = rel.Len()
			all := relop.CandAll(rel.Len())
			return all, all
		},
	}
	results := []*basket.Basket{intBasket("r0"), intBasket("r1")}
	fs, _ := PartialDeletes("pd2", in, bindAll([]ScanQuery{q1, q2}, results))
	s := NewScheduler()
	for _, f := range fs {
		s.Register(f)
	}
	in.Append(intRel(10, 20, 80, 90, 95))
	s.RunUntilQuiescent(0)
	if secondSaw != 3 {
		t.Errorf("second query saw %d tuples, want 3", secondSaw)
	}
}

func TestSlidingWindowJoinWithTriggerBasket(t *testing.T) {
	// The §4.1 auxiliary-basket pattern: join fires only when the trigger
	// holds a token; inputs b1/b2 are locked via the output set so tuples
	// can persist across firings (partial deletes of the window).
	b1 := basket.New("b1", []string{"id", "v"}, []vector.Type{vector.Int, vector.Int})
	b2 := basket.New("b2", []string{"id", "w"}, []vector.Type{vector.Int, vector.Int})
	trig := intBasket("trigger")
	out := basket.New("j", []string{"id", "v", "w"}, []vector.Type{vector.Int, vector.Int, vector.Int})

	join := MustFactory("winjoin",
		[]*basket.Basket{trig},
		[]*basket.Basket{out, b1, b2},
		func(ctx *Context) error {
			ctx.In(0).TakeAllLocked() // consume trigger
			l, r := ctx.Out(1).RelLocked(), ctx.Out(2).RelLocked()
			ls, rs := relop.HashJoin(l.ColByName("id"), r.ColByName("id"))
			if len(ls) == 0 {
				return nil
			}
			res := bat.NewEmptyRelation([]string{"id", "v", "w"},
				[]vector.Type{vector.Int, vector.Int, vector.Int})
			for i := range ls {
				res.AppendRow(l.ColByName("id").Get(int(ls[i])), l.ColByName("v").Get(int(ls[i])), r.ColByName("w").Get(int(rs[i])))
			}
			if _, err := ctx.Out(0).AppendLocked(res); err != nil {
				return err
			}
			// Matched tuples leave the window (merge semantics: matching
			// tuples are removed; non-matched wait for late arrivals).
			ctx.Out(1).DeleteLocked(sortedPositions(ls))
			ctx.Out(2).DeleteLocked(sortedPositions(rs))
			return nil
		})

	s := NewScheduler()
	s.Register(join)

	b1.AppendRow(vector.NewInt(1), vector.NewInt(10))
	trig.Append(intRel(1))
	s.RunUntilQuiescent(0)
	if out.Len() != 0 {
		t.Error("join emitted without matches")
	}
	// Late arrival matches the waiting tuple.
	b2.AppendRow(vector.NewInt(1), vector.NewInt(20))
	trig.Append(intRel(1))
	s.RunUntilQuiescent(0)
	got := out.TakeAll()
	if got.Len() != 1 || got.Col(2).Ints()[0] != 20 {
		t.Errorf("join result: %v", got)
	}
	if b1.Len() != 0 || b2.Len() != 0 {
		t.Error("matched tuples not removed from window")
	}
}

func TestSortedPositions(t *testing.T) {
	got := sortedPositions([]int32{5, 1, 5, 3, 1})
	want := []int32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("sortedPositions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sortedPositions[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSharedBasketsReaderErrorDoesNotWedgeGroup(t *testing.T) {
	// A failing reader must still report done, or the unlocker never
	// fires and the stream stays blocked forever.
	in := intBasket("stream")
	good := intBasket("good.out")
	bad := StreamQuery{
		Name: "bad",
		Out:  intBasket("bad.out"),
		Fire: func(in, out *basket.Basket, report func([]int32)) error {
			return fmt.Errorf("boom")
		},
	}
	fs, err := SharedBaskets("shw", in, []StreamQuery{bad, rangeScan("ok", 0, 100).Bind(good)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler()
	for _, f := range fs {
		s.Register(f)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	in.Append(intRel(5, 50))
	deadline := time.Now().Add(5 * time.Second)
	for good.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if good.Len() != 2 {
		t.Fatalf("healthy reader delivered %d results, want 2", good.Len())
	}
	// Second round: the stream was unblocked and the cycle restarts.
	in.Append(intRel(7))
	for good.Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if good.Len() != 3 {
		t.Errorf("group wedged after reader error: %d results", good.Len())
	}
	if !in.Enabled() {
		t.Error("stream left disabled")
	}
}
