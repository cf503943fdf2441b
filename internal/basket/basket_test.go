package basket

import (
	"slices"
	"sync"
	"testing"
	"time"

	"datacell/internal/bat"
	"datacell/internal/relop"
	"datacell/internal/vector"
)

func newIntBasket(name string) *Basket {
	return New(name, []string{"x"}, []vector.Type{vector.Int})
}

func userRel(vals ...int64) *bat.Relation {
	return bat.NewRelation([]string{"x"}, []*vector.Vector{vector.FromInts(vals)})
}

func TestSchemaHasImplicitTimestamp(t *testing.T) {
	b := New("s", []string{"a", "b"}, []vector.Type{vector.Int, vector.Str})
	names, types := b.Schema()
	if len(names) != 3 || names[2] != TimestampCol || types[2] != vector.Timestamp {
		t.Errorf("schema = %v %v", names, types)
	}
	un, ut := b.UserSchema()
	if len(un) != 2 || un[1] != "b" || ut[1] != vector.Str {
		t.Errorf("user schema = %v %v", un, ut)
	}
}

func TestAppendStampsArrivalTime(t *testing.T) {
	b := newIntBasket("s")
	fixed := time.Unix(42, 0)
	b.SetClock(func() time.Time { return fixed })
	if _, err := b.Append(userRel(1, 2)); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	ts := snap.ColByName(TimestampCol)
	if ts == nil || ts.Ints()[0] != fixed.UnixMicro() || ts.Ints()[1] != fixed.UnixMicro() {
		t.Errorf("timestamps = %v", ts)
	}
}

func TestAppendArityChecked(t *testing.T) {
	b := New("s", []string{"a", "b"}, []vector.Type{vector.Int, vector.Int})
	if _, err := b.Append(userRel(1)); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestIntegrityConstraintSilentDrop(t *testing.T) {
	b := newIntBasket("s")
	b.AddConstraint(Constraint{
		Name: "positive",
		Check: func(rel *bat.Relation) []int32 {
			return relop.SelectPred(rel.ColByName("x"), relop.GT, vector.NewInt(0), nil)
		},
	})
	n, err := b.Append(userRel(-1, 5, -2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("accepted %d, want 2", n)
	}
	st := b.Stats()
	if st.Appended != 2 || st.Dropped != 2 {
		t.Errorf("stats = %+v", st)
	}
	snap := b.Snapshot()
	if snap.Len() != 2 || snap.Col(0).Ints()[0] != 5 {
		t.Errorf("content: %v", snap.Col(0).Ints())
	}
}

func TestMultipleConstraintsIntersect(t *testing.T) {
	b := newIntBasket("s")
	b.AddConstraint(Constraint{Check: func(rel *bat.Relation) []int32 {
		return relop.SelectPred(rel.ColByName("x"), relop.GT, vector.NewInt(0), nil)
	}})
	b.AddConstraint(Constraint{Check: func(rel *bat.Relation) []int32 {
		return relop.SelectPred(rel.ColByName("x"), relop.LT, vector.NewInt(10), nil)
	}})
	n, _ := b.Append(userRel(-5, 3, 20))
	if n != 1 || b.Len() != 1 {
		t.Errorf("accepted %d, len %d", n, b.Len())
	}
}

func TestTakeAllAndSeqbase(t *testing.T) {
	b := newIntBasket("s")
	b.Append(userRel(1, 2, 3))
	b.Lock()
	if b.seqbase != 0 {
		t.Errorf("seqbase = %d", b.seqbase)
	}
	got := b.TakeAllLocked()
	if got.Len() != 3 {
		t.Errorf("take = %d", got.Len())
	}
	if b.LenLocked() != 0 {
		t.Errorf("len after take = %d", b.LenLocked())
	}
	if b.seqbase != 3 {
		t.Errorf("seqbase after take = %d", b.seqbase)
	}
	b.Unlock()
	if st := b.Stats(); st.Consumed != 3 {
		t.Errorf("consumed = %d", st.Consumed)
	}
}

func TestTakeAndDeleteSelected(t *testing.T) {
	b := newIntBasket("s")
	b.Append(userRel(10, 20, 30, 40))
	b.Lock()
	b.DeleteLocked([]int32{1, 3})
	b.Unlock()
	snap := b.Snapshot()
	if snap.Len() != 2 || snap.Col(0).Ints()[0] != 10 || snap.Col(0).Ints()[1] != 30 {
		t.Errorf("residue: %v", snap.Col(0).Ints())
	}
	if st := b.Stats(); st.Consumed != 2 {
		t.Errorf("consumed = %d, want 2", st.Consumed)
	}
	b.Lock()
	b.DeleteLocked([]int32{0})
	b.Unlock()
	if b.Len() != 1 {
		t.Errorf("after delete len = %d", b.Len())
	}
}

func TestDisableBlocksAppend(t *testing.T) {
	b := newIntBasket("s")
	b.SetEnabled(false)
	done := make(chan int, 1)
	go func() {
		n, _ := b.Append(userRel(1))
		done <- n
	}()
	select {
	case <-done:
		t.Fatal("append should block while disabled")
	case <-time.After(20 * time.Millisecond):
	}
	b.SetEnabled(true)
	select {
	case n := <-done:
		if n != 1 {
			t.Errorf("accepted %d", n)
		}
	case <-time.After(time.Second):
		t.Fatal("append did not unblock")
	}
}

func TestCloseReleasesBlockedAppend(t *testing.T) {
	b := newIntBasket("s")
	b.SetEnabled(false)
	errc := make(chan error, 1)
	go func() {
		_, err := b.Append(userRel(1))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not release producer")
	}
}

func TestWaitNotEmpty(t *testing.T) {
	b := newIntBasket("s")
	done := make(chan error, 1)
	go func() { done <- b.WaitNotEmpty(2) }()
	b.Append(userRel(1))
	select {
	case <-done:
		t.Fatal("woke below threshold")
	case <-time.After(10 * time.Millisecond):
	}
	b.Append(userRel(2))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Closed basket returns ErrClosed when below threshold.
	b2 := newIntBasket("s2")
	done2 := make(chan error, 1)
	go func() { done2 <- b2.WaitNotEmpty(1) }()
	time.Sleep(5 * time.Millisecond)
	b2.Close()
	if err := <-done2; err != ErrClosed {
		t.Errorf("err = %v", err)
	}
}

func TestOnAppendHook(t *testing.T) {
	b := newIntBasket("s")
	var mu sync.Mutex
	calls := 0
	b.SetOnAppend(func() { mu.Lock(); calls++; mu.Unlock() })
	b.Append(userRel(1))
	b.Append(userRel()) // empty append must not fire the hook
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("hook calls = %d", calls)
	}
}

func TestAppendWithExplicitTimestampColumn(t *testing.T) {
	// Kernel-internal appends may carry the timestamp column through.
	b := newIntBasket("s")
	full := bat.NewRelation(
		[]string{"x", TimestampCol},
		[]*vector.Vector{vector.FromInts([]int64{7}), vector.FromTimestamps([]int64{123})},
	)
	b.Lock()
	n, err := b.AppendLocked(full)
	b.Unlock()
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	snap := b.Snapshot()
	if snap.ColByName(TimestampCol).Ints()[0] != 123 {
		t.Errorf("explicit ts lost: %v", snap)
	}
}

func TestAppendRow(t *testing.T) {
	b := New("s", []string{"a", "s"}, []vector.Type{vector.Int, vector.Str})
	if err := b.AppendRow(vector.NewInt(1), vector.NewStr("one")); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Errorf("len = %d", b.Len())
	}
}

func TestConcurrentAppendTake(t *testing.T) {
	b := newIntBasket("s")
	const producers, rows = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				b.Append(userRel(int64(i)))
			}
		}()
	}
	consumed := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for consumed < producers*rows {
			if b.WaitNotEmpty(1) != nil {
				return
			}
			consumed += b.TakeAll().Len()
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer stalled")
	}
	if consumed != producers*rows {
		t.Errorf("consumed %d, want %d", consumed, producers*rows)
	}
	if st := b.Stats(); st.Appended != producers*rows || st.Consumed != producers*rows {
		t.Errorf("stats = %+v", st)
	}
}

func TestCoverCreditsUnionDelete(t *testing.T) {
	// Two shared readers cover overlapping position sets; the union is
	// removed in one step, the uncovered tuple survives.
	b := newIntBasket("s")
	b.Append(userRel(10, 20, 30, 40))
	b.Lock()
	b.CoverLocked([]int32{0, 1})
	b.CoverLocked([]int32{1, 3})
	if n := b.DeleteCoveredLocked(1); n != 3 {
		t.Errorf("union delete removed %d, want 3", n)
	}
	b.Unlock()
	snap := b.Snapshot()
	if snap.Len() != 1 || snap.Col(0).Ints()[0] != 30 {
		t.Errorf("residue: %v", snap.Col(0).Ints())
	}
}

func TestDeleteSortedCountsRuns(t *testing.T) {
	// naive keeps every credit whose position is not deleted.
	naive := func(counts, sel []int32) []int32 {
		out := []int32{}
		for i, c := range counts {
			if !slices.Contains(sel, int32(i)) {
				out = append(out, c)
			}
		}
		return out
	}
	cases := []struct {
		name string
		sel  []int32
	}{
		{"prefix", []int32{0, 1, 2, 3}},
		{"middle", []int32{3, 4, 5}},
		{"suffix", []int32{7, 8, 9}},
		{"whole", []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"single-first", []int32{0}},
		{"single-middle", []int32{5}},
		{"single-last", []int32{9}},
		{"scattered", []int32{1, 4, 8}},
		{"run-plus-straggler", []int32{2, 3, 4, 7}},
	}
	counts := []int32{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	for _, c := range cases {
		want := naive(counts, c.sel)
		if got := deleteSortedCounts(slices.Clone(counts), c.sel); !slices.Equal(got, want) {
			t.Errorf("%s: %v, want %v", c.name, got, want)
		}
	}
}

func TestCoverCreditsThresholdAndShift(t *testing.T) {
	b := newIntBasket("s")
	b.Append(userRel(1, 2, 3))
	b.Lock()
	b.CoverLocked([]int32{0, 2})
	b.CoverLocked([]int32{2})
	// Only position 2 reached two credits.
	if n := b.DeleteCoveredLocked(2); n != 1 {
		t.Errorf("threshold delete removed %d, want 1", n)
	}
	// Credits of the survivors shifted with the tuples: position 0 still
	// holds one credit, so a union delete removes exactly it.
	if n := b.DeleteCoveredLocked(1); n != 1 {
		t.Errorf("follow-up union delete removed %d, want 1", n)
	}
	if b.LenLocked() != 1 {
		t.Errorf("len = %d", b.LenLocked())
	}
	b.Unlock()
	// New arrivals start with zero credits while tracking is active.
	b.Append(userRel(4))
	b.Lock()
	if n := b.DeleteCoveredLocked(1); n != 0 {
		t.Errorf("fresh tuples deleted: %d", n)
	}
	// TakeAll resets the tracker entirely.
	b.TakeAllLocked()
	if n := b.DeleteCoveredLocked(1); n != 0 {
		t.Errorf("delete after take-all: %d", n)
	}
	b.Unlock()
}
