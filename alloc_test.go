// Allocation-regression tests for the firing hot path. The numbers
// asserted here are the documented steady-state budgets; if a change
// pushes past them, either tighten the code or consciously re-document
// the budget (see README.md, "Memory model").
package datacell

import (
	"testing"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// TestSingleQueryFiringAllocs drives the canonical single-stream
// scan → predicate → project → emit chain through the public engine and
// asserts the steady-state allocation budget of one full cycle
// (Append + firing + result drain).
//
// Documented budget: ~50 allocations per cycle independent of batch size
// (headers, the firing env, scheduler bookkeeping — all O(1); every
// per-tuple buffer comes from the execution arena or basket ping-pong
// relations). The pre-arena engine cost >10000 allocations for the same
// cycle at batch 1000. The assert allows 150 to absorb sync.Pool refills
// after a mid-run GC.
func TestSingleQueryFiringAllocs(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int, w int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v, t.w from [select * from s] t where t.v < 100`); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{int64(i % 200), int64(i)}
	}
	var spare *bat.Relation
	cycle := func() {
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
		out.Lock()
		spare = out.ExchangeLocked(spare)
		out.Unlock()
	}
	for i := 0; i < 5; i++ { // warm arena, ping-pong relations, pools
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs > 150 {
		t.Fatalf("single-query firing cycle allocates %.1f per run, budget 150 (steady state ~50)", allocs)
	}
	// The query must still compute the right thing.
	cycle()
	if spare.Len() != 500 {
		t.Fatalf("firing produced %d rows, want 500", spare.Len())
	}
}

// TestFalsePredicateSelectsNothing guards the late-materialisation paths
// against the nil-candidate ambiguity: a WHERE clause that folds to
// false must return no rows (not all rows), for one-time queries and for
// continuous firings alike — and the continuous query must still consume
// nothing, not loop re-emitting.
func TestFalsePredicateSelectsNothing(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create table tt (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("tt", Row{int64(1)}, Row{int64(2)}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`select v from tt where false`,
		`select v from tt where v < 100 and false`,
		`select v from tt where false and v < 100`,
	} {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Len() != 0 {
			t.Fatalf("%s: returned %d rows, want 0", q, res.Len())
		}
	}

	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("never", `select t.v from [select * from s where false] t`); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Out("never")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{int64(1)}, Row{int64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("continuous false predicate emitted %d rows, want 0", out.Len())
	}
}

// TestFiringAllocsScaleWithQueriesNotTuples pins the late-materialisation
// property: doubling the batch size must not change the per-cycle
// allocation count (the bytes grow, the allocation count does not).
func TestFiringAllocsScaleWithQueriesNotTuples(t *testing.T) {
	run := func(batch int) float64 {
		eng := New()
		if _, err := eng.Exec(`create basket s (v int, w int)`); err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterQuery("q", `select t.v from [select * from s] t where t.v < 50`); err != nil {
			t.Fatal(err)
		}
		out, err := eng.Out("q")
		if err != nil {
			t.Fatal(err)
		}
		vs := make([]int64, batch)
		ws := make([]int64, batch)
		for i := range vs {
			vs[i], ws[i] = int64(i%100), int64(i)
		}
		rel := bat.NewRelation([]string{"v", "w"}, []*vector.Vector{
			vector.FromInts(vs), vector.FromInts(ws),
		})
		st := eng.Catalog().Basket("s")
		var spare *bat.Relation
		cycle := func() {
			if _, err := st.Append(rel); err != nil {
				t.Fatal(err)
			}
			if err := eng.RunSync(); err != nil {
				t.Fatal(err)
			}
			out.Lock()
			spare = out.ExchangeLocked(spare)
			out.Unlock()
		}
		for i := 0; i < 5; i++ {
			cycle()
		}
		return testing.AllocsPerRun(50, cycle)
	}
	small, large := run(500), run(4000)
	if large > small+60 {
		t.Fatalf("allocs grew with batch size: %.1f at 500 tuples vs %.1f at 4000", small, large)
	}
}
