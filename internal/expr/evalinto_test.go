package expr

import (
	"testing"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

func evalRel() *bat.Relation {
	return bat.NewRelation([]string{"i", "f", "b", "s"}, []*vector.Vector{
		vector.FromInts([]int64{-3, 0, 5, 12}),
		vector.FromFloats([]float64{1.5, -2, 0, 8}),
		vector.FromBools([]bool{true, false, true, false}),
		vector.FromStrs([]string{"aa", "ab", "ba", "bb"}),
	})
}

// evalIntoExprs is the node zoo shared by the equivalence tests below.
func evalIntoExprs() []Expr {
	i, f, b, s := NewCol("i"), NewCol("f"), NewCol("b"), NewCol("s")
	return []Expr{
		NewConst(vector.NewInt(7)),
		i,
		NewBin(Add, i, NewConst(vector.NewInt(10))),
		NewBin(Mul, i, f),
		NewBin(Div, i, NewConst(vector.NewInt(0))),
		NewBin(Mod, i, NewConst(vector.NewInt(3))),
		NewBin(Lt, i, NewConst(vector.NewInt(4))),
		NewBin(Eq, s, NewConst(vector.NewStr("ba"))),
		NewBin(And, b, NewBin(Ge, f, NewConst(vector.NewFloat(0)))),
		NewBin(Or, b, NewBin(Ne, i, NewConst(vector.NewInt(0)))),
		NewNot(b),
		NewNeg(i),
		NewNeg(f),
		NewCall("abs", i),
		NewCall("sqrt", f),
		NewCall("least", i, NewConst(vector.NewInt(2))),
		NewCall("greatest", f, NewConst(vector.NewFloat(1))),
		NewBetween(i, NewConst(vector.NewInt(0)), NewConst(vector.NewInt(6)), false),
		NewInList(i, []vector.Value{vector.NewInt(0), vector.NewInt(5)}, false),
		NewLike(s, "a%", false),
	}
}

// TestEvalIntoMatchesEval checks that arena evaluation produces exactly
// what classic allocation-per-node evaluation produces, for every node
// type, and that results survive until Scratch reset.
func TestEvalIntoMatchesEval(t *testing.T) {
	rel := evalRel()
	sc := &Scratch{}
	for _, e := range evalIntoExprs() {
		want, werr := e.Eval(rel)
		sc.Reset()
		got, gerr := e.EvalInto(rel, nil, sc)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: Eval err %v, EvalInto err %v", e, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if got.Kind() != want.Kind() || got.Len() != want.Len() {
			t.Fatalf("%s: kind/len %v/%d vs %v/%d", e, got.Kind(), got.Len(), want.Kind(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !got.Get(i).Equal(want.Get(i)) {
				t.Fatalf("%s[%d] = %v, want %v", e, i, got.Get(i), want.Get(i))
			}
		}
	}
}

// TestEvalIntoSteadyStateAllocs checks that a warmed scratch makes the
// typed hot-path nodes allocation free.
func TestEvalIntoSteadyStateAllocs(t *testing.T) {
	rel := evalRel()
	e := NewBin(Add, NewBin(Mul, NewCol("i"), NewConst(vector.NewInt(3))), NewCol("i"))
	sc := &Scratch{}
	sc.Reset()
	if _, err := e.EvalInto(rel, nil, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sc.Reset()
		if _, err := e.EvalInto(rel, nil, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed EvalInto allocates %.1f per run, want 0", allocs)
	}
}

// TestEvalSelectIntoMatchesEvalSelect checks candidate-list evaluation
// under a scratch against the allocating path, over predicates exercising
// pushdown, and/or/not composition and the boolean fallback.
func TestEvalSelectIntoMatchesEvalSelect(t *testing.T) {
	rel := evalRel()
	i, f, b := NewCol("i"), NewCol("f"), NewCol("b")
	preds := []Expr{
		NewBin(Gt, i, NewConst(vector.NewInt(0))),
		NewBin(And, NewBin(Ge, i, NewConst(vector.NewInt(0))), NewBin(Lt, f, NewConst(vector.NewFloat(5)))),
		NewBin(Or, NewBin(Lt, i, NewConst(vector.NewInt(0))), NewBin(Eq, i, NewConst(vector.NewInt(12)))),
		NewNot(NewBin(Lt, i, NewConst(vector.NewInt(5)))),
		NewBetween(i, NewConst(vector.NewInt(-3)), NewConst(vector.NewInt(5)), false),
		b,
		NewConst(vector.NewBool(true)),
		NewBin(And, b, NewBin(Gt, NewBin(Add, i, i), NewConst(vector.NewInt(-10)))),
	}
	cands := [][]int32{nil, {}, {0, 2}, {0, 1, 2, 3}}
	sc := &Scratch{}
	for _, p := range preds {
		for _, cand := range cands {
			want, werr := EvalSelectInto(p, rel, cand, nil)
			sc.Reset()
			got, gerr := EvalSelectInto(p, rel, cand, sc)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: err %v vs %v", p, werr, gerr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s cand %v: got %v, want %v", p, cand, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s cand %v: got %v, want %v", p, cand, got, want)
				}
			}
		}
	}
}

// TestEvalSelectFalsePredicateSelectsNothing pins the nil-vs-empty
// distinction: a predicate that folds to false must yield a non-nil
// empty selection ("no rows"), never nil ("no restriction") — including
// through an AND chain whose left side is false.
func TestEvalSelectFalsePredicateSelectsNothing(t *testing.T) {
	rel := evalRel()
	f := NewConst(vector.NewBool(false))
	preds := []Expr{
		f,
		NewBin(And, f, NewBin(Lt, NewCol("i"), NewConst(vector.NewInt(100)))),
		NewBin(And, NewBin(Lt, NewCol("i"), NewConst(vector.NewInt(100))), f),
	}
	for _, p := range preds {
		for _, sc := range []*Scratch{nil, {}} {
			sel, err := EvalSelectInto(p, rel, nil, sc)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if sel == nil {
				t.Fatalf("%s: returned nil (means unrestricted), want non-nil empty", p)
			}
			if len(sel) != 0 {
				t.Fatalf("%s: selected %v, want nothing", p, sel)
			}
		}
	}
}

// TestScratchSlotsAreDistinct guards the arena invariant everything else
// relies on: two values obtained without an intervening Reset never
// alias.
func TestScratchSlotsAreDistinct(t *testing.T) {
	sc := &Scratch{}
	v1, v2 := sc.Vec(), sc.Vec()
	if v1 == v2 {
		t.Fatalf("Scratch.Vec returned the same vector twice")
	}
	s1, s2 := sc.Sel(), sc.Sel()
	if s1 == s2 {
		t.Fatalf("Scratch.Sel returned the same slot twice")
	}
	sc.Reset()
	if got := sc.Vec(); got != v1 {
		t.Fatalf("Reset does not recycle vectors in order")
	}
}
