package expr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/relop"
	"datacell/internal/vector"
)

// selectByEval is the reference selection: materialise the predicate as a
// boolean vector through the general evaluator, then select its true
// positions.
func selectByEval(t *testing.T, e Expr, rel *bat.Relation, cand []int32) []int32 {
	t.Helper()
	v, err := e.EvalInto(rel, nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	out := relop.SelectBool(v, cand)
	if out == nil {
		out = []int32{}
	}
	return out
}

// TestEvalSelectMatchesEvalOnIntColumns checks that the kernel pushdown of
// an integer column compared with a constant selects exactly what the
// general evaluator's comparison does, for every operator, both operand
// orders, BETWEEN, and constants that are integral, fractional, negative,
// infinite, NaN or beyond the int64 range.
func TestEvalSelectMatchesEvalOnIntColumns(t *testing.T) {
	vals := []int64{math.MinInt64, -1 << 53, -3, -2, -1, 0, 1, 2, 3, 7,
		1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxInt64}
	ts := make([]int64, len(vals))
	for i, x := range vals {
		ts[i] = x / 2
	}
	rel := bat.NewRelation([]string{"v", "t"}, []*vector.Vector{
		vector.FromInts(vals), vector.FromTimestamps(ts),
	})
	consts := []vector.Value{
		vector.NewInt(2), vector.NewInt(-2), vector.NewInt(math.MaxInt64), vector.NewInt(math.MinInt64),
		vector.NewFloat(2), vector.NewFloat(2.5), vector.NewFloat(-2), vector.NewFloat(-2.5),
		vector.NewFloat(1<<53 - 1), vector.NewFloat(1 << 53), vector.NewFloat(-1 << 53),
		vector.NewFloat(math.Inf(1)), vector.NewFloat(math.Inf(-1)), vector.NewFloat(math.NaN()),
		vector.NewFloat(1e19), vector.NewFloat(-1e19),
	}
	cand := []int32{0, 2, 3, 5, 7, 8, 11, 13}
	check := func(e Expr) {
		t.Helper()
		for _, c := range [][]int32{nil, cand} {
			want := selectByEval(t, e, rel, c)
			got, err := EvalSelectInto(e, rel, c, nil)
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Errorf("EvalSelectInto(%s) cand %v = %#v, want %v", e, c, got, want)
			}
		}
	}
	for _, name := range []string{"v", "t"} {
		col := NewCol(name)
		for _, k := range consts {
			for op := Eq; op <= Ge; op++ {
				check(NewBin(op, col, NewConst(k)))
				check(NewBin(op, NewConst(k), col))
			}
			for _, k2 := range consts {
				check(NewBetween(col, NewConst(k), NewConst(k2), false))
			}
		}
	}
}

// TestEvalSelectFusesSameColumnConjuncts checks that a conjunction whose
// integer comparisons share a column selects the same positions as
// evaluating its conjuncts one after another, and that it costs one
// kernel pass per column: the selection buffers drawn from the scratch.
func TestEvalSelectFusesSameColumnConjuncts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := make([]int64, 300), make([]int64, 300)
	for i := range a {
		a[i], b[i] = rng.Int63n(24)-4, rng.Int63n(24)-12
	}
	rel := bat.NewRelation([]string{"a", "b"}, []*vector.Vector{vector.FromInts(a), vector.FromInts(b)})
	ca, cb := NewCol("a"), NewCol("b")
	k := func(x int64) Expr { return NewConst(vector.NewInt(x)) }
	and := func(l, r Expr) Expr { return NewBin(And, l, r) }

	cases := []struct {
		name   string
		e      Expr
		passes int
	}{
		{"pair", and(NewBin(Ge, ca, k(3)), NewBin(Lt, ca, k(7))), 1},
		{"nested and flipped", and(and(NewBin(Ge, ca, k(3)), NewBin(Lt, cb, k(5))),
			and(NewBin(Gt, k(7), ca), NewBin(Lt, k(2), ca))), 2},
		{"fractional float bound", and(NewBin(Ge, ca, NewConst(vector.NewFloat(2.5))), NewBin(Le, ca, k(9))), 1},
		{"empty intersection", and(and(NewBin(Eq, ca, k(4)), NewBin(Eq, ca, k(16))), NewBin(Lt, cb, k(-7))), 2},
		{"not-equal stays unfused", and(NewBin(Ne, ca, k(4)), NewBin(Lt, ca, k(7))), 2},
		{"two columns stay unfused", and(NewBin(Ge, ca, k(3)), NewBin(Lt, cb, k(7))), 2},
		{"non-sargable third conjunct", and(and(NewBin(Ge, ca, k(3)), NewBin(Lt, ca, k(7))),
			NewBin(Gt, NewBin(Add, ca, cb), k(5))), 2},
	}
	cand := relop.SelectBool(vector.FromBools(func() []bool {
		m := make([]bool, len(a))
		for i := range m {
			m[i] = i%3 != 1
		}
		return m
	}()), nil)
	for _, c := range cases {
		for _, cd := range [][]int32{nil, cand} {
			// The reference: every conjunct in turn on the previous one's
			// candidates.
			want := cd
			for _, conj := range appendConjuncts(nil, c.e, rel) {
				var err error
				if want, err = EvalSelectInto(conj.e, rel, want, nil); err != nil {
					t.Fatal(err)
				}
			}
			if eval := selectByEval(t, c.e, rel, cd); !reflect.DeepEqual(want, eval) {
				t.Fatalf("%s: conjunct-by-conjunct %v disagrees with the evaluator %v", c.name, want, eval)
			}
			got, err := EvalSelectInto(c.e, rel, cd, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s cand %v: EvalSelectInto = %#v, want %v", c.name, cd != nil, got, want)
			}
			sc := &Scratch{}
			got, err = EvalSelectInto(c.e, rel, cd, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s cand %v: EvalSelectInto = %#v, want %v", c.name, cd != nil, got, want)
			}
			if sc.si != c.passes {
				t.Errorf("%s: %d selection passes, want %d", c.name, sc.si, c.passes)
			}
		}
	}
}

// TestEvalSelectFusedAndAllocFree checks that flattening and fusing a
// conjunction allocates nothing once the scratch is warm.
func TestEvalSelectFusedAndAllocFree(t *testing.T) {
	rel := evalRel()
	i := NewCol("i")
	e := NewBin(And, NewBin(And, NewBin(Ge, i, NewConst(vector.NewInt(-1))), NewCol("b")),
		NewBin(Lt, i, NewConst(vector.NewInt(6))))
	sc := &Scratch{}
	if _, err := EvalSelectInto(e, rel, nil, sc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		sc.Reset()
		if _, err := EvalSelectInto(e, rel, nil, sc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("allocs per run = %v, want 0", n)
	}
}
