package relop

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"datacell/internal/vector"
)

func TestSelectPredInts(t *testing.T) {
	v := vector.FromInts([]int64{5, 1, 9, 5, 3})
	cases := []struct {
		op   CmpOp
		val  int64
		want []int32
	}{
		{EQ, 5, []int32{0, 3}},
		{NE, 5, []int32{1, 2, 4}},
		{LT, 5, []int32{1, 4}},
		{LE, 5, []int32{0, 1, 3, 4}},
		{GT, 5, []int32{2}},
		{GE, 5, []int32{0, 2, 3}},
	}
	for _, c := range cases {
		got := SelectPred(v, c.op, vector.NewInt(c.val), nil)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SelectPred(%s %d) = %v, want %v", c.op, c.val, got, c.want)
		}
	}
}

func TestSelectPredWithCandidates(t *testing.T) {
	v := vector.FromInts([]int64{5, 1, 9, 5, 3})
	got := SelectPred(v, EQ, vector.NewInt(5), []int32{1, 2, 3})
	if !reflect.DeepEqual(got, []int32{3}) {
		t.Errorf("got %v", got)
	}
}

func TestSelectPredOtherKinds(t *testing.T) {
	f := vector.FromFloats([]float64{1.5, 2.5, 3.5})
	if got := SelectPred(f, GT, vector.NewFloat(2), nil); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Errorf("float: %v", got)
	}
	s := vector.FromStrs([]string{"b", "a", "c"})
	if got := SelectPred(s, LE, vector.NewStr("b"), nil); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Errorf("str: %v", got)
	}
	b := vector.FromBools([]bool{true, false, true})
	if got := SelectPred(b, EQ, vector.NewBool(true), nil); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("bool: %v", got)
	}
}

func TestSelectRange(t *testing.T) {
	v := vector.FromInts([]int64{0, 10, 20, 30, 40})
	got := SelectRange(v, vector.NewInt(10), vector.NewInt(30), true, true, nil)
	if !reflect.DeepEqual(got, []int32{1, 2, 3}) {
		t.Errorf("inclusive: %v", got)
	}
	got = SelectRange(v, vector.NewInt(10), vector.NewInt(30), false, false, nil)
	if !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("exclusive: %v", got)
	}
	fv := vector.FromFloats([]float64{0.5, 1.5, 2.5})
	got = SelectRange(fv, vector.NewFloat(1), vector.NewFloat(2), true, true, nil)
	if !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("float range: %v", got)
	}
	sv := vector.FromStrs([]string{"alpha", "beta", "gamma"})
	got = SelectRange(sv, vector.NewStr("b"), vector.NewStr("c"), true, true, nil)
	if !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("str range: %v", got)
	}
}

func TestSelectBool(t *testing.T) {
	v := vector.FromBools([]bool{true, false, true, false})
	if got := SelectBool(v, nil); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("got %v", got)
	}
	if got := SelectBool(v, []int32{1, 2, 3}); !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("cand: %v", got)
	}
}

func TestCandOps(t *testing.T) {
	a := []int32{0, 2, 4, 6}
	b := []int32{2, 3, 4}
	if got := CandOr(a, b); !reflect.DeepEqual(got, []int32{0, 2, 3, 4, 6}) {
		t.Errorf("Or: %v", got)
	}
	if got := CandNot(a, 7); !reflect.DeepEqual(got, []int32{1, 3, 5}) {
		t.Errorf("Not: %v", got)
	}
	if got := CandAll(3); !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Errorf("All: %v", got)
	}
}

// candAnd intersects two ascending candidate lists within [0, n) through
// De Morgan: A ∩ B = ¬(¬A ∪ ¬B).
func candAnd(a, b []int32, n int) []int32 {
	return CandNot(CandOr(CandNot(a, n), CandNot(b, n)), n)
}

// Property: Or/Not behave like set operations.
func TestCandSetProperties(t *testing.T) {
	gen := func(seed int64, n int) []int32 {
		rng := rand.New(rand.NewSource(seed))
		set := map[int32]bool{}
		for i := 0; i < n; i++ {
			set[int32(rng.Intn(64))] = true
		}
		out := make([]int32, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1, 20), gen(s2, 20)
		and := candAnd(a, b, 64)
		or := CandOr(a, b)
		// |A| + |B| = |A∪B| + |A∩B|
		if len(a)+len(b) != len(or)+len(and) {
			return false
		}
		// Complement identity: Not(Not(a)) == a within [0,64)
		if !reflect.DeepEqual(CandNot(CandNot(a, 64), 64), a) {
			return false
		}
		// A ∩ ¬A = ∅
		if len(candAnd(a, CandNot(a, 64), 64)) != 0 {
			return false
		}
		// A ∪ ¬A is the whole domain.
		return len(CandOr(a, CandNot(a, 64))) == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashJoin(t *testing.T) {
	l := vector.FromInts([]int64{1, 2, 3, 2})
	r := vector.FromInts([]int64{2, 4, 2})
	lsel, rsel := HashJoin(l, r)
	// left-ordered pairs: (1,0),(1,2),(3,0),(3,2)
	wantL := []int32{1, 1, 3, 3}
	wantR := []int32{0, 2, 0, 2}
	if !reflect.DeepEqual(lsel, wantL) || !reflect.DeepEqual(rsel, wantR) {
		t.Errorf("HashJoin = %v,%v want %v,%v", lsel, rsel, wantL, wantR)
	}
}

func TestHashJoinStrsFloats(t *testing.T) {
	ls := vector.FromStrs([]string{"a", "b"})
	rs := vector.FromStrs([]string{"b", "b"})
	lsel, rsel := HashJoin(ls, rs)
	if len(lsel) != 2 || lsel[0] != 1 || rsel[0] != 0 || rsel[1] != 1 {
		t.Errorf("strs: %v %v", lsel, rsel)
	}
	lf := vector.FromFloats([]float64{1.5, 2.5})
	rf := vector.FromFloats([]float64{2.5})
	lsel, rsel = HashJoin(lf, rf)
	if len(lsel) != 1 || lsel[0] != 1 || rsel[0] != 0 {
		t.Errorf("floats: %v %v", lsel, rsel)
	}
}

func TestHashJoinMulti(t *testing.T) {
	l1 := vector.FromInts([]int64{1, 1, 2})
	l2 := vector.FromInts([]int64{10, 20, 10})
	r1 := vector.FromInts([]int64{1, 2})
	r2 := vector.FromInts([]int64{20, 10})
	lsel, rsel := HashJoinMulti([]*vector.Vector{l1, l2}, []*vector.Vector{r1, r2})
	if len(lsel) != 2 {
		t.Fatalf("pairs: %v %v", lsel, rsel)
	}
	if lsel[0] != 1 || rsel[0] != 0 || lsel[1] != 2 || rsel[1] != 1 {
		t.Errorf("got %v %v", lsel, rsel)
	}
}

func TestThetaJoin(t *testing.T) {
	l := vector.FromInts([]int64{1, 5})
	r := vector.FromInts([]int64{3, 4})
	lsel, rsel := ThetaJoin(l, r, LT)
	// 1<3, 1<4 -> (0,0),(0,1)
	if !reflect.DeepEqual(lsel, []int32{0, 0}) || !reflect.DeepEqual(rsel, []int32{0, 1}) {
		t.Errorf("theta: %v %v", lsel, rsel)
	}
	// EQ routes to hash join
	lsel, rsel = ThetaJoin(l, r, EQ)
	if len(lsel) != 0 || len(rsel) != 0 {
		t.Errorf("theta EQ: %v %v", lsel, rsel)
	}
}

// Property: HashJoin agrees with the nested-loop ThetaJoin on EQ semantics
// (as multisets of pairs).
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(l, r []int64) bool {
		if len(l) > 60 {
			l = l[:60]
		}
		if len(r) > 60 {
			r = r[:60]
		}
		for i := range l {
			l[i] %= 8
		}
		for i := range r {
			r[i] %= 8
		}
		lv, rv := vector.FromInts(l), vector.FromInts(r)
		hl, hr := HashJoin(lv, rv)
		type pair struct{ a, b int32 }
		got := map[pair]int{}
		for i := range hl {
			got[pair{hl[i], hr[i]}]++
		}
		want := map[pair]int{}
		for i, x := range l {
			for j, y := range r {
				if x == y {
					want[pair{int32(i), int32(j)}]++
				}
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSemiAntiJoin(t *testing.T) {
	l := vector.FromInts([]int64{1, 2, 3, 4})
	r := vector.FromInts([]int64{2, 4, 4})
	if got := AntiJoin(l, r); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("anti: %v", got)
	}
	ls := vector.FromStrs([]string{"a", "b"})
	rs := vector.FromStrs([]string{"b"})
	if got := AntiJoin(ls, rs); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("anti strs: %v", got)
	}
}

func TestGroupBySingle(t *testing.T) {
	v := vector.FromInts([]int64{7, 8, 7, 9, 8})
	g := GroupBy([]*vector.Vector{v}, v.Len())
	if g.NumGroups() != 3 {
		t.Fatalf("groups = %d", g.NumGroups())
	}
	if !reflect.DeepEqual(g.GroupIDs, []int32{0, 1, 0, 2, 1}) {
		t.Errorf("ids = %v", g.GroupIDs)
	}
	if !reflect.DeepEqual(g.Repr, []int32{0, 1, 3}) {
		t.Errorf("repr = %v", g.Repr)
	}
}

func TestGroupByMultiAndEmpty(t *testing.T) {
	a := vector.FromInts([]int64{1, 1, 2})
	b := vector.FromStrs([]string{"x", "y", "x"})
	g := GroupBy([]*vector.Vector{a, b}, 3)
	if g.NumGroups() != 3 {
		t.Errorf("multi groups = %d", g.NumGroups())
	}
	// No keys: single global group.
	g = GroupBy(nil, 5)
	if g.NumGroups() != 1 || g.GroupIDs[4] != 0 {
		t.Errorf("global group: %+v", g)
	}
	g = GroupBy(nil, 0)
	if g.NumGroups() != 0 {
		t.Errorf("empty input should have no groups")
	}
}

func TestAggregates(t *testing.T) {
	key := vector.FromInts([]int64{1, 2, 1, 2, 1})
	val := vector.FromInts([]int64{10, 20, 30, 40, 50})
	g := GroupBy([]*vector.Vector{key}, 5)

	if got := Aggregate(AggCount, nil, g); !reflect.DeepEqual(got.Ints(), []int64{3, 2}) {
		t.Errorf("count: %v", got.Ints())
	}
	if got := Aggregate(AggSum, val, g); !reflect.DeepEqual(got.Ints(), []int64{90, 60}) {
		t.Errorf("sum: %v", got.Ints())
	}
	if got := Aggregate(AggAvg, val, g); !reflect.DeepEqual(got.Floats(), []float64{30, 30}) {
		t.Errorf("avg: %v", got.Floats())
	}
	if got := Aggregate(AggMin, val, g); !reflect.DeepEqual(got.Ints(), []int64{10, 20}) {
		t.Errorf("min: %v", got.Ints())
	}
	if got := Aggregate(AggMax, val, g); !reflect.DeepEqual(got.Ints(), []int64{50, 40}) {
		t.Errorf("max: %v", got.Ints())
	}
}

func TestAggregateFloats(t *testing.T) {
	val := vector.FromFloats([]float64{1.5, 2.5, 3.0})
	g := GroupBy(nil, 3)
	if got := Aggregate(AggSum, val, g); got.Floats()[0] != 7.0 {
		t.Errorf("float sum: %v", got.Floats())
	}
	if got := Aggregate(AggAvg, val, g); got.Floats()[0] != 7.0/3 {
		t.Errorf("float avg: %v", got.Floats())
	}
	if got := Aggregate(AggMin, val, g); got.Floats()[0] != 1.5 {
		t.Errorf("float min: %v", got.Floats())
	}
	if got := Aggregate(AggMax, val, g); got.Floats()[0] != 3.0 {
		t.Errorf("float max: %v", got.Floats())
	}
}

func TestAggregateStrMinMax(t *testing.T) {
	val := vector.FromStrs([]string{"pear", "apple", "plum"})
	g := GroupBy(nil, 3)
	if got := Aggregate(AggMin, val, g); got.Strs()[0] != "apple" {
		t.Errorf("str min: %v", got.Strs())
	}
	if got := Aggregate(AggMax, val, g); got.Strs()[0] != "plum" {
		t.Errorf("str max: %v", got.Strs())
	}
}

// Property: sum over random groups equals the scalar sum.
func TestAggregateSumProperty(t *testing.T) {
	f := func(vals []int64, keys []uint8) bool {
		n := min(len(vals), len(keys))
		if n == 0 {
			return true
		}
		vs := vector.FromInts(vals[:n])
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = int64(keys[i] % 4)
		}
		kv := vector.FromInts(ks)
		g := GroupBy([]*vector.Vector{kv}, n)
		sums := Aggregate(AggSum, vs, g)
		var total, expect int64
		for _, s := range sums.Ints() {
			total += s
		}
		for _, v := range vals[:n] {
			expect += v
		}
		return total == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortAndTopN(t *testing.T) {
	v := vector.FromInts([]int64{3, 1, 2})
	perm := Sort([]SortKey{{Col: v}}, 3)
	if !reflect.DeepEqual(perm, []int32{1, 2, 0}) {
		t.Errorf("asc: %v", perm)
	}
	perm = Sort([]SortKey{{Col: v, Desc: true}}, 3)
	if !reflect.DeepEqual(perm, []int32{0, 2, 1}) {
		t.Errorf("desc: %v", perm)
	}
	if got := TopN(perm, 2); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("topn: %v", got)
	}
	if got := TopN(perm, 99); len(got) != 3 {
		t.Errorf("topn overflow: %v", got)
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	k1 := vector.FromInts([]int64{1, 1, 0, 0})
	k2 := vector.FromStrs([]string{"b", "a", "b", "a"})
	perm := Sort([]SortKey{{Col: k1}, {Col: k2}}, 4)
	if !reflect.DeepEqual(perm, []int32{3, 2, 1, 0}) {
		t.Errorf("multi: %v", perm)
	}
	// Equal keys preserve arrival order (stability).
	eq := vector.FromInts([]int64{5, 5, 5})
	perm = Sort([]SortKey{{Col: eq}}, 3)
	if !reflect.DeepEqual(perm, []int32{0, 1, 2}) {
		t.Errorf("stable: %v", perm)
	}
	// No keys: identity.
	perm = Sort(nil, 3)
	if !reflect.DeepEqual(perm, []int32{0, 1, 2}) {
		t.Errorf("identity: %v", perm)
	}
}

// Property: Sort produces a permutation that orders the data.
func TestSortProperty(t *testing.T) {
	f := func(data []int64) bool {
		v := vector.FromInts(data)
		perm := Sort([]SortKey{{Col: v}}, len(data))
		if len(perm) != len(data) {
			return false
		}
		seen := make([]bool, len(data))
		prev := int64(math.MinInt64)
		for _, p := range perm {
			if seen[p] {
				return false
			}
			seen[p] = true
			if data[p] < prev {
				return false
			}
			prev = data[p]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistinct(t *testing.T) {
	v := vector.FromStrs([]string{"a", "b", "a", "c", "b"})
	got := Distinct([]*vector.Vector{v}, 5)
	if !reflect.DeepEqual(got, []int32{0, 1, 3}) {
		t.Errorf("distinct: %v", got)
	}
}

func TestIsSorted(t *testing.T) {
	asc := []SortKey{{Col: vector.FromInts([]int64{1, 2, 2, 3, 0})}}
	if !IsSortedBy(asc, 0, 4) {
		t.Error("sorted run reported unsorted")
	}
	if IsSortedBy(asc, 2, 5) {
		t.Error("unsorted run reported sorted")
	}
	desc := []SortKey{{Col: vector.FromInts([]int64{3, 2, 2}), Desc: true}}
	if !IsSortedBy(desc, 0, 3) {
		t.Error("descending run reported unsorted")
	}
}

func TestCmpOpStringNegate(t *testing.T) {
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if op.String() == "?" {
			t.Errorf("missing String for %d", op)
		}
	}
}
