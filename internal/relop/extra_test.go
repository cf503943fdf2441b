package relop

import (
	"reflect"
	"testing"

	"datacell/internal/vector"
)

func TestSelectRangeWithCandidates(t *testing.T) {
	v := vector.FromInts([]int64{0, 10, 20, 30, 40})
	got := SelectRange(v, vector.NewInt(10), vector.NewInt(40), true, true, []int32{0, 2, 4})
	if !reflect.DeepEqual(got, []int32{2, 4}) {
		t.Errorf("candidates: %v", got)
	}
	f := vector.FromFloats([]float64{1, 2, 3})
	got = SelectRange(f, vector.NewFloat(1.5), vector.NewFloat(2.5), true, true, []int32{0, 1})
	if !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("float candidates: %v", got)
	}
	s := vector.FromStrs([]string{"a", "b", "c"})
	got = SelectRange(s, vector.NewStr("a"), vector.NewStr("b"), false, true, []int32{0, 1, 2})
	if !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("str candidates: %v", got)
	}
}

func TestSelectPredTimestamps(t *testing.T) {
	v := vector.FromTimestamps([]int64{100, 200, 300})
	got := SelectPred(v, GE, vector.NewTimestampMicros(200), nil)
	if !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Errorf("timestamps: %v", got)
	}
}

func TestThetaJoinFloatsAndStrings(t *testing.T) {
	lf := vector.FromFloats([]float64{1.5, 3.5})
	rf := vector.FromFloats([]float64{2.0})
	lsel, rsel := ThetaJoin(lf, rf, GT)
	if len(lsel) != 1 || lsel[0] != 1 || rsel[0] != 0 {
		t.Errorf("float theta: %v %v", lsel, rsel)
	}
	ls := vector.FromStrs([]string{"a", "c"})
	rs := vector.FromStrs([]string{"b"})
	lsel, rsel = ThetaJoin(ls, rs, LT)
	if len(lsel) != 1 || lsel[0] != 0 {
		t.Errorf("str theta: %v %v", lsel, rsel)
	}
}

func TestHashJoinBools(t *testing.T) {
	l := vector.FromBools([]bool{true, false})
	r := vector.FromBools([]bool{true, true})
	lsel, rsel := HashJoin(l, r)
	if len(lsel) != 2 || lsel[0] != 0 || lsel[1] != 0 {
		t.Errorf("bool join: %v %v", lsel, rsel)
	}
}

func TestSemiAntiJoinFloats(t *testing.T) {
	l := vector.FromFloats([]float64{1.5, 2.5})
	r := vector.FromFloats([]float64{2.5})
	if got := AntiJoin(l, r); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("anti floats: %v", got)
	}
}

func TestAggregateTimestampMinMax(t *testing.T) {
	v := vector.FromTimestamps([]int64{300, 100, 200})
	g := GroupBy(nil, 3)
	mn := Aggregate(AggMin, v, g)
	if mn.Kind() != vector.Timestamp || mn.Ints()[0] != 100 {
		t.Errorf("ts min: %v", mn)
	}
	mx := Aggregate(AggMax, v, g)
	if mx.Ints()[0] != 300 {
		t.Errorf("ts max: %v", mx)
	}
}

func TestGroupByFloatAndBoolKeys(t *testing.T) {
	f := vector.FromFloats([]float64{1.5, 2.5, 1.5})
	g := GroupBy([]*vector.Vector{f}, 3)
	if g.NumGroups() != 2 || g.GroupIDs[2] != 0 {
		t.Errorf("float keys: %+v", g)
	}
	b := vector.FromBools([]bool{true, false, true})
	g = GroupBy([]*vector.Vector{b}, 3)
	if g.NumGroups() != 2 {
		t.Errorf("bool keys: %+v", g)
	}
}

func TestAggregateAvgEmptyGroupIsNaN(t *testing.T) {
	// Degenerate: grouping over zero rows produces no groups; avg over a
	// sparse group must not divide by zero.
	v := vector.FromInts(nil)
	g := GroupBy(nil, 0)
	out := Aggregate(AggAvg, v, g)
	if out.Len() != 0 {
		t.Errorf("avg over empty: %v", out)
	}
}

func TestSortFloatsStringsBools(t *testing.T) {
	f := vector.FromFloats([]float64{2.5, 1.5})
	if perm := Sort([]SortKey{{Col: f}}, 2); perm[0] != 1 {
		t.Errorf("float sort: %v", perm)
	}
	s := vector.FromStrs([]string{"b", "a"})
	if perm := Sort([]SortKey{{Col: s}}, 2); perm[0] != 1 {
		t.Errorf("str sort: %v", perm)
	}
	b := vector.FromBools([]bool{true, false})
	if perm := Sort([]SortKey{{Col: b}}, 2); perm[0] != 1 {
		t.Errorf("bool sort: %v", perm)
	}
}
