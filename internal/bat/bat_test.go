package bat

import (
	"reflect"
	"testing"

	"datacell/internal/vector"
)

func intRel(t *testing.T, names []string, cols ...[]int64) *Relation {
	t.Helper()
	vs := make([]*vector.Vector, len(cols))
	for i, c := range cols {
		vs[i] = vector.FromInts(c)
	}
	return NewRelation(names, vs)
}

func TestBATBasics(t *testing.T) {
	b := New(vector.Int)
	b.Hseqbase = 100
	for i := int64(0); i < 5; i++ {
		b.Append(vector.NewInt(i * 10))
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	if p := b.Pos(102); p != 2 {
		t.Errorf("Pos(102) = %d", p)
	}
	if p := b.Pos(99); p != -1 {
		t.Errorf("Pos(99) = %d, want -1", p)
	}
	if p := b.Pos(105); p != -1 {
		t.Errorf("Pos(105) = %d, want -1", p)
	}
	b.DeleteSorted([]int32{0, 1})
	if b.Len() != 3 || b.Tail.Ints()[0] != 20 {
		t.Errorf("after delete: %v", b.Tail.Ints())
	}
}

func TestRelationBasics(t *testing.T) {
	r := intRel(t, []string{"A", "b"}, []int64{1, 2, 3}, []int64{10, 20, 30})
	if r.Len() != 3 || r.NumCols() != 2 {
		t.Fatalf("Len=%d NumCols=%d", r.Len(), r.NumCols())
	}
	// Names are stored lower-case; lookup is case-insensitive.
	if i := r.ColIndex("A"); i != 0 {
		t.Errorf("ColIndex(A) = %d", i)
	}
	if i := r.ColIndex("B"); i != 1 {
		t.Errorf("ColIndex(B) = %d", i)
	}
	if i := r.ColIndex("missing"); i != -1 {
		t.Errorf("ColIndex(missing) = %d", i)
	}
	if v := r.ColByName("b"); v == nil || v.Ints()[2] != 30 {
		t.Errorf("ColByName(b) = %v", v)
	}
}

func TestQualifiedLookup(t *testing.T) {
	r := intRel(t, []string{"s.a", "s.b"}, []int64{1}, []int64{2})
	if i := r.ColIndex("s.a"); i != 0 {
		t.Errorf("ColIndex(s.a) = %d", i)
	}
	if i := r.ColIndex("a"); i != 0 {
		t.Errorf("ColIndex(a) = %d", i)
	}
	if i := r.ColIndex("t.a"); i != 0 { // falls back to bare suffix match
		t.Errorf("ColIndex(t.a) = %d", i)
	}
	q := r.Qualify("z")
	if q.Names()[0] != "z.a" || q.Names()[1] != "z.b" {
		t.Errorf("Qualify = %v", q.Names())
	}
}

func TestProjectGather(t *testing.T) {
	r := intRel(t, []string{"a", "b", "c"}, []int64{1, 2}, []int64{3, 4}, []int64{5, 6})
	p, err := r.Project("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Col(0).Ints()[0] != 5 || p.Col(1).Ints()[1] != 2 {
		t.Errorf("Project: %v", p)
	}
	if _, err := r.Project("zz"); err == nil {
		t.Error("Project(zz) should fail")
	}
	g := r.Gather([]int32{1})
	if g.Len() != 1 || g.Col(2).Ints()[0] != 6 {
		t.Errorf("Gather: %v", g)
	}
}

func TestAppendRowAndRelation(t *testing.T) {
	r := NewEmptyRelation([]string{"x", "s"}, []vector.Type{vector.Int, vector.Str})
	r.AppendRow(vector.NewInt(1), vector.NewStr("one"))
	r.AppendRow(vector.NewInt(2), vector.NewStr("two"))
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	row := r.Row(1)
	if row[0].I != 2 || row[1].S != "two" {
		t.Errorf("Row(1) = %v", row)
	}
	o := NewEmptyRelation([]string{"x", "s"}, []vector.Type{vector.Int, vector.Str})
	o.AppendRow(vector.NewInt(3), vector.NewStr("three"))
	r.AppendRelation(o)
	if r.Len() != 3 || r.Col(1).Strs()[2] != "three" {
		t.Errorf("AppendRelation: %v", r)
	}
}

func TestDeleteKeepClear(t *testing.T) {
	r := intRel(t, []string{"a", "b"}, []int64{1, 2, 3, 4}, []int64{5, 6, 7, 8})
	r.DeleteSorted([]int32{0, 3})
	if !reflect.DeepEqual(r.Col(0).Ints(), []int64{2, 3}) || !reflect.DeepEqual(r.Col(1).Ints(), []int64{6, 7}) {
		t.Errorf("DeleteSorted: %v %v", r.Col(0).Ints(), r.Col(1).Ints())
	}
	r.KeepSorted([]int32{1})
	if r.Len() != 1 || r.Col(0).Ints()[0] != 3 {
		t.Errorf("KeepSorted: %v", r.Col(0).Ints())
	}
	r.Clear()
	if r.Len() != 0 {
		t.Errorf("Clear: Len = %d", r.Len())
	}
}

func TestCloneIndependence(t *testing.T) {
	r := intRel(t, []string{"a"}, []int64{1, 2})
	c := r.Clone()
	c.Col(0).Set(0, vector.NewInt(99))
	if r.Col(0).Ints()[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestConcatRename(t *testing.T) {
	a := intRel(t, []string{"x"}, []int64{1, 2})
	b := intRel(t, []string{"y"}, []int64{3, 4})
	c := Concat(a, b)
	if c.NumCols() != 2 || c.Col(1).Ints()[1] != 4 {
		t.Errorf("Concat: %v", c)
	}
	rn := c.Rename([]string{"p", "q"})
	if rn.ColIndex("q") != 1 {
		t.Errorf("Rename: %v", rn.Names())
	}
}

func TestMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for misaligned columns")
		}
	}()
	NewRelation([]string{"a", "b"}, []*vector.Vector{
		vector.FromInts([]int64{1, 2}),
		vector.FromInts([]int64{1}),
	})
}

func TestTypesAndString(t *testing.T) {
	r := NewEmptyRelation([]string{"a", "b"}, []vector.Type{vector.Int, vector.Str})
	ts := r.Types()
	if ts[0] != vector.Int || ts[1] != vector.Str {
		t.Errorf("Types = %v", ts)
	}
	r.AppendRow(vector.NewInt(1), vector.NewStr("s"))
	if r.String() == "" {
		t.Error("empty String()")
	}
}
