package bat

import (
	"reflect"
	"testing"

	"datacell/internal/vector"
)

func sampleRel() *Relation {
	return NewRelation([]string{"a", "b"}, []*vector.Vector{
		vector.FromInts([]int64{1, 2, 3, 4}),
		vector.FromStrs([]string{"w", "x", "y", "z"}),
	})
}

func TestRelationGatherInto(t *testing.T) {
	r := sampleRel()
	sel := []int32{3, 1}
	dst := &Relation{}
	got := r.GatherInto(dst, sel)
	want := r.Gather(sel)
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("names %v, want %v", got.Names(), want.Names())
	}
	if !reflect.DeepEqual(got.Col(0).Ints(), want.Col(0).Ints()) ||
		!reflect.DeepEqual(got.Col(1).Strs(), want.Col(1).Strs()) {
		t.Fatalf("GatherInto = %v, want %v", got, want)
	}
	// Reuse with a different (narrower) source adapts the schema.
	narrow := NewRelation([]string{"c"}, []*vector.Vector{vector.FromInts([]int64{7, 8})})
	got = narrow.GatherInto(dst, []int32{1})
	if got.NumCols() != 1 || got.Col(0).Ints()[0] != 8 {
		t.Fatalf("reused GatherInto = %v", got)
	}
	// Warmed steady state is allocation free.
	r.GatherInto(dst, sel)
	allocs := testing.AllocsPerRun(100, func() { r.GatherInto(dst, sel) })
	if allocs != 0 {
		t.Fatalf("warmed GatherInto allocates %.1f per run", allocs)
	}
}

func TestRelationCloneInto(t *testing.T) {
	r := sampleRel()
	dst := &Relation{}
	got := r.CloneInto(dst)
	if !reflect.DeepEqual(got.Col(0).Ints(), r.Col(0).Ints()) {
		t.Fatalf("CloneInto = %v, want %v", got, r)
	}
	got.Col(0).Set(0, vector.NewInt(99))
	if r.Col(0).Ints()[0] != 1 {
		t.Fatalf("CloneInto shares storage with source")
	}
}

func TestReshape(t *testing.T) {
	r := &Relation{}
	r.Reshape([]string{"A", "b"}, []vector.Type{vector.Int, vector.Str})
	if !reflect.DeepEqual(r.Names(), []string{"a", "b"}) || r.Len() != 0 {
		t.Fatalf("Reshape: names %v len %d", r.Names(), r.Len())
	}
	r.AppendRow(vector.NewInt(1), vector.NewStr("s"))
	r.Reshape([]string{"x"}, []vector.Type{vector.Float})
	if r.NumCols() != 1 || r.Len() != 0 || r.Col(0).Kind() != vector.Float {
		t.Fatalf("Reshape did not re-schema: %v", r)
	}
}
