package expr

import (
	"reflect"
	"testing"
	"testing/quick"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

func extraRel() *bat.Relation {
	return bat.NewRelation(
		[]string{"x", "s"},
		[]*vector.Vector{
			vector.FromInts([]int64{1, 5, 10, 15}),
			vector.FromStrs([]string{"apple", "apricot", "banana", "cherry"}),
		},
	)
}

func TestInList(t *testing.T) {
	r := extraRel()
	e := NewInList(NewCol("x"), []vector.Value{vector.NewInt(5), vector.NewInt(15)}, false)
	v, err := e.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Bools(), []bool{false, true, false, true}) {
		t.Errorf("in: %v", v.Bools())
	}
	ne := NewInList(NewCol("x"), []vector.Value{vector.NewInt(5)}, true)
	v, err = ne.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Bools(), []bool{true, false, true, true}) {
		t.Errorf("not in: %v", v.Bools())
	}
	se := NewInList(NewCol("s"), []vector.Value{vector.NewStr("banana")}, false)
	v, err = se.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bools()[2] || v.Bools()[0] {
		t.Errorf("str in: %v", v.Bools())
	}
	if e.String() == "" || ne.String() == "" {
		t.Error("empty String")
	}
}

func TestBetween(t *testing.T) {
	r := extraRel()
	e := NewBetween(NewCol("x"), NewConst(vector.NewInt(5)), NewConst(vector.NewInt(10)), false)
	v, err := e.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Bools(), []bool{false, true, true, false}) {
		t.Errorf("between: %v", v.Bools())
	}
	ne := NewBetween(NewCol("x"), NewConst(vector.NewInt(5)), NewConst(vector.NewInt(10)), true)
	v, _ = ne.Eval(r)
	if !reflect.DeepEqual(v.Bools(), []bool{true, false, false, true}) {
		t.Errorf("not between: %v", v.Bools())
	}
}

func TestBetweenPushdownMatchesEval(t *testing.T) {
	f := func(data []int64, lo, hi int64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		r := bat.NewRelation([]string{"x"}, []*vector.Vector{vector.FromInts(data)})
		e := NewBetween(NewCol("x"), NewConst(vector.NewInt(lo)), NewConst(vector.NewInt(hi)), false)
		fast, err := EvalSelectInto(e, r, nil, nil)
		if err != nil {
			return false
		}
		v, err := e.Eval(r)
		if err != nil {
			return false
		}
		slow := []int32{}
		for i, b := range v.Bools() {
			if b {
				slow = append(slow, int32(i))
			}
		}
		return reflect.DeepEqual(append([]int32{}, fast...), slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCase(t *testing.T) {
	r := extraRel()
	e := NewCase([]WhenClause{
		{Cond: NewBin(Lt, NewCol("x"), NewConst(vector.NewInt(5))), Then: NewConst(vector.NewStr("low"))},
		{Cond: NewBin(Lt, NewCol("x"), NewConst(vector.NewInt(12))), Then: NewConst(vector.NewStr("mid"))},
	}, NewConst(vector.NewStr("high")))
	v, err := e.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"low", "mid", "mid", "high"}
	if !reflect.DeepEqual(v.Strs(), want) {
		t.Errorf("case: %v", v.Strs())
	}
	// First matching arm wins even if later arms also match.
	if e.String() == "" {
		t.Error("empty String")
	}
	noElse := &Case{Whens: e.Whens}
	if _, err := noElse.Eval(r); err == nil {
		t.Error("case without else should fail")
	}
}

func TestLike(t *testing.T) {
	r := extraRel()
	cases := []struct {
		pattern string
		want    []bool
	}{
		{"ap%", []bool{true, true, false, false}},
		{"%an%", []bool{false, false, true, false}},
		{"_herry", []bool{false, false, false, true}},
		{"%", []bool{true, true, true, true}},
		{"apple", []bool{true, false, false, false}},
		{"a_", []bool{false, false, false, false}},
	}
	for _, c := range cases {
		e := NewLike(NewCol("s"), c.pattern, false)
		v, err := e.Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Bools(), c.want) {
			t.Errorf("like %q: %v, want %v", c.pattern, v.Bools(), c.want)
		}
	}
	if _, err := NewLike(NewCol("x"), "%", false).Eval(r); err == nil {
		t.Error("like over ints should fail")
	}
}

func TestLikeMatchProperties(t *testing.T) {
	// %s% always matches any s; exact string matches itself.
	f := func(s string) bool {
		if !likeMatch(s, "%") {
			return false
		}
		// Strings containing the wildcards themselves are still fine as
		// subjects.
		return likeMatch(s, s) || containsWild(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func containsWild(s string) bool {
	for _, c := range s {
		if c == '%' || c == '_' {
			return true
		}
	}
	return false
}
