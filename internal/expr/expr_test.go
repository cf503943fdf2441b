package expr

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

func testRel() *bat.Relation {
	return bat.NewRelation(
		[]string{"a", "b", "f", "s"},
		[]*vector.Vector{
			vector.FromInts([]int64{1, 2, 3, 4}),
			vector.FromInts([]int64{10, 20, 30, 40}),
			vector.FromFloats([]float64{0.5, 1.5, 2.5, 3.5}),
			vector.FromStrs([]string{"w", "x", "y", "z"}),
		},
	)
}

func TestConstEval(t *testing.T) {
	r := testRel()
	v, err := NewConst(vector.NewInt(7)).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 || v.Ints()[3] != 7 {
		t.Errorf("const: %v", v)
	}
}

func TestColEval(t *testing.T) {
	r := testRel()
	v, err := NewCol("b").Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ints()[1] != 20 {
		t.Errorf("col: %v", v)
	}
	if _, err := NewCol("nope").Eval(r); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestArith(t *testing.T) {
	r := testRel()
	cases := []struct {
		e    Expr
		want []int64
	}{
		{NewBin(Add, NewCol("a"), NewCol("b")), []int64{11, 22, 33, 44}},
		{NewBin(Sub, NewCol("b"), NewCol("a")), []int64{9, 18, 27, 36}},
		{NewBin(Mul, NewCol("a"), NewConst(vector.NewInt(3))), []int64{3, 6, 9, 12}},
		{NewBin(Mod, NewCol("b"), NewConst(vector.NewInt(7))), []int64{3, 6, 2, 5}},
	}
	for _, c := range cases {
		v, err := c.e.Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Ints(), c.want) {
			t.Errorf("%s = %v, want %v", c.e, v.Ints(), c.want)
		}
	}
}

func TestDivision(t *testing.T) {
	r := testRel()
	// Integer division truncates, SQL style.
	v, err := NewBin(Div, NewCol("b"), NewConst(vector.NewInt(7))).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != vector.Int || !reflect.DeepEqual(v.Ints(), []int64{1, 2, 4, 5}) {
		t.Errorf("int div: %v", v)
	}
	// Integer division by zero yields zero.
	z := bat.NewRelation([]string{"x"}, []*vector.Vector{vector.FromInts([]int64{0})})
	v, err = NewBin(Div, NewConst(vector.NewInt(1)), NewCol("x")).Eval(z)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ints()[0] != 0 {
		t.Errorf("int div by zero: %v", v.Ints())
	}
	// Float division keeps fractional results; by zero yields NaN.
	v, err = NewBin(Div, NewCol("f"), NewConst(vector.NewFloat(2))).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != vector.Float || v.Floats()[0] != 0.25 {
		t.Errorf("float div: %v", v)
	}
	zf := bat.NewRelation([]string{"x"}, []*vector.Vector{vector.FromFloats([]float64{0})})
	v, err = NewBin(Div, NewConst(vector.NewFloat(1)), NewCol("x")).Eval(zf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v.Floats()[0]) {
		t.Errorf("float div by zero: %v", v.Floats())
	}
}

func TestMixedIntFloatArith(t *testing.T) {
	r := testRel()
	v, err := NewBin(Add, NewCol("a"), NewCol("f")).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != vector.Float || v.Floats()[0] != 1.5 {
		t.Errorf("mixed: %v", v)
	}
}

func TestStringConcat(t *testing.T) {
	r := testRel()
	v, err := NewBin(Add, NewCol("s"), NewConst(vector.NewStr("!"))).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Strs()[0] != "w!" {
		t.Errorf("concat: %v", v.Strs())
	}
	if _, err := NewBin(Mul, NewCol("s"), NewCol("s")).Eval(r); err == nil {
		t.Error("string * string should fail")
	}
}

func TestComparisons(t *testing.T) {
	r := testRel()
	cases := []struct {
		e    Expr
		want []bool
	}{
		{NewBin(Gt, NewCol("a"), NewConst(vector.NewInt(2))), []bool{false, false, true, true}},
		{NewBin(Eq, NewCol("s"), NewConst(vector.NewStr("x"))), []bool{false, true, false, false}},
		{NewBin(Le, NewCol("f"), NewConst(vector.NewFloat(1.5))), []bool{true, true, false, false}},
		{NewBin(Ne, NewCol("a"), NewCol("a")), []bool{false, false, false, false}},
	}
	for _, c := range cases {
		v, err := c.e.Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Bools(), c.want) {
			t.Errorf("%s = %v, want %v", c.e, v.Bools(), c.want)
		}
	}
}

func TestLogicAndNot(t *testing.T) {
	r := testRel()
	e := NewBin(And,
		NewBin(Gt, NewCol("a"), NewConst(vector.NewInt(1))),
		NewBin(Lt, NewCol("a"), NewConst(vector.NewInt(4))))
	v, err := e.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Bools(), []bool{false, true, true, false}) {
		t.Errorf("and: %v", v.Bools())
	}
	e2 := NewBin(Or, e, NewBin(Eq, NewCol("a"), NewConst(vector.NewInt(1))))
	v, err = e2.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Bools(), []bool{true, true, true, false}) {
		t.Errorf("or: %v", v.Bools())
	}
	v, err = NewNot(e2).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Bools(), []bool{false, false, false, true}) {
		t.Errorf("not: %v", v.Bools())
	}
}

func TestNeg(t *testing.T) {
	r := testRel()
	v, err := NewNeg(NewCol("a")).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ints()[2] != -3 {
		t.Errorf("neg: %v", v.Ints())
	}
	v, err = NewNeg(NewCol("f")).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Floats()[0] != -0.5 {
		t.Errorf("neg float: %v", v.Floats())
	}
	if _, err := NewNeg(NewCol("s")).Eval(r); err == nil {
		t.Error("neg of string should fail")
	}
}

func TestCalls(t *testing.T) {
	r := testRel()
	v, err := NewCall("abs", NewNeg(NewCol("a"))).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Ints(), []int64{1, 2, 3, 4}) {
		t.Errorf("abs: %v", v.Ints())
	}
	v, err = NewCall("floor", NewCol("f")).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Floats()[1] != 1.0 {
		t.Errorf("floor: %v", v.Floats())
	}
	v, err = NewCall("sqrt", NewConst(vector.NewFloat(9))).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Floats()[0] != 3 {
		t.Errorf("sqrt: %v", v.Floats())
	}
	v, err = NewCall("greatest", NewCol("a"), NewConst(vector.NewInt(2))).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Ints(), []int64{2, 2, 3, 4}) {
		t.Errorf("greatest: %v", v.Ints())
	}
	if _, err := NewCall("bogus").Eval(r); err == nil {
		t.Error("unknown function should fail")
	}
}

func TestNowInjection(t *testing.T) {
	r := testRel()
	fixed := time.Unix(100, 0)
	c := NewCall("now")
	c.Now = func() time.Time { return fixed }
	v, err := c.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != vector.Timestamp || v.Ints()[0] != fixed.UnixMicro() {
		t.Errorf("now: %v", v)
	}
}

func TestEvalSelectPushdown(t *testing.T) {
	r := testRel()
	// col-vs-const pushdown
	sel, err := EvalSelectInto(NewBin(Gt, NewCol("a"), NewConst(vector.NewInt(2))), r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel, []int32{2, 3}) {
		t.Errorf("pushdown: %v", sel)
	}
	// const-vs-col flips
	sel, err = EvalSelectInto(NewBin(Gt, NewConst(vector.NewInt(2)), NewCol("a")), r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel, []int32{0}) {
		t.Errorf("flipped: %v", sel)
	}
	// conjunction narrows candidates
	e := NewBin(And,
		NewBin(Ge, NewCol("a"), NewConst(vector.NewInt(2))),
		NewBin(Le, NewCol("b"), NewConst(vector.NewInt(30))))
	sel, err = EvalSelectInto(e, r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel, []int32{1, 2}) {
		t.Errorf("and: %v", sel)
	}
	// col-vs-col falls back to bool vector
	sel, err = EvalSelectInto(NewBin(Lt, NewCol("a"), NewCol("b")), r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Errorf("fallback: %v", sel)
	}
	// not
	sel, err = EvalSelectInto(NewNot(NewBin(Gt, NewCol("a"), NewConst(vector.NewInt(2)))), r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel, []int32{0, 1}) {
		t.Errorf("not: %v", sel)
	}
	// negative constant folding through Neg
	sel, err = EvalSelectInto(NewBin(Gt, NewCol("a"), NewNeg(NewConst(vector.NewInt(1)))), r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Errorf("neg const: %v", sel)
	}
}

func TestEvalSelectBoolConst(t *testing.T) {
	r := testRel()
	sel, err := EvalSelectInto(NewConst(vector.NewBool(true)), r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Errorf("true const: %v", sel)
	}
	sel, err = EvalSelectInto(NewConst(vector.NewBool(false)), r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 0 {
		t.Errorf("false const: %v", sel)
	}
}

func TestEvalSelectNonBoolError(t *testing.T) {
	r := testRel()
	if _, err := EvalSelectInto(NewCol("a"), r, nil, nil); err == nil {
		t.Error("non-bool predicate should fail")
	}
}

// Property: the pushdown path and the materialised boolean path agree.
func TestPushdownEquivalenceProperty(t *testing.T) {
	f := func(data []int64, threshold int64) bool {
		r := bat.NewRelation([]string{"x"}, []*vector.Vector{vector.FromInts(data)})
		e := NewBin(Lt, NewCol("x"), NewConst(vector.NewInt(threshold)))
		fast, err := EvalSelectInto(e, r, nil, nil)
		if err != nil {
			return false
		}
		// Force the slow path by wrapping in an opaque comparison of
		// col-vs-col shape: (x < t) = true
		slowE := NewBin(Eq, e, NewConst(vector.NewBool(true)))
		slow, err := EvalSelectInto(slowE, r, nil, nil)
		if err != nil {
			return false
		}
		if len(fast) != len(slow) {
			return false
		}
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTypeInference(t *testing.T) {
	r := testRel()
	cases := []struct {
		e    Expr
		want vector.Type
	}{
		{NewBin(Add, NewCol("a"), NewCol("b")), vector.Int},
		{NewBin(Div, NewCol("a"), NewCol("b")), vector.Int},
		{NewBin(Div, NewCol("a"), NewCol("f")), vector.Float},
		{NewBin(Add, NewCol("a"), NewCol("f")), vector.Float},
		{NewBin(Gt, NewCol("a"), NewCol("b")), vector.Bool},
		{NewCall("now"), vector.Timestamp},
		{NewConst(vector.NewStr("q")), vector.Str},
	}
	for _, c := range cases {
		got, err := c.e.Type(r)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if got != c.want {
			t.Errorf("Type(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := NewBin(And,
		NewBin(Gt, NewCol("a"), NewConst(vector.NewInt(1))),
		NewNot(NewBin(Eq, NewCol("s"), NewConst(vector.NewStr("x")))))
	s := e.String()
	if s != "((a > 1) and not (s = 'x'))" {
		t.Errorf("String() = %q", s)
	}
}
