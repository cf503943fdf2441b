package vector

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{Int: "int", Float: "float", Bool: "bool", Str: "string", Timestamp: "timestamp"}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	for name, want := range map[string]Type{
		"INT": Int, "integer": Int, "bigint": Int,
		"float": Float, "DOUBLE": Float,
		"bool": Bool, "boolean": Bool,
		"varchar": Str, "text": Str,
		"timestamp": Timestamp,
	} {
		got, err := ParseType(name)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		NewInt(-42), NewFloat(3.5), NewBool(true), NewBool(false),
		NewStr("hello world"), NewTimestampMicros(1234567890),
	}
	for _, v := range vals {
		s := v.String()
		got, err := ParseValue(v.Kind, s)
		if err != nil {
			t.Fatalf("ParseValue(%v, %q): %v", v.Kind, s, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %q -> %v", v, s, got)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, tc := range []struct {
		t Type
		s string
	}{{Int, "abc"}, {Float, "x"}, {Bool, "maybe"}, {Timestamp, "12:00"}} {
		if _, err := ParseValue(tc.t, tc.s); err == nil {
			t.Errorf("ParseValue(%v, %q) should fail", tc.t, tc.s)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewStr("a"), NewStr("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NewTimestampMicros(5), NewTimestampMicros(9), -1},
		{NewTimestampMicros(5), NewInt(5), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestVectorAppendGet(t *testing.T) {
	v := New(Int, 0)
	for i := int64(0); i < 100; i++ {
		v.AppendInt(i * 2)
	}
	if v.Len() != 100 {
		t.Fatalf("Len = %d", v.Len())
	}
	if got := v.Get(50); got.I != 100 {
		t.Errorf("Get(50) = %v", got)
	}
	v.Set(50, NewInt(-1))
	if got := v.Get(50); got.I != -1 {
		t.Errorf("after Set, Get(50) = %v", got)
	}
}

func TestVectorAllKinds(t *testing.T) {
	for _, k := range []Type{Int, Float, Bool, Str, Timestamp} {
		v := New(k, 4)
		var vals []Value
		switch k {
		case Int:
			vals = []Value{NewInt(1), NewInt(2)}
		case Float:
			vals = []Value{NewFloat(1.5), NewFloat(-2.5)}
		case Bool:
			vals = []Value{NewBool(true), NewBool(false)}
		case Str:
			vals = []Value{NewStr("x"), NewStr("y")}
		case Timestamp:
			vals = []Value{NewTimestamp(time.Unix(1, 0)), NewTimestampMicros(77)}
		}
		for _, val := range vals {
			v.Append(val)
		}
		if v.Len() != len(vals) {
			t.Fatalf("%v: Len = %d", k, v.Len())
		}
		for i, val := range vals {
			if !v.Get(i).Equal(val) {
				t.Errorf("%v: Get(%d) = %v, want %v", k, i, v.Get(i), val)
			}
		}
		c := v.Clone()
		c.Clear()
		if c.Len() != 0 || v.Len() != len(vals) {
			t.Errorf("%v: Clear on clone affected original", k)
		}
	}
}

func TestGather(t *testing.T) {
	v := FromInts([]int64{10, 20, 30, 40, 50})
	g := v.Gather([]int32{4, 0, 2})
	want := []int64{50, 10, 30}
	if !reflect.DeepEqual(g.Ints(), want) {
		t.Errorf("Gather = %v, want %v", g.Ints(), want)
	}
}

func TestSliceIsCopy(t *testing.T) {
	v := FromInts([]int64{1, 2, 3, 4})
	s := v.Slice(1, 3)
	s.Set(0, NewInt(99))
	if v.Get(1).I != 2 {
		t.Error("Slice shares storage with original")
	}
	if !reflect.DeepEqual(s.Ints(), []int64{99, 3}) {
		t.Errorf("slice contents = %v", s.Ints())
	}
}

func TestAppendVector(t *testing.T) {
	a := FromInts([]int64{1, 2})
	b := FromInts([]int64{3, 4})
	a.AppendVector(b)
	if !reflect.DeepEqual(a.Ints(), []int64{1, 2, 3, 4}) {
		t.Errorf("AppendVector = %v", a.Ints())
	}
	a.AppendVector(nil)
	if a.Len() != 4 {
		t.Error("AppendVector(nil) changed length")
	}
}

// naiveDelete keeps every element whose position is not in del.
func naiveDelete[T any](s []T, del []int32) []T {
	out := []T{}
	for i, x := range s {
		if !slices.Contains(del, int32(i)) {
			out = append(out, x)
		}
	}
	return out
}

// TestDeleteSorted checks position lists over ten elements against the
// naive reference: contiguous runs, which take the one-move path, and
// scattered lists, which do not.
func TestDeleteSorted(t *testing.T) {
	cases := []struct {
		name string
		del  []int32
	}{
		{"none", []int32{}},
		{"prefix", []int32{0, 1, 2, 3}},
		{"middle", []int32{3, 4, 5}},
		{"suffix", []int32{7, 8, 9}},
		{"whole", []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"single-first", []int32{0}},
		{"single-middle", []int32{5}},
		{"single-last", []int32{9}},
		{"scattered", []int32{1, 4, 8}},
		{"alternate", []int32{0, 2, 4, 6, 8}},
		{"run-plus-straggler", []int32{2, 3, 4, 7}},
	}
	ints := []int64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	strs := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, c := range cases {
		vi, vs := FromInts(slices.Clone(ints)), FromStrs(slices.Clone(strs))
		vi.DeleteSorted(c.del)
		vs.DeleteSorted(c.del)
		if want := naiveDelete(ints, c.del); !slices.Equal(vi.Ints(), want) {
			t.Errorf("%s: ints %v, want %v", c.name, vi.Ints(), want)
		}
		if want := naiveDelete(strs, c.del); !slices.Equal(vs.Strs(), want) {
			t.Errorf("%s: strs %v, want %v", c.name, vs.Strs(), want)
		}
	}
}

func TestKeepSorted(t *testing.T) {
	v := FromStrs([]string{"a", "b", "c", "d"})
	v.KeepSorted([]int32{1, 3})
	if !reflect.DeepEqual(v.Strs(), []string{"b", "d"}) {
		t.Errorf("KeepSorted = %v", v.Strs())
	}
}

// Property: DeleteSorted(del) followed by nothing equals KeepSorted of the
// complement, for random delete sets.
func TestDeleteKeepComplementProperty(t *testing.T) {
	f := func(data []int64, mask []bool) bool {
		n := len(data)
		var del, keep []int32
		for i := 0; i < n; i++ {
			if i < len(mask) && mask[i] {
				del = append(del, int32(i))
			} else {
				keep = append(keep, int32(i))
			}
		}
		a := FromInts(append([]int64(nil), data...))
		b := FromInts(append([]int64(nil), data...))
		a.DeleteSorted(del)
		b.KeepSorted(keep)
		return reflect.DeepEqual(a.Ints(), b.Ints())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Gather(sel).Get(i) == Get(sel[i]) for any valid selection.
func TestGatherProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(data []float64) bool {
		if len(data) == 0 {
			return true
		}
		v := FromFloats(data)
		sel := make([]int32, 32)
		for i := range sel {
			sel[i] = int32(rng.Intn(len(data)))
		}
		g := v.Gather(sel)
		for i, p := range sel {
			if g.Floats()[i] != data[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: DeleteSorted preserves the relative order of survivors.
func TestDeleteSortedOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]int64, int(n)+1)
		for i := range data {
			data[i] = int64(i) // identity so order is checkable
		}
		delSet := map[int32]bool{}
		for i := 0; i < len(data)/2; i++ {
			delSet[int32(rng.Intn(len(data)))] = true
		}
		del := make([]int32, 0, len(delSet))
		for k := range delSet {
			del = append(del, k)
		}
		sort.Slice(del, func(i, j int) bool { return del[i] < del[j] })
		v := FromInts(append([]int64(nil), data...))
		v.DeleteSorted(del)
		out := v.Ints()
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				return false
			}
		}
		return len(out) == len(data)-len(del)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVectorString(t *testing.T) {
	v := FromInts([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	s := v.String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestFill(t *testing.T) {
	cases := []struct {
		val  Value
		n    int
		want string
	}{
		{NewInt(7), 3, "7"},
		{NewFloat(2.5), 2, "2.5"},
		{NewBool(true), 4, "true"},
		{NewStr("x"), 2, "x"},
		{NewTimestampMicros(99), 1, "99"},
		{NewInt(0), 5, "0"},
	}
	for _, tc := range cases {
		v := Fill(tc.val, tc.n)
		if v.Kind() != tc.val.Kind || v.Len() != tc.n {
			t.Fatalf("Fill(%v, %d): kind %v len %d", tc.val, tc.n, v.Kind(), v.Len())
		}
		for i := 0; i < tc.n; i++ {
			if got := v.Get(i).String(); got != tc.want {
				t.Errorf("Fill(%v, %d)[%d] = %q, want %q", tc.val, tc.n, i, got, tc.want)
			}
		}
	}
	if v := Fill(NewStr("e"), 0); v.Len() != 0 {
		t.Errorf("Fill with n=0 has length %d", v.Len())
	}
}
