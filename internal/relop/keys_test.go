package relop

import (
	"math"
	"slices"
	"testing"

	"datacell/internal/vector"
)

// TestGroupAndJoinKeysEquality pins one equality rule for group and join
// keys of every arity: a string that contains the part separator cannot
// run into its neighbour, -0 equals 0, and all NaNs are one key.
func TestGroupAndJoinKeysEquality(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan2 := math.Float64frombits(0x7ff8000000000001)
	floats := vector.FromFloats([]float64{0, negZero, math.NaN(), nan2})
	ones := vector.FromInts([]int64{1, 1, 1, 1})
	cases := []struct {
		name  string
		keys  []*vector.Vector
		ids   []int32
		pairs int
	}{
		{
			name:  "str parts holding the separator",
			keys:  []*vector.Vector{vector.FromStrs([]string{"x\x1f", "x"}), vector.FromStrs([]string{"y", "\x1fy"})},
			ids:   []int32{0, 1},
			pairs: 2,
		},
		{
			name:  "single float key",
			keys:  []*vector.Vector{floats},
			ids:   []int32{0, 0, 1, 1},
			pairs: 8,
		},
		{
			name:  "composite float key",
			keys:  []*vector.Vector{floats, ones},
			ids:   []int32{0, 0, 1, 1},
			pairs: 8,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.keys[0].Len()
			if got := GroupBy(c.keys, n).GroupIDs; !slices.Equal(got, c.ids) {
				t.Errorf("GroupBy ids = %v, want %v", got, c.ids)
			}
			if l, _ := HashJoinMulti(c.keys, c.keys); len(l) != c.pairs {
				t.Errorf("HashJoinMulti self-join: %d pairs, want %d", len(l), c.pairs)
			}
		})
	}
}

// keysEqual is the row-at-a-time reference for key equality: values of
// one kind compare with == (so -0 equals 0), except that all NaNs are
// equal.
func keysEqual(keys []*vector.Vector, i, j int) bool {
	for _, k := range keys {
		a, b := k.Get(i), k.Get(j)
		if a.Kind == vector.Float && math.IsNaN(a.F) && math.IsNaN(b.F) {
			continue
		}
		if a != b {
			return false
		}
	}
	return true
}

// fuzzKinds and fuzzFloats are the domains FuzzGroupKeys draws from:
// small, so that equal keys are frequent, and holding the values that key
// encodings get wrong. Strings are spelled over "xy\x1e\x1f" for the same
// reason.
var (
	fuzzKinds  = []vector.Type{vector.Int, vector.Float, vector.Str, vector.Bool, vector.Timestamp}
	fuzzFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 1, -1, math.Inf(1), 0.5}
)

// fuzzKeyColumns decodes data into 1–3 aligned key columns: data[0] picks
// the column count, the next bytes the kinds, and the rest the rows, one
// byte per value plus, for a string, one byte per character after its
// length byte. Bytes past the end read as 0.
func fuzzKeyColumns(data []byte) []*vector.Vector {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	keys := make([]*vector.Vector, 1+int(next())%3)
	for c := range keys {
		keys[c] = vector.New(fuzzKinds[int(next())%len(fuzzKinds)], 0)
	}
	for r := 0; r < 64 && len(data) > 0; r++ {
		for _, k := range keys {
			b := next()
			switch k.Kind() {
			case vector.Int:
				k.Append(vector.NewInt(int64(b%5) - 2))
			case vector.Timestamp:
				k.Append(vector.NewTimestampMicros(int64(b%5) - 2))
			case vector.Bool:
				k.Append(vector.NewBool(b&1 == 1))
			case vector.Float:
				k.Append(vector.NewFloat(fuzzFloats[int(b)%len(fuzzFloats)]))
			case vector.Str:
				s := make([]byte, b%4)
				for i := range s {
					s[i] = "xy\x1e\x1f"[next()%4]
				}
				k.Append(vector.NewStr(string(s)))
			}
		}
	}
	return keys
}

// FuzzGroupKeys checks GroupBy and the HashJoinMulti self-join over 1–3
// key columns of mixed kinds against the row-at-a-time reference
// keysEqual: dense ids in order of first appearance, Repr the first row of
// each group, and one join pair per pair of equal rows. The seed corpus
// under testdata/fuzz/FuzzGroupKeys holds the key shapes the textual
// composite key once got wrong.
func FuzzGroupKeys(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := fuzzKeyColumns(data)
		n := keys[0].Len()
		g := GroupBy(keys, n)
		var repr []int32
		pairs := 0
		for i := 0; i < n; i++ {
			first := -1
			for j := 0; j < n; j++ {
				if keysEqual(keys, i, j) {
					pairs++
					if first < 0 {
						first = j
					}
				}
			}
			if first == i {
				repr = append(repr, int32(i))
			}
			if g.GroupIDs[i] != g.GroupIDs[first] {
				t.Fatalf("rows %d and %d are equal but in groups %d and %d (keys %v)", i, first, g.GroupIDs[i], g.GroupIDs[first], keys)
			}
		}
		if !slices.Equal(g.Repr, repr) {
			t.Fatalf("Repr = %v, want %v (keys %v)", g.Repr, repr, keys)
		}
		for i := 0; i < n; i++ {
			if id := g.GroupIDs[i]; int(id) >= len(repr) || !keysEqual(keys, i, int(repr[id])) {
				t.Fatalf("row %d in group %d, whose first row differs (keys %v)", i, id, keys)
			}
		}
		if l, _ := HashJoinMulti(keys, keys); len(l) != pairs {
			t.Fatalf("self-join: %d pairs, want %d (keys %v)", len(l), pairs, keys)
		}
	})
}
