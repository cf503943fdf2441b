package relop

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
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

// TestPackedGroupByMatchesBytes checks the packed-code grouping of Int,
// Timestamp and Bool keys against the composite byte key path: the same
// ids and the same first rows. Each case states whether the key columns
// pack and, where they do, the code space, which places it on one side of
// the dense slot table's max(4n, 4096) bound (above it GroupBy takes the
// byte path). The cases run in parallel, so they share the pooled
// scratch.
func TestPackedGroupByMatchesBytes(t *testing.T) {
	cycle := func(n int, vals ...int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = vals[i%len(vals)]
		}
		return out
	}
	upTo := func(n, m int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i % m)
		}
		return out
	}
	ints, ts := vector.FromInts, vector.FromTimestamps
	cases := []struct {
		name   string
		keys   []*vector.Vector
		packed bool
		space  uint64
	}{
		{
			name: "min and max int64 in one column",
			keys: []*vector.Vector{ints([]int64{math.MinInt64, math.MaxInt64, math.MinInt64, 0}), ints([]int64{1, 1, 1, 2})},
		},
		{
			name: "spans whose product overflows",
			keys: []*vector.Vector{ints([]int64{-1 << 40, 1 << 40, 0, -1 << 40}), ints([]int64{-1 << 30, 1 << 30, 0, -1 << 30})},
		},
		{
			name: "half range times a bool overflows",
			keys: []*vector.Vector{ints([]int64{math.MinInt64, -1, math.MinInt64}), vector.FromBools([]bool{true, false, true})},
		},
		{
			name:   "wide span that fits",
			keys:   []*vector.Vector{ints([]int64{-1 << 62, 1 << 62, -1 << 62, 0}), ints([]int64{5, 5, 5, 5})},
			packed: true, space: 1<<63 + 1,
		},
		{
			name: "timestamp bool int, negative values",
			keys: []*vector.Vector{
				ts([]int64{-5, -5, 3, -5, 3, -5}),
				vector.FromBools([]bool{true, false, true, true, true, false}),
				ints([]int64{-1, -1, -7, -1, -7, -2}),
			},
			packed: true, space: 9 * 2 * 7,
		},
		{
			name:   "no rows",
			keys:   []*vector.Vector{ints(nil), vector.FromBools(nil), ts(nil)},
			packed: true, space: 2,
		},
		{
			name:   "dense at 4096 slots",
			keys:   []*vector.Vector{ints(upTo(300, 64)), ints(cycle(300, 0, 63, 7))},
			packed: true, space: 64 * 64,
		},
		{
			name:   "byte path at 4160 slots",
			keys:   []*vector.Vector{ints(upTo(300, 64)), ints(cycle(300, 0, 64, 7))},
			packed: true, space: 64 * 65,
		},
		{
			name:   "dense at 4n slots",
			keys:   []*vector.Vector{ints(upTo(2000, 80)), ints(cycle(2000, 3, 102, 50, 3))},
			packed: true, space: 80 * 100,
		},
		{
			name:   "byte path above 4n slots",
			keys:   []*vector.Vector{ints(upTo(2000, 80)), ints(cycle(2000, 3, 103, 50, 3))},
			packed: true, space: 80 * 101,
		},
		{
			name: "str key keeps the byte path",
			keys: []*vector.Vector{vector.FromStrs([]string{"a", "b", "a"}), ints([]int64{1, 1, 1})},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			n := c.keys[0].Len()
			space, ok := packKeys(make([]uint64, n), c.keys, n)
			if ok != c.packed || (ok && space != c.space) {
				t.Fatalf("packKeys = (%d, %v), want (%d, %v)", space, ok, c.space, c.packed)
			}
			got, want := GroupBy(c.keys, n), groupByBytes(c.keys, n)
			if !slices.Equal(got.GroupIDs, want.GroupIDs) || !slices.Equal(got.Repr, want.Repr) {
				t.Fatalf("GroupBy = %v / %v, byte path = %v / %v", got.GroupIDs, got.Repr, want.GroupIDs, want.Repr)
			}
		})
	}
}

// BenchmarkGroupBy times one grouping of 256 rows: four Int keys whose
// code space takes the dense slot table, four whose space is too sparse
// for it and falls back to the composite byte key, and a Str+Int key set
// on the byte key.
func BenchmarkGroupBy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	col := func(span int64) *vector.Vector {
		v := make([]int64, 256)
		for i := range v {
			v[i] = rng.Int63n(span)
		}
		return vector.FromInts(v)
	}
	strs := make([]string, 256)
	for i := range strs {
		strs[i] = strconv.Itoa(rng.Intn(100))
	}
	for _, c := range []struct {
		name string
		keys []*vector.Vector
	}{
		{"ints=4/dense", []*vector.Vector{col(2), col(2), col(100), col(4)}},
		{"ints=4/sparse", []*vector.Vector{col(1000), col(2), col(100), col(1 << 20)}},
		{"str+int", []*vector.Vector{vector.FromStrs(strs), col(4)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				groupSink = GroupBy(c.keys, 256)
			}
		})
	}
}

// groupSink keeps benchmark results live.
var groupSink *Grouping

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

// fuzzKinds, fuzzInts and fuzzFloats are the domains FuzzGroupKeys draws
// from: small, so that equal keys are frequent, and holding the values
// that key encodings get wrong. The int extremes make packed codes span
// all 64 bits, overflow across columns, or leave the dense slot table.
// Strings are spelled over "xy\x1e\x1f" for the same reason.
var (
	fuzzKinds  = []vector.Type{vector.Int, vector.Float, vector.Str, vector.Bool, vector.Timestamp}
	fuzzInts   = []int64{-2, -1, 0, 1, 2, math.MinInt64, math.MaxInt64, 1 << 32, -1 << 32}
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
				k.Append(vector.NewInt(fuzzInts[int(b)%len(fuzzInts)]))
			case vector.Timestamp:
				k.Append(vector.NewTimestampMicros(fuzzInts[int(b)%len(fuzzInts)]))
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
