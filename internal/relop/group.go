package relop

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"datacell/internal/vector"
)

// Grouping is the result of a GroupBy: every input tuple i is assigned the
// dense group id GroupIDs[i]; Repr[g] is the position of the first tuple of
// group g (used to materialise the key columns).
type Grouping struct {
	GroupIDs []int32
	Repr     []int32
}

// NumGroups returns the number of distinct groups.
func (g *Grouping) NumGroups() int { return len(g.Repr) }

// GroupBy computes a dense grouping over one or more aligned key columns.
// With no key columns every tuple falls into a single group 0 (global
// aggregate), provided n > 0. Group ids follow the first occurrence of
// each key in row order, whichever key path is taken.
func GroupBy(keys []*vector.Vector, n int) *Grouping {
	if len(keys) == 0 {
		g := &Grouping{GroupIDs: make([]int32, n)}
		if n > 0 {
			g.Repr = []int32{0}
		}
		return g
	}
	if len(keys) == 1 {
		return groupBySingle(keys[0], n)
	}
	sc := packScratch.Get().(*groupScratch)
	defer packScratch.Put(sc)
	sc.codes = slices.Grow(sc.codes[:0], n)[:n]
	if space, ok := packKeys(sc.codes, keys, n); ok && space <= uint64(max(4*n, 4096)) {
		return groupByCodes(sc, space)
	}
	return groupByBytes(keys, n)
}

// groupScratch is the per-call working memory of packed grouping: one
// code per row and the dense slot table, kept across calls in
// packScratch so a steady stream of small batches allocates only its
// result.
type groupScratch struct {
	codes []uint64
	slots []int32
}

var packScratch = sync.Pool{New: func() any { return new(groupScratch) }}

// packKeys writes into codes (len n) one mixed-radix code per row of the
// key columns: each column contributes (v - min) times the product of the
// spans of the columns before it, so two rows get equal codes exactly
// when every key is equal. It returns the code space, the product of all
// spans (max - min + 1; a Bool column spans 0..1). ok is false, and codes
// are garbage, when a column is not Int, Timestamp or Bool, or when the
// code space does not fit a uint64 (a column covering all 64 bits spans
// 2^64 and never fits).
func packKeys(codes []uint64, keys []*vector.Vector, n int) (space uint64, ok bool) {
	for _, k := range keys {
		switch k.Kind() {
		case vector.Int, vector.Timestamp, vector.Bool:
		default:
			return 0, false
		}
	}
	clear(codes)
	stride := uint64(1)
	for _, k := range keys {
		if k.Kind() == vector.Bool {
			if hi, _ := bits.Mul64(stride, 2); hi != 0 {
				return 0, false
			}
			for i, b := range k.Bools()[:n] {
				if b {
					codes[i] += stride
				}
			}
			stride *= 2
			continue
		}
		vals := k.Ints()[:n]
		if n == 0 {
			continue
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		// Unsigned arithmetic wraps correctly where hi - lo overflows
		// int64; a span of 0 is the full 2^64.
		span := uint64(hi) - uint64(lo) + 1
		if span == 0 {
			return 0, false
		}
		if over, _ := bits.Mul64(stride, span); over != 0 {
			return 0, false
		}
		for i, v := range vals {
			codes[i] += (uint64(v) - uint64(lo)) * stride
		}
		stride *= span
	}
	return stride, true
}

// groupByCodes assigns group ids to packed codes in row order through a
// dense slot table of space entries.
func groupByCodes(sc *groupScratch, space uint64) *Grouping {
	n := len(sc.codes)
	g := &Grouping{GroupIDs: make([]int32, n)}
	// slots[c] holds the id of code c plus one; 0 marks a free slot.
	slots := slices.Grow(sc.slots[:0], int(space))[:space]
	clear(slots)
	for i, c := range sc.codes {
		s := slots[c]
		if s == 0 {
			g.Repr = append(g.Repr, int32(i))
			s = int32(len(g.Repr))
			slots[c] = s
		}
		g.GroupIDs[i] = s - 1
	}
	sc.slots = slots
	return g
}

// groupByBytes groups on the composite byte key of appendKey: the path
// for key sets holding a Float or Str column, and for those whose packed
// code space overflows or is too sparse for a dense slot table of
// max(4n, 4096) entries.
func groupByBytes(keys []*vector.Vector, n int) *Grouping {
	g := &Grouping{GroupIDs: make([]int32, n)}
	ht := make(map[string]int32, 64)
	var key []byte
	for i := 0; i < n; i++ {
		key = appendKey(key[:0], keys, i)
		id, ok := ht[string(key)]
		if !ok {
			id = int32(len(g.Repr))
			ht[string(key)] = id
			g.Repr = append(g.Repr, int32(i))
		}
		g.GroupIDs[i] = id
	}
	return g
}

func groupBySingle(key *vector.Vector, n int) *Grouping {
	g := &Grouping{GroupIDs: make([]int32, n)}
	switch key.Kind() {
	case vector.Int, vector.Timestamp:
		ht := make(map[int64]int32, 64)
		for i, k := range key.Ints() {
			id, ok := ht[k]
			if !ok {
				id = int32(len(g.Repr))
				ht[k] = id
				g.Repr = append(g.Repr, int32(i))
			}
			g.GroupIDs[i] = id
		}
	case vector.Str:
		ht := make(map[string]int32, 64)
		for i, k := range key.Strs() {
			id, ok := ht[k]
			if !ok {
				id = int32(len(g.Repr))
				ht[k] = id
				g.Repr = append(g.Repr, int32(i))
			}
			g.GroupIDs[i] = id
		}
	case vector.Float:
		ht := make(map[uint64]int32, 64)
		for i, f := range key.Floats() {
			k := floatKey(f)
			id, ok := ht[k]
			if !ok {
				id = int32(len(g.Repr))
				ht[k] = id
				g.Repr = append(g.Repr, int32(i))
			}
			g.GroupIDs[i] = id
		}
	case vector.Bool:
		ht := map[bool]int32{}
		for i, k := range key.Bools() {
			id, ok := ht[k]
			if !ok {
				id = int32(len(g.Repr))
				ht[k] = id
				g.Repr = append(g.Repr, int32(i))
			}
			g.GroupIDs[i] = id
		}
	}
	return g
}

// AggKind selects the aggregate function.
type AggKind uint8

// Aggregate functions.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
	// AggAvgSum is the mergeable numerator of AVG: the per-group float64
	// sum accumulated exactly as AggAvg accumulates it, without the final
	// division. Partial-aggregate plans pair it with an AggCount column so
	// a combining merge can re-derive the average; it is never produced by
	// the SQL parser.
	AggAvgSum
)

// String returns the SQL name of the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvgSum:
		return "avg_sum"
	}
	return "?"
}

// Mergeable reports whether per-partition partial states of this aggregate
// combine losslessly: counts and sums add, min/max compare, and avg is
// decomposed into AggAvgSum + AggCount first. (Distinct aggregates are not
// mergeable without shipping whole value sets.)
func (a AggKind) Mergeable() bool {
	switch a {
	case AggCount, AggSum, AggAvg, AggMin, AggMax, AggAvgSum:
		return true
	}
	return false
}

// MergeKind returns the aggregate a combining merge applies to partial
// states of kind a: partial counts and sums add up; min/max stay min/max.
// AVG must be decomposed (AggAvgSum + AggCount) before partials exist, so
// asking for its merge kind is a programming error.
func (a AggKind) MergeKind() AggKind {
	switch a {
	case AggCount, AggSum, AggAvgSum:
		return AggSum
	case AggMin, AggMax:
		return a
	}
	panic("relop: aggregate has no merge kind: " + a.String())
}

// Aggregate computes the aggregate over v per group and returns one value
// per group in group-id order. For AggCount, v may be nil (count(*)).
// Sum/avg over Int produce Int/Float respectively; min/max preserve the
// input type.
func Aggregate(kind AggKind, v *vector.Vector, g *Grouping) *vector.Vector {
	ng := g.NumGroups()
	switch kind {
	case AggCount:
		counts := make([]int64, ng)
		for _, id := range g.GroupIDs {
			counts[id]++
		}
		return vector.FromInts(counts)
	case AggSum:
		if v.Kind() == vector.Float {
			sums := make([]float64, ng)
			for i, x := range v.Floats() {
				sums[g.GroupIDs[i]] += x
			}
			return vector.FromFloats(sums)
		}
		sums := make([]int64, ng)
		for i, x := range v.Ints() {
			sums[g.GroupIDs[i]] += x
		}
		return vector.FromInts(sums)
	case AggAvg:
		sums := make([]float64, ng)
		counts := make([]int64, ng)
		if v.Kind() == vector.Float {
			for i, x := range v.Floats() {
				sums[g.GroupIDs[i]] += x
				counts[g.GroupIDs[i]]++
			}
		} else {
			for i, x := range v.Ints() {
				sums[g.GroupIDs[i]] += float64(x)
				counts[g.GroupIDs[i]]++
			}
		}
		for i := range sums {
			if counts[i] > 0 {
				sums[i] /= float64(counts[i])
			} else {
				sums[i] = math.NaN()
			}
		}
		return vector.FromFloats(sums)
	case AggAvgSum:
		sums := make([]float64, ng)
		if v.Kind() == vector.Float {
			for i, x := range v.Floats() {
				sums[g.GroupIDs[i]] += x
			}
		} else {
			for i, x := range v.Ints() {
				sums[g.GroupIDs[i]] += float64(x)
			}
		}
		return vector.FromFloats(sums)
	case AggMin, AggMax:
		return aggMinMax(kind, v, g)
	}
	panic("relop: unknown aggregate")
}

// CombineAvg finalises a decomposed average: sums holds per-group merged
// AggAvgSum numerators (Float), counts the merged AggCount denominators
// (Int). Division order matches single-pass AggAvg exactly, so when every
// tuple of a group was aggregated by one partition (hash routing) the
// result is bit-identical to the unpartitioned plan.
func CombineAvg(sums, counts *vector.Vector) *vector.Vector {
	out := make([]float64, sums.Len())
	s, c := sums.Floats(), counts.Ints()
	for i := range out {
		if c[i] > 0 {
			out[i] = s[i] / float64(c[i])
		} else {
			out[i] = math.NaN()
		}
	}
	return vector.FromFloats(out)
}

func aggMinMax(kind AggKind, v *vector.Vector, g *Grouping) *vector.Vector {
	ng := g.NumGroups()
	better := func(c int) bool {
		if kind == AggMin {
			return c < 0
		}
		return c > 0
	}
	switch v.Kind() {
	case vector.Int, vector.Timestamp:
		out := make([]int64, ng)
		seen := make([]bool, ng)
		for i, x := range v.Ints() {
			id := g.GroupIDs[i]
			if !seen[id] || (kind == AggMin && x < out[id]) || (kind == AggMax && x > out[id]) {
				out[id] = x
				seen[id] = true
			}
		}
		if v.Kind() == vector.Timestamp {
			return vector.FromTimestamps(out)
		}
		return vector.FromInts(out)
	case vector.Float:
		out := make([]float64, ng)
		seen := make([]bool, ng)
		for i, x := range v.Floats() {
			id := g.GroupIDs[i]
			if !seen[id] || (kind == AggMin && x < out[id]) || (kind == AggMax && x > out[id]) {
				out[id] = x
				seen[id] = true
			}
		}
		return vector.FromFloats(out)
	default:
		out := vector.New(v.Kind(), ng)
		vals := make([]vector.Value, ng)
		seen := make([]bool, ng)
		for i := 0; i < v.Len(); i++ {
			id := g.GroupIDs[i]
			x := v.Get(i)
			if !seen[id] || better(x.Compare(vals[id])) {
				vals[id] = x
				seen[id] = true
			}
		}
		for _, val := range vals {
			out.Append(val)
		}
		return out
	}
}

// Distinct returns, in first-occurrence order, one position per distinct
// composite key of the given aligned columns.
func Distinct(keys []*vector.Vector, n int) []int32 {
	g := GroupBy(keys, n)
	return g.Repr
}
