package relop

import (
	"math"
	"strconv"
	"strings"

	"datacell/internal/vector"
)

// HashJoin computes the equi-join of two key columns and returns the aligned
// position lists (lsel[i], rsel[i]) of matching pairs. The build side is the
// smaller input. Output pairs are ordered by left position, preserving the
// tuple order of the probe side so downstream order-preserving operators keep
// working.
func HashJoin(l, r *vector.Vector) (lsel, rsel []int32) {
	// Build on the right, probe the left, so output is left-ordered.
	switch l.Kind() {
	case vector.Int, vector.Timestamp:
		return hashJoinInts(l.Ints(), r.Ints())
	case vector.Float:
		ht := make(map[uint64][]int32, r.Len())
		for i, k := range r.Floats() {
			ht[floatKey(k)] = append(ht[floatKey(k)], int32(i))
		}
		for i, k := range l.Floats() {
			for _, j := range ht[floatKey(k)] {
				lsel = append(lsel, int32(i))
				rsel = append(rsel, j)
			}
		}
		return lsel, rsel
	case vector.Str:
		ht := make(map[string][]int32, r.Len())
		for i, k := range r.Strs() {
			ht[k] = append(ht[k], int32(i))
		}
		for i, k := range l.Strs() {
			for _, j := range ht[k] {
				lsel = append(lsel, int32(i))
				rsel = append(rsel, j)
			}
		}
		return lsel, rsel
	case vector.Bool:
		var ht [2][]int32
		for i, k := range r.Bools() {
			b := 0
			if k {
				b = 1
			}
			ht[b] = append(ht[b], int32(i))
		}
		for i, k := range l.Bools() {
			b := 0
			if k {
				b = 1
			}
			for _, j := range ht[b] {
				lsel = append(lsel, int32(i))
				rsel = append(rsel, j)
			}
		}
		return lsel, rsel
	}
	return nil, nil
}

func hashJoinInts(l, r []int64) (lsel, rsel []int32) {
	ht := make(map[int64][]int32, len(r))
	for i, k := range r {
		ht[k] = append(ht[k], int32(i))
	}
	lsel = make([]int32, 0, len(l))
	rsel = make([]int32, 0, len(l))
	for i, k := range l {
		for _, j := range ht[k] {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, j)
		}
	}
	return lsel, rsel
}

// HashJoinMulti computes the equi-join over composite keys: lkeys[k] joins
// rkeys[k] for every k. All key columns on a side must be aligned.
func HashJoinMulti(lkeys, rkeys []*vector.Vector) (lsel, rsel []int32) {
	if len(lkeys) == 1 {
		return HashJoin(lkeys[0], rkeys[0])
	}
	// Composite keys are hashed via their textual form; adequate for the
	// moderate key counts of continuous queries.
	rn := rkeys[0].Len()
	ht := make(map[string][]int32, rn)
	var key []byte
	for i := 0; i < rn; i++ {
		key = appendKey(key[:0], rkeys, i)
		ht[string(key)] = append(ht[string(key)], int32(i))
	}
	ln := lkeys[0].Len()
	for i := 0; i < ln; i++ {
		key = appendKey(key[:0], lkeys, i)
		for _, j := range ht[string(key)] {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, j)
		}
	}
	return lsel, rsel
}

// Composite-key bytes: every part ends in keySep. Str parts escape keySep
// and keyEsc behind keyEsc, so no string runs into its neighbour; other
// parts are decimal or literal text that never holds either byte.
const (
	keySep = 0x1f
	keyEsc = 0x1e
)

// appendKey appends the composite key of row i to dst. Two rows get equal
// bytes exactly when every part is equal under the SQL rule that
// single-key grouping and joins use too: -0 equals 0 and all NaNs are one
// value (see floatKey).
func appendKey(dst []byte, keys []*vector.Vector, i int) []byte {
	for _, k := range keys {
		switch k.Kind() {
		case vector.Int, vector.Timestamp:
			dst = strconv.AppendInt(dst, k.Ints()[i], 10)
		case vector.Float:
			f := k.Floats()[i]
			if f == 0 {
				f = 0 // -0 formats as "-0"
			}
			// FormatFloat spells every NaN "NaN".
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		case vector.Bool:
			dst = strconv.AppendBool(dst, k.Bools()[i])
		case vector.Str:
			s := k.Strs()[i]
			if strings.IndexByte(s, keySep) < 0 && strings.IndexByte(s, keyEsc) < 0 {
				dst = append(dst, s...)
				break
			}
			for j := 0; j < len(s); j++ {
				if s[j] == keySep || s[j] == keyEsc {
					dst = append(dst, keyEsc)
				}
				dst = append(dst, s[j])
			}
		}
		dst = append(dst, keySep)
	}
	return dst
}

// floatKey maps a float key to bits that are equal exactly when the keys
// are equal under SQL's rule: -0 equals 0, and every NaN equals every
// other NaN, where a map[float64] keeps each NaN apart.
func floatKey(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return 0x7ff8000000000001
	}
	return math.Float64bits(f)
}

// ThetaJoin computes the join of two columns under an arbitrary comparison
// operator via a nested loop. Used for the benchmark's theta-join queries
// where no hash structure applies.
func ThetaJoin(l, r *vector.Vector, op CmpOp) (lsel, rsel []int32) {
	if op == EQ {
		return HashJoin(l, r)
	}
	ln, rn := l.Len(), r.Len()
	switch l.Kind() {
	case vector.Int, vector.Timestamp:
		ls, rs := l.Ints(), r.Ints()
		for i := 0; i < ln; i++ {
			for j := 0; j < rn; j++ {
				if intHolds(op, ls[i], rs[j]) {
					lsel = append(lsel, int32(i))
					rsel = append(rsel, int32(j))
				}
			}
		}
	case vector.Float:
		ls, rs := l.Floats(), r.Floats()
		for i := 0; i < ln; i++ {
			for j := 0; j < rn; j++ {
				if floatHolds(op, ls[i], rs[j]) {
					lsel = append(lsel, int32(i))
					rsel = append(rsel, int32(j))
				}
			}
		}
	default:
		for i := 0; i < ln; i++ {
			for j := 0; j < rn; j++ {
				if cmpHolds(op, l.Get(i).Compare(r.Get(j))) {
					lsel = append(lsel, int32(i))
					rsel = append(rsel, int32(j))
				}
			}
		}
	}
	return lsel, rsel
}

// AntiJoin returns the left positions that have no equi-match in r
// (NOT EXISTS / NOT IN semantics over single keys).
func AntiJoin(l, r *vector.Vector) []int32 {
	out := make([]int32, 0, l.Len())
	switch l.Kind() {
	case vector.Int, vector.Timestamp:
		set := make(map[int64]struct{}, r.Len())
		for _, k := range r.Ints() {
			set[k] = struct{}{}
		}
		for i, k := range l.Ints() {
			if _, ok := set[k]; !ok {
				out = append(out, int32(i))
			}
		}
	case vector.Str:
		set := make(map[string]struct{}, r.Len())
		for _, k := range r.Strs() {
			set[k] = struct{}{}
		}
		for i, k := range l.Strs() {
			if _, ok := set[k]; !ok {
				out = append(out, int32(i))
			}
		}
	default:
		set := make(map[uint64]struct{}, r.Len())
		for i := 0; i < r.Len(); i++ {
			set[floatKey(r.Get(i).AsFloat())] = struct{}{}
		}
		for i := 0; i < l.Len(); i++ {
			if _, ok := set[floatKey(l.Get(i).AsFloat())]; !ok {
				out = append(out, int32(i))
			}
		}
	}
	return out
}

func intHolds(op CmpOp, a, b int64) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	default:
		return a >= b
	}
}
