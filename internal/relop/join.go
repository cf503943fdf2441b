package relop

import (
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
		ht := make(map[float64][]int32, r.Len())
		for i, k := range r.Floats() {
			ht[k] = append(ht[k], int32(i))
		}
		for i, k := range l.Floats() {
			for _, j := range ht[k] {
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
	for i := 0; i < rn; i++ {
		ht[compositeKey(rkeys, i)] = append(ht[compositeKey(rkeys, i)], int32(i))
	}
	ln := lkeys[0].Len()
	for i := 0; i < ln; i++ {
		for _, j := range ht[compositeKey(lkeys, i)] {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, j)
		}
	}
	return lsel, rsel
}

func compositeKey(keys []*vector.Vector, i int) string {
	var b []byte
	for _, k := range keys {
		b = append(b, k.Get(i).String()...)
		b = append(b, 0x1f)
	}
	return string(b)
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
		set := make(map[float64]struct{}, r.Len())
		for i := 0; i < r.Len(); i++ {
			set[r.Get(i).AsFloat()] = struct{}{}
		}
		for i := 0; i < l.Len(); i++ {
			if _, ok := set[l.Get(i).AsFloat()]; !ok {
				out = append(out, int32(i))
			}
		}
	}
	return out
}

// SemiJoin returns the left positions that have at least one equi-match in
// r (EXISTS / IN semantics over single keys), each at most once.
func SemiJoin(l, r *vector.Vector) []int32 {
	out := make([]int32, 0, l.Len())
	switch l.Kind() {
	case vector.Int, vector.Timestamp:
		set := make(map[int64]struct{}, r.Len())
		for _, k := range r.Ints() {
			set[k] = struct{}{}
		}
		for i, k := range l.Ints() {
			if _, ok := set[k]; ok {
				out = append(out, int32(i))
			}
		}
	case vector.Str:
		set := make(map[string]struct{}, r.Len())
		for _, k := range r.Strs() {
			set[k] = struct{}{}
		}
		for i, k := range l.Strs() {
			if _, ok := set[k]; ok {
				out = append(out, int32(i))
			}
		}
	default:
		set := make(map[float64]struct{}, r.Len())
		for i := 0; i < r.Len(); i++ {
			set[r.Get(i).AsFloat()] = struct{}{}
		}
		for i := 0; i < l.Len(); i++ {
			if _, ok := set[l.Get(i).AsFloat()]; ok {
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
