// Package relop provides the vectorized relational operators of the
// column-store kernel: selections producing candidate lists, positional
// projection, hash and theta joins, grouped aggregation, sorting, top-N and
// distinct. Operators work column-at-a-time over vector.Vector values,
// optionally restricted by a candidate list of positions, mirroring the
// MonetDB execution primitives the DataCell reuses.
package relop

import (
	"math"

	"datacell/internal/vector"
)

// CmpOp is a comparison operator code used by predicate selections and
// theta joins.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// SelectPred returns the positions in v (restricted to cand when non-nil)
// whose value compares to val under op. The result is sorted ascending.
func SelectPred(v *vector.Vector, op CmpOp, val vector.Value, cand []int32) []int32 {
	return SelectPredInto(make([]int32, 0, 64), v, op, val, cand)
}

// SelectPredInto is SelectPred appending into dst (overwritten from
// length 0, capacity retained); it returns the possibly grown dst. dst
// must not alias cand.
//
// Over an Int or Timestamp column every comparison IntRange can express
// runs as one SelectIntRangeInto pass. What is left is NE, which keeps
// an exact integer test, and a Float constant IntRange declines (NaN,
// ±Inf, |c| ≥ 2^53), which compares each value as a float64, the way
// the general expression evaluator does.
func SelectPredInto(dst []int32, v *vector.Vector, op CmpOp, val vector.Value, cand []int32) []int32 {
	out := dst[:0]
	switch v.Kind() {
	case vector.Int, vector.Timestamp:
		s := v.Ints()
		val = intOperand(val)
		if lo, hi, ok := IntRange(op, val); ok {
			return SelectIntRangeInto(dst, s, lo, hi, cand)
		}
		if val.Kind == vector.Float {
			x := val.F
			return selectIntsWhere(dst, s, cand, func(e int64) bool { return floatHolds(op, float64(e), x) })
		}
		x := val.I
		return selectIntsWhere(dst, s, cand, func(e int64) bool { return e != x })
	case vector.Float:
		x := val.AsFloat()
		s := v.Floats()
		if cand == nil {
			for i, e := range s {
				if floatHolds(op, e, x) {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, i := range cand {
				if floatHolds(op, s[i], x) {
					out = append(out, i)
				}
			}
		}
	case vector.Bool:
		s := v.Bools()
		if cand == nil {
			for i, e := range s {
				if cmpHolds(op, cmpBool(e, val.B)) {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, i := range cand {
				if cmpHolds(op, cmpBool(s[i], val.B)) {
					out = append(out, i)
				}
			}
		}
	case vector.Str:
		s := v.Strs()
		if cand == nil {
			for i, e := range s {
				if cmpHolds(op, cmpStr(e, val.S)) {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, i := range cand {
				if cmpHolds(op, cmpStr(s[i], val.S)) {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

func floatHolds(op CmpOp, a, b float64) bool {
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

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	default:
		return 1
	}
}

func cmpStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// IntRange lowers the comparison "v op val" over an integer column to the
// closed interval [lo, hi] of the values v that satisfy it; lo > hi means
// no value does. It handles EQ, LT, LE, GT and GE against an Int or
// Timestamp constant, and against a finite Float constant with
// |c| < 2^53, which maps exactly through floor and ceil (v >= 2.5 is
// [3, MaxInt64]; v = 2.5 is empty). In that range float64 comparison,
// which the general evaluator and Value.Compare use, agrees with integer
// comparison for every int64 v. At 2^53 itself it does not (float64(2^53+1)
// rounds to 2^53), so the bound is strict. NE, NaN, ±Inf, larger
// constants and Str or Bool constants return ok=false.
func IntRange(op CmpOp, val vector.Value) (lo, hi int64, ok bool) {
	var x int64 // the constant, or its floor when it is not integral
	frac := false
	switch val.Kind {
	case vector.Int, vector.Timestamp:
		x = val.I
	case vector.Float:
		if !(math.Abs(val.F) < 1<<53) { // also rejects NaN
			return 0, 0, false
		}
		f := math.Floor(val.F)
		x, frac = int64(f), f != val.F
	default:
		return 0, 0, false
	}
	switch op {
	case EQ:
		if frac {
			return 1, 0, true
		}
		return x, x, true
	case LT:
		if frac {
			return math.MinInt64, x, true
		}
		if x == math.MinInt64 {
			return 1, 0, true
		}
		return math.MinInt64, x - 1, true
	case LE:
		return math.MinInt64, x, true
	case GT:
		if x == math.MaxInt64 {
			return 1, 0, true
		}
		return x + 1, math.MaxInt64, true
	case GE:
		if frac {
			return x + 1, math.MaxInt64, true
		}
		return x, math.MaxInt64, true
	}
	return 0, 0, false
}

// SelectIntRangeInto writes into dst the positions of s (restricted to
// cand when non-nil) whose value lies in the closed interval [lo, hi], in
// ascending order, and returns the list. dst is grown only when its
// capacity is short of len(s) (or len(cand)); it must not alias cand.
//
// One branch-free pass: each position is written unconditionally and the
// write cursor advances by the outcome of a single unsigned compare,
// uint64(e-lo) <= uint64(hi-lo), which holds exactly when lo <= e <= hi.
// The cursor update compiles to a conditional move (CMOV on amd64), not
// a jump, so the cost does not depend on selectivity. An empty interval
// yields a non-nil empty list, since a nil list means "unrestricted" to
// every consumer.
func SelectIntRangeInto(dst []int32, s []int64, lo, hi int64, cand []int32) []int32 {
	if lo > hi {
		return selBuf(dst, 0)
	}
	w := uint64(hi) - uint64(lo)
	if cand == nil {
		out := selBuf(dst, len(s))
		n := 0
		for i, e := range s {
			out[n] = int32(i)
			if uint64(e)-uint64(lo) <= w {
				n++
			}
		}
		return out[:n]
	}
	out := selBuf(dst, len(cand))
	n := 0
	for _, i := range cand {
		out[n] = i
		if uint64(s[i])-uint64(lo) <= w {
			n++
		}
	}
	return out[:n]
}

// selectIntsWhere is the per-element fallback of the integer selections
// for the comparisons IntRange cannot express: NE, and Float constants
// outside its exact range.
func selectIntsWhere(dst []int32, s []int64, cand []int32, keep func(int64) bool) []int32 {
	if cand == nil {
		out := selBuf(dst, len(s))
		n := 0
		for i, e := range s {
			out[n] = int32(i)
			if keep(e) {
				n++
			}
		}
		return out[:n]
	}
	out := selBuf(dst, len(cand))
	n := 0
	for _, i := range cand {
		out[n] = i
		if keep(s[i]) {
			n++
		}
	}
	return out[:n]
}

// selBuf returns dst resized to length n, reallocating only when its
// capacity is short, and then at least doubling it as append would, so
// a slowly growing input does not reallocate on every call. The result
// is never nil.
func selBuf(dst []int32, n int) []int32 {
	if dst == nil || cap(dst) < n {
		return make([]int32, n, max(n, 2*cap(dst)))
	}
	return dst[:n]
}

// intOperand is the constant an integer column is compared with. Str and
// Bool constants keep the integer reading AsInt gives them; numeric
// constants pass through for IntRange.
func intOperand(val vector.Value) vector.Value {
	if val.Kind == vector.Str || val.Kind == vector.Bool {
		return vector.NewInt(val.AsInt())
	}
	return val
}

// SelectRange returns the positions whose value lies between lo and hi.
// loIncl/hiIncl control bound inclusivity. This is the MonetDB
// select(b, lo, hi) primitive used by the paper's example factory.
func SelectRange(v *vector.Vector, lo, hi vector.Value, loIncl, hiIncl bool, cand []int32) []int32 {
	return SelectRangeInto(make([]int32, 0, 64), v, lo, hi, loIncl, hiIncl, cand)
}

// SelectRangeInto is SelectRange appending into dst (overwritten from
// length 0, capacity retained); it returns the possibly grown dst. dst
// must not alias cand.
func SelectRangeInto(dst []int32, v *vector.Vector, lo, hi vector.Value, loIncl, hiIncl bool, cand []int32) []int32 {
	out := dst[:0]
	switch v.Kind() {
	case vector.Int, vector.Timestamp:
		lo, hi = intOperand(lo), intOperand(hi)
		loOp, hiOp := GT, LT
		if loIncl {
			loOp = GE
		}
		if hiIncl {
			hiOp = LE
		}
		s := v.Ints()
		l1, h1, ok1 := IntRange(loOp, lo)
		l2, h2, ok2 := IntRange(hiOp, hi)
		if ok1 && ok2 {
			return SelectIntRangeInto(dst, s, max(l1, l2), min(h1, h2), cand)
		}
		l, h := lo.AsFloat(), hi.AsFloat()
		return selectIntsWhere(dst, s, cand, func(e int64) bool {
			return floatHolds(loOp, float64(e), l) && floatHolds(hiOp, float64(e), h)
		})
	case vector.Float:
		l, h := lo.AsFloat(), hi.AsFloat()
		s := v.Floats()
		test := func(e float64) bool {
			if e < l || (e == l && !loIncl) {
				return false
			}
			if e > h || (e == h && !hiIncl) {
				return false
			}
			return true
		}
		if cand == nil {
			for i, e := range s {
				if test(e) {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, i := range cand {
				if test(s[i]) {
					out = append(out, i)
				}
			}
		}
	default:
		lo0, hi0 := lo, hi
		test := func(e vector.Value) bool {
			cl := e.Compare(lo0)
			if cl < 0 || (cl == 0 && !loIncl) {
				return false
			}
			ch := e.Compare(hi0)
			if ch > 0 || (ch == 0 && !hiIncl) {
				return false
			}
			return true
		}
		n := v.Len()
		if cand == nil {
			for i := 0; i < n; i++ {
				if test(v.Get(i)) {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, i := range cand {
				if test(v.Get(int(i))) {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

// SelectBool returns the positions where the bool vector is true.
func SelectBool(v *vector.Vector, cand []int32) []int32 {
	return SelectBoolInto(make([]int32, 0, 64), v, cand)
}

// SelectBoolInto is SelectBool appending into dst (overwritten from
// length 0, capacity retained); it returns the possibly grown dst. dst
// must not alias cand.
func SelectBoolInto(dst []int32, v *vector.Vector, cand []int32) []int32 {
	out := dst[:0]
	s := v.Bools()
	if cand == nil {
		for i, b := range s {
			if b {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range cand {
		if s[i] {
			out = append(out, i)
		}
	}
	return out
}

// CandAll returns the full candidate list [0, n).
func CandAll(n int) []int32 {
	return CandAllInto(make([]int32, 0, n), n)
}

// CandAllInto is CandAll writing into dst (overwritten from length 0,
// capacity retained); it returns the possibly grown dst.
func CandAllInto(dst []int32, n int) []int32 {
	out := dst[:0]
	for i := 0; i < n; i++ {
		out = append(out, int32(i))
	}
	return out
}

// CandOrInto is CandOr appending into dst (overwritten from length 0,
// capacity retained); dst must alias neither input.
func CandOrInto(dst, a, b []int32) []int32 {
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// CandNotInto is CandNot appending into dst (overwritten from length 0,
// capacity retained); dst must not alias a.
func CandNotInto(dst, a []int32, n int) []int32 {
	out := dst[:0]
	j := 0
	for i := int32(0); i < int32(n); i++ {
		if j < len(a) && a[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}

// CandOr unions two ascending candidate lists.
func CandOr(a, b []int32) []int32 {
	return CandOrInto(make([]int32, 0, len(a)+len(b)), a, b)
}

// CandNot complements an ascending candidate list with respect to domain
// [0, n).
func CandNot(a []int32, n int) []int32 {
	return CandNotInto(make([]int32, 0, n-len(a)), a, n)
}
