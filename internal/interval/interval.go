// Package interval implements one-dimensional interval sets over scalar
// values, the value-domain algebra behind predicate/range-aware partition
// routing: the planner derives, for a sargable predicate, the set of
// column values a matching tuple can possibly carry, and the partitioned
// basket routes tuples whose value falls outside that set to a catch-all
// partition that no query clone ever scans.
//
// A Set is a union of disjoint intervals in ascending order. Bounds carry
// open/closed flags and may be unbounded, so every sargable SQL shape
// (col op constant, BETWEEN, IN-lists, OR-unions of ranges) maps onto a
// Set without loss. Membership tests are exact (vector.Value comparison);
// only the equal-measure cut points used for partition placement go
// through float64, which is safe because placement affects load balance,
// never correctness.
package interval

import (
	"sort"
	"strings"

	"datacell/internal/vector"
)

// Bound is one end of an interval.
type Bound struct {
	// Unbounded marks an infinite end (-inf for a low bound, +inf for a
	// high bound); Val and Open are ignored.
	Unbounded bool
	Val       vector.Value
	// Open excludes the bound value itself (strict comparison).
	Open bool
}

// Closed returns a finite inclusive bound.
func Closed(v vector.Value) Bound { return Bound{Val: v} }

// Open returns a finite exclusive bound.
func Open(v vector.Value) Bound { return Bound{Val: v, Open: true} }

// Unbounded returns an infinite bound.
func Unbounded() Bound { return Bound{Unbounded: true} }

// Interval is one contiguous run of values.
type Interval struct {
	Lo, Hi Bound
}

// Point returns the degenerate interval holding exactly v.
func Point(v vector.Value) Interval {
	return Interval{Lo: Closed(v), Hi: Closed(v)}
}

// pos is a totally ordered position on the value line: finite bound
// values nudged by an infinitesimal for open bounds, with -inf and +inf
// at the ends.
type pos struct {
	inf int // -1: -inf, 0: finite, +1: +inf
	val vector.Value
	eps int // -1: just below val, 0: val, +1: just above val
}

// startPos places a low bound: an open low bound starts just above its
// value.
func startPos(b Bound) pos {
	if b.Unbounded {
		return pos{inf: -1}
	}
	if b.Open {
		return pos{val: b.Val, eps: 1}
	}
	return pos{val: b.Val}
}

// endPos places a high bound: an open high bound ends just below its
// value.
func endPos(b Bound) pos {
	if b.Unbounded {
		return pos{inf: 1}
	}
	if b.Open {
		return pos{val: b.Val, eps: -1}
	}
	return pos{val: b.Val}
}

func cmpPos(a, b pos) int {
	if a.inf != b.inf {
		if a.inf < b.inf {
			return -1
		}
		return 1
	}
	if a.inf != 0 {
		return 0
	}
	if c := a.val.Compare(b.val); c != 0 {
		return c
	}
	switch {
	case a.eps < b.eps:
		return -1
	case a.eps > b.eps:
		return 1
	}
	return 0
}

// empty reports whether the interval contains no values. (For discrete
// types an open span like (3,4) over ints is treated as non-empty; the
// algebra is type-agnostic and over-approximation is always safe here.)
func (iv Interval) empty() bool {
	return cmpPos(startPos(iv.Lo), endPos(iv.Hi)) > 0
}

// contains reports whether v lies in the interval.
func (iv Interval) contains(v vector.Value) bool {
	if !iv.Lo.Unbounded {
		c := v.Compare(iv.Lo.Val)
		if c < 0 || (c == 0 && iv.Lo.Open) {
			return false
		}
	}
	if !iv.Hi.Unbounded {
		c := v.Compare(iv.Hi.Val)
		if c > 0 || (c == 0 && iv.Hi.Open) {
			return false
		}
	}
	return true
}

// String renders the interval: [0,10), {42}, (100,+inf).
func (iv Interval) String() string {
	if !iv.Lo.Unbounded && !iv.Hi.Unbounded &&
		!iv.Lo.Open && !iv.Hi.Open && iv.Lo.Val.Equal(iv.Hi.Val) {
		return "{" + iv.Lo.Val.String() + "}"
	}
	var b strings.Builder
	if iv.Lo.Unbounded {
		b.WriteString("(-inf")
	} else if iv.Lo.Open {
		b.WriteString("(" + iv.Lo.Val.String())
	} else {
		b.WriteString("[" + iv.Lo.Val.String())
	}
	b.WriteByte(',')
	if iv.Hi.Unbounded {
		b.WriteString("+inf)")
	} else if iv.Hi.Open {
		b.WriteString(iv.Hi.Val.String() + ")")
	} else {
		b.WriteString(iv.Hi.Val.String() + "]")
	}
	return b.String()
}

// Set is a union of disjoint intervals in ascending order. The zero Set
// is empty (no value belongs to it).
type Set struct {
	ivs []Interval
}

// NewSet builds a normalized set from arbitrary intervals: empty
// intervals are dropped, the rest sorted and overlapping or adjacent
// runs merged.
func NewSet(ivs ...Interval) Set {
	keep := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.empty() {
			keep = append(keep, iv)
		}
	}
	sort.Slice(keep, func(i, j int) bool {
		return cmpPos(startPos(keep[i].Lo), startPos(keep[j].Lo)) < 0
	})
	out := keep[:0]
	for _, iv := range keep {
		if len(out) == 0 {
			out = append(out, iv)
			continue
		}
		last := &out[len(out)-1]
		// Merge when iv starts at or before the position immediately
		// after last's end (overlap, or touching with at least one
		// closed side).
		if mergeable(*last, iv) {
			if cmpPos(endPos(iv.Hi), endPos(last.Hi)) > 0 {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return Set{ivs: append([]Interval(nil), out...)}
}

// mergeable reports whether b (starting at or after a) overlaps or is
// flush against a, so their union is one interval.
func mergeable(a, b Interval) bool {
	if cmpPos(startPos(b.Lo), endPos(a.Hi)) <= 0 {
		return true
	}
	// Touching at one value with at least one closed side: [1,2) ∪ [2,3].
	if !a.Hi.Unbounded && !b.Lo.Unbounded && a.Hi.Val.Equal(b.Lo.Val) &&
		(!a.Hi.Open || !b.Lo.Open) {
		return true
	}
	return false
}

// All reports whether every value belongs to the set (one interval,
// unbounded on both sides) — a vacuous constraint.
func (s Set) All() bool {
	return len(s.ivs) == 1 && s.ivs[0].Lo.Unbounded && s.ivs[0].Hi.Unbounded
}

// Bounded reports whether the set spans a finite range (non-empty, and
// both the lowest low bound and highest high bound are finite).
func (s Set) Bounded() bool {
	return len(s.ivs) > 0 && !s.ivs[0].Lo.Unbounded && !s.ivs[len(s.ivs)-1].Hi.Unbounded
}

// Contains reports whether v belongs to the set, by binary search over
// the disjoint ascending intervals. Comparisons are exact.
func (s Set) Contains(v vector.Value) bool {
	vp := pos{val: v}
	// First interval whose start lies strictly above v; the candidate is
	// its predecessor.
	i := sort.Search(len(s.ivs), func(i int) bool {
		return cmpPos(startPos(s.ivs[i].Lo), vp) > 0
	})
	return i > 0 && s.ivs[i-1].contains(v)
}

// Union returns the set of values in s or o.
func (s Set) Union(o Set) Set {
	return NewSet(append(append([]Interval(nil), s.ivs...), o.ivs...)...)
}

// Intersect returns the set of values in both s and o.
func (s Set) Intersect(o Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		lo := a.Lo
		if cmpPos(startPos(b.Lo), startPos(lo)) > 0 {
			lo = b.Lo
		}
		hi := a.Hi
		if cmpPos(endPos(b.Hi), endPos(hi)) < 0 {
			hi = b.Hi
		}
		if iv := (Interval{Lo: lo, Hi: hi}); !iv.empty() {
			out = append(out, iv)
		}
		// Advance whichever interval ends first.
		if cmpPos(endPos(a.Hi), endPos(b.Hi)) <= 0 {
			i++
		} else {
			j++
		}
	}
	return NewSet(out...)
}

// Measure returns the total numeric length of the set's intervals
// (points contribute zero). ok is false when the set is empty, unbounded,
// or holds non-numeric values, in which case equal-measure cuts are not
// available and placement falls back to hashing.
func (s Set) Measure() (float64, bool) {
	if len(s.ivs) == 0 || !s.Bounded() {
		return 0, false
	}
	total := 0.0
	for _, iv := range s.ivs {
		if !numericKind(iv.Lo.Val.Kind) || !numericKind(iv.Hi.Val.Kind) {
			return 0, false
		}
		total += iv.Hi.Val.AsFloat() - iv.Lo.Val.AsFloat()
	}
	return total, true
}

func numericKind(k vector.Type) bool {
	return k == vector.Int || k == vector.Float || k == vector.Timestamp
}

// Cuts returns p-1 ascending cut points splitting the set's numeric
// measure into p equal slices, for range placement of matching tuples
// across p partitions. ok is false when the set has no usable measure
// (unbounded, non-numeric, or measure zero — e.g. pure IN-lists), in
// which case matching tuples are placed by hash instead.
func (s Set) Cuts(p int) ([]float64, bool) {
	if p < 2 {
		return nil, false
	}
	total, ok := s.Measure()
	if !ok || total <= 0 {
		return nil, false
	}
	cuts := make([]float64, 0, p-1)
	acc := 0.0
	k := 1
	for _, iv := range s.ivs {
		lo, hi := iv.Lo.Val.AsFloat(), iv.Hi.Val.AsFloat()
		length := hi - lo
		for k < p {
			target := float64(k) * total / float64(p)
			if target > acc+length {
				break
			}
			cuts = append(cuts, lo+(target-acc))
			k++
		}
		acc += length
	}
	for k < p {
		// Numeric round-off starved the tail; pad with the top bound.
		cuts = append(cuts, s.ivs[len(s.ivs)-1].Hi.Val.AsFloat())
		k++
	}
	return cuts, true
}

// String renders the set as its intervals joined with " u ", e.g.
// "[0,10) u {42} u (100,+inf)". An empty set renders as "{}".
func (s Set) String() string {
	if len(s.ivs) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " u ")
}
