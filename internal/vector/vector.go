// Package vector implements typed, densely packed columnar vectors.
//
// A Vector holds all values of one attribute for a contiguous run of tuples,
// mirroring the tail column of a MonetDB BAT. Vectors are the unit of work
// for every relational operator in this engine: operators consume whole
// vectors (optionally restricted by a candidate list of positions) and
// produce whole vectors, which is what gives the DataCell its batch-at-a-time
// execution model.
package vector

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the value types a Vector can hold.
type Type uint8

// Supported column types.
const (
	Int Type = iota // 64-bit signed integer
	Float
	Bool
	Str
	Timestamp // microseconds since the Unix epoch, stored as int64
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Str:
		return "string"
	case Timestamp:
		return "timestamp"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType maps a SQL type name to a vector Type.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(s) {
	case "int", "integer", "bigint", "smallint", "tinyint":
		return Int, nil
	case "float", "double", "real", "decimal", "numeric":
		return Float, nil
	case "bool", "boolean", "bit":
		return Bool, nil
	case "string", "varchar", "char", "text", "clob":
		return Str, nil
	case "timestamp", "time", "date":
		return Timestamp, nil
	}
	return Int, fmt.Errorf("vector: unknown type %q", s)
}

// Value is a single scalar of any supported Type. It is the boxed form used
// at the boundaries of the engine (constants in expressions, row
// materialisation for emitters); operators never iterate Values in hot loops.
type Value struct {
	Kind Type
	I    int64 // Int and Timestamp payload
	F    float64
	B    bool
	S    string
}

// NewInt returns an Int Value.
func NewInt(i int64) Value { return Value{Kind: Int, I: i} }

// NewFloat returns a Float Value.
func NewFloat(f float64) Value { return Value{Kind: Float, F: f} }

// NewBool returns a Bool Value.
func NewBool(b bool) Value { return Value{Kind: Bool, B: b} }

// NewStr returns a Str Value.
func NewStr(s string) Value { return Value{Kind: Str, S: s} }

// NewTimestamp returns a Timestamp Value from a time.Time.
func NewTimestamp(t time.Time) Value { return Value{Kind: Timestamp, I: t.UnixMicro()} }

// NewTimestampMicros returns a Timestamp Value from epoch microseconds.
func NewTimestampMicros(us int64) Value { return Value{Kind: Timestamp, I: us} }

// AsFloat converts numeric Values to float64 (Int, Float, Timestamp, Bool).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case Int, Timestamp:
		return float64(v.I)
	case Float:
		return v.F
	case Bool:
		if v.B {
			return 1
		}
		return 0
	}
	return 0
}

// AsInt converts numeric Values to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case Int, Timestamp:
		return v.I
	case Float:
		return int64(v.F)
	case Bool:
		if v.B {
			return 1
		}
		return 0
	}
	return 0
}

// String renders the value in the engine's flat textual interchange format.
func (v Value) String() string {
	switch v.Kind {
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Timestamp:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Bool:
		if v.B {
			return "true"
		}
		return "false"
	case Str:
		return v.S
	}
	return "?"
}

// ParseValue parses the textual interchange format into a Value of type t.
func ParseValue(t Type, s string) (Value, error) {
	switch t {
	case Int, Timestamp:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("vector: parse %s %q: %w", t, s, err)
		}
		return Value{Kind: t, I: i}, nil
	case Float:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Value{}, fmt.Errorf("vector: parse float %q: %w", s, err)
		}
		return NewFloat(f), nil
	case Bool:
		b, err := strconv.ParseBool(strings.TrimSpace(s))
		if err != nil {
			return Value{}, fmt.Errorf("vector: parse bool %q: %w", s, err)
		}
		return NewBool(b), nil
	case Str:
		return NewStr(s), nil
	}
	return Value{}, fmt.Errorf("vector: parse: unknown type %v", t)
}

// Compare orders two Values of the same Kind: -1 if v < o, 0 if equal, 1 if
// v > o. Comparing across numeric kinds (Int/Float/Timestamp) compares the
// numeric magnitude.
func (v Value) Compare(o Value) int {
	if v.Kind == Str || o.Kind == Str {
		return strings.Compare(v.S, o.S)
	}
	if v.Kind == Bool && o.Kind == Bool {
		switch {
		case v.B == o.B:
			return 0
		case o.B:
			return -1
		default:
			return 1
		}
	}
	// Numeric comparison; avoid float round-trip when both are integral.
	if (v.Kind == Int || v.Kind == Timestamp) && (o.Kind == Int || o.Kind == Timestamp) {
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		default:
			return 0
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two Values compare equal.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Vector is a densely packed column of values of a single Type.
// The zero Vector is not usable; construct with New.
type Vector struct {
	kind   Type
	ints   []int64 // backing store for Int and Timestamp
	floats []float64
	bools  []bool
	strs   []string
}

// New returns an empty Vector of type t with capacity hint n.
func New(t Type, n int) *Vector {
	v := &Vector{kind: t}
	switch t {
	case Int, Timestamp:
		v.ints = make([]int64, 0, n)
	case Float:
		v.floats = make([]float64, 0, n)
	case Bool:
		v.bools = make([]bool, 0, n)
	case Str:
		v.strs = make([]string, 0, n)
	}
	return v
}

// Fill returns a vector holding n copies of val. It is the bulk
// materialisation primitive for constant expressions: one typed slice fill
// instead of n boxed Value appends.
func Fill(val Value, n int) *Vector {
	v := &Vector{kind: val.Kind}
	switch val.Kind {
	case Int, Timestamp:
		s := make([]int64, n)
		if val.I != 0 {
			for i := range s {
				s[i] = val.I
			}
		}
		v.ints = s
	case Float:
		s := make([]float64, n)
		if val.F != 0 {
			for i := range s {
				s[i] = val.F
			}
		}
		v.floats = s
	case Bool:
		s := make([]bool, n)
		if val.B {
			for i := range s {
				s[i] = true
			}
		}
		v.bools = s
	case Str:
		s := make([]string, n)
		if val.S != "" {
			for i := range s {
				s[i] = val.S
			}
		}
		v.strs = s
	}
	return v
}

// FillInto overwrites dst with n copies of val, adopting val's kind and
// retaining dst's backing capacity. It is the reuse form of Fill for
// execution arenas. It returns dst.
func FillInto(dst *Vector, val Value, n int) *Vector {
	dst.Reset(val.Kind, n)
	switch val.Kind {
	case Int, Timestamp:
		for i := range dst.ints {
			dst.ints[i] = val.I
		}
	case Float:
		for i := range dst.floats {
			dst.floats[i] = val.F
		}
	case Bool:
		for i := range dst.bools {
			dst.bools[i] = val.B
		}
	case Str:
		for i := range dst.strs {
			dst.strs[i] = val.S
		}
	}
	return dst
}

// FromInts builds an Int vector that takes ownership of s.
func FromInts(s []int64) *Vector { return &Vector{kind: Int, ints: s} }

// FromTimestamps builds a Timestamp vector that takes ownership of s
// (epoch microseconds).
func FromTimestamps(s []int64) *Vector { return &Vector{kind: Timestamp, ints: s} }

// FromFloats builds a Float vector that takes ownership of s.
func FromFloats(s []float64) *Vector { return &Vector{kind: Float, floats: s} }

// FromBools builds a Bool vector that takes ownership of s.
func FromBools(s []bool) *Vector { return &Vector{kind: Bool, bools: s} }

// FromStrs builds a Str vector that takes ownership of s.
func FromStrs(s []string) *Vector { return &Vector{kind: Str, strs: s} }

// Kind returns the element type.
func (v *Vector) Kind() Type { return v.kind }

// Len returns the number of elements.
func (v *Vector) Len() int {
	switch v.kind {
	case Int, Timestamp:
		return len(v.ints)
	case Float:
		return len(v.floats)
	case Bool:
		return len(v.bools)
	case Str:
		return len(v.strs)
	}
	return 0
}

// Ints exposes the backing slice of an Int or Timestamp vector.
// Callers must not append to it.
func (v *Vector) Ints() []int64 { return v.ints }

// Floats exposes the backing slice of a Float vector.
func (v *Vector) Floats() []float64 { return v.floats }

// Bools exposes the backing slice of a Bool vector.
func (v *Vector) Bools() []bool { return v.bools }

// Strs exposes the backing slice of a Str vector.
func (v *Vector) Strs() []string { return v.strs }

// Get returns element i boxed as a Value.
func (v *Vector) Get(i int) Value {
	switch v.kind {
	case Int, Timestamp:
		return Value{Kind: v.kind, I: v.ints[i]}
	case Float:
		return Value{Kind: Float, F: v.floats[i]}
	case Bool:
		return Value{Kind: Bool, B: v.bools[i]}
	case Str:
		return Value{Kind: Str, S: v.strs[i]}
	}
	panic("vector: bad kind")
}

// Set overwrites element i with val (val.Kind must match).
func (v *Vector) Set(i int, val Value) {
	switch v.kind {
	case Int, Timestamp:
		v.ints[i] = val.I
	case Float:
		v.floats[i] = val.F
	case Bool:
		v.bools[i] = val.B
	case Str:
		v.strs[i] = val.S
	}
}

// Append appends val (val.Kind must be assignable to v's kind).
func (v *Vector) Append(val Value) {
	switch v.kind {
	case Int, Timestamp:
		v.ints = append(v.ints, val.AsInt())
	case Float:
		v.floats = append(v.floats, val.AsFloat())
	case Bool:
		v.bools = append(v.bools, val.B)
	case Str:
		v.strs = append(v.strs, val.S)
	}
}

// AppendInt appends a raw int64 to an Int or Timestamp vector.
func (v *Vector) AppendInt(i int64) { v.ints = append(v.ints, i) }

// AppendFloat appends a raw float64 to a Float vector.
func (v *Vector) AppendFloat(f float64) { v.floats = append(v.floats, f) }

// AppendBool appends a raw bool to a Bool vector.
func (v *Vector) AppendBool(b bool) { v.bools = append(v.bools, b) }

// AppendStr appends a raw string to a Str vector.
func (v *Vector) AppendStr(s string) { v.strs = append(v.strs, s) }

// AppendVector appends the whole contents of o (same kind) to v.
func (v *Vector) AppendVector(o *Vector) {
	if o == nil || o.Len() == 0 {
		return
	}
	if v.kind != o.kind && !(numeric(v.kind) && numeric(o.kind)) {
		panic(fmt.Sprintf("vector: append %v to %v", o.kind, v.kind))
	}
	switch v.kind {
	case Int, Timestamp:
		v.ints = append(v.ints, o.ints...)
	case Float:
		v.floats = append(v.floats, o.floats...)
	case Bool:
		v.bools = append(v.bools, o.bools...)
	case Str:
		v.strs = append(v.strs, o.strs...)
	}
}

func numeric(t Type) bool { return t == Int || t == Timestamp }

// Reset re-types v to t and resizes it to n elements, retaining whatever
// backing capacity the vector already owns. The elements are unspecified
// (stale) until the caller overwrites them; Reset exists so execution
// arenas can recycle one vector across firings without reallocating.
func (v *Vector) Reset(t Type, n int) {
	v.kind = t
	v.ints, v.floats, v.bools, v.strs = v.ints[:0], v.floats[:0], v.bools[:0], v.strs[:0]
	// The active backing slice is kept non-nil (a zero-size make costs no
	// allocation) so Reset-built vectors are indistinguishable from
	// New-built ones.
	switch t {
	case Int, Timestamp:
		if cap(v.ints) < n || v.ints == nil {
			v.ints = make([]int64, n)
		} else {
			v.ints = v.ints[:n]
		}
	case Float:
		if cap(v.floats) < n || v.floats == nil {
			v.floats = make([]float64, n)
		} else {
			v.floats = v.floats[:n]
		}
	case Bool:
		if cap(v.bools) < n || v.bools == nil {
			v.bools = make([]bool, n)
		} else {
			v.bools = v.bools[:n]
		}
	case Str:
		if cap(v.strs) < n || v.strs == nil {
			v.strs = make([]string, n)
		} else {
			v.strs = v.strs[:n]
		}
	}
}

// AppendN appends n copies of val (val.Kind must be assignable to v's
// kind). One grow plus one fill instead of n boxed appends; the basket
// uses it to stamp a batch's arrival timestamps in place.
func (v *Vector) AppendN(val Value, n int) {
	switch v.kind {
	case Int, Timestamp:
		v.ints = appendFill(v.ints, val.AsInt(), n)
	case Float:
		v.floats = appendFill(v.floats, val.AsFloat(), n)
	case Bool:
		v.bools = appendFill(v.bools, val.B, n)
	case Str:
		v.strs = appendFill(v.strs, val.S, n)
	}
}

func appendFill[T any](s []T, x T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	fill := s[len(s)-n:]
	for i := range fill {
		fill[i] = x
	}
	return s
}

// Gather returns a new vector with the elements at the given positions, in
// order. It is the positional tuple-reconstruction primitive of the engine.
func (v *Vector) Gather(sel []int32) *Vector {
	out := New(v.kind, len(sel))
	switch v.kind {
	case Int, Timestamp:
		for _, i := range sel {
			out.ints = append(out.ints, v.ints[i])
		}
	case Float:
		for _, i := range sel {
			out.floats = append(out.floats, v.floats[i])
		}
	case Bool:
		for _, i := range sel {
			out.bools = append(out.bools, v.bools[i])
		}
	case Str:
		for _, i := range sel {
			out.strs = append(out.strs, v.strs[i])
		}
	}
	return out
}

// GatherInto overwrites dst with the elements of v at the given positions,
// in order, adopting v's kind and retaining dst's backing capacity. dst
// must not alias v. It is the allocation-free form of Gather used on the
// firing hot path. It returns dst.
func (v *Vector) GatherInto(dst *Vector, sel []int32) *Vector {
	dst.Reset(v.kind, len(sel))
	switch v.kind {
	case Int, Timestamp:
		d := dst.ints
		for k, i := range sel {
			d[k] = v.ints[i]
		}
	case Float:
		d := dst.floats
		for k, i := range sel {
			d[k] = v.floats[i]
		}
	case Bool:
		d := dst.bools
		for k, i := range sel {
			d[k] = v.bools[i]
		}
	case Str:
		d := dst.strs
		for k, i := range sel {
			d[k] = v.strs[i]
		}
	}
	return dst
}

// SliceInto overwrites dst with elements [i, j) of v, adopting v's kind
// and retaining dst's backing capacity. dst must not alias v. It returns
// dst.
func (v *Vector) SliceInto(dst *Vector, i, j int) *Vector {
	dst.Reset(v.kind, 0)
	switch v.kind {
	case Int, Timestamp:
		dst.ints = append(dst.ints, v.ints[i:j]...)
	case Float:
		dst.floats = append(dst.floats, v.floats[i:j]...)
	case Bool:
		dst.bools = append(dst.bools, v.bools[i:j]...)
	case Str:
		dst.strs = append(dst.strs, v.strs[i:j]...)
	}
	return dst
}

// Slice returns a new vector holding elements [i, j). The result shares no
// state with v.
func (v *Vector) Slice(i, j int) *Vector {
	out := New(v.kind, j-i)
	switch v.kind {
	case Int, Timestamp:
		out.ints = append(out.ints, v.ints[i:j]...)
	case Float:
		out.floats = append(out.floats, v.floats[i:j]...)
	case Bool:
		out.bools = append(out.bools, v.bools[i:j]...)
	case Str:
		out.strs = append(out.strs, v.strs[i:j]...)
	}
	return out
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector { return v.Slice(0, v.Len()) }

// Clear empties v, retaining capacity.
func (v *Vector) Clear() {
	v.ints = v.ints[:0]
	v.floats = v.floats[:0]
	v.bools = v.bools[:0]
	v.strs = v.strs[:0]
}

// DeleteSorted removes the elements at the given strictly increasing
// positions with a single left-shifting pass, preserving the relative order
// of survivors. This is the dedicated "remove a set of tuples in one go"
// operator the paper reports as a 20-30% win over composing generic
// operators.
func (v *Vector) DeleteSorted(del []int32) {
	if len(del) == 0 {
		return
	}
	switch v.kind {
	case Int, Timestamp:
		v.ints = deleteSorted(v.ints, del)
	case Float:
		v.floats = deleteSorted(v.floats, del)
	case Bool:
		v.bools = deleteSorted(v.bools, del)
	case Str:
		v.strs = deleteSorted(v.strs, del)
	}
}

func deleteSorted[T any](s []T, del []int32) []T {
	if lo, n := int(del[0]), len(del); int(del[n-1])-lo == n-1 {
		// One contiguous run — FIFO consumption of the whole resident set
		// is the common case — closes with a single block move.
		return s[:lo+copy(s[lo:], s[lo+n:])]
	}
	w := int(del[0]) // first hole
	d := 0
	for r := int(del[0]); r < len(s); r++ {
		if d < len(del) && r == int(del[d]) {
			d++
			continue
		}
		s[w] = s[r]
		w++
	}
	return s[:w]
}

// KeepSorted retains only the elements at the given strictly increasing
// positions (the complement of DeleteSorted).
func (v *Vector) KeepSorted(keep []int32) {
	switch v.kind {
	case Int, Timestamp:
		v.ints = keepSorted(v.ints, keep)
	case Float:
		v.floats = keepSorted(v.floats, keep)
	case Bool:
		v.bools = keepSorted(v.bools, keep)
	case Str:
		v.strs = keepSorted(v.strs, keep)
	}
}

func keepSorted[T any](s []T, keep []int32) []T {
	for w, r := range keep {
		s[w] = s[r]
	}
	return s[:len(keep)]
}

// String renders a short debug representation.
func (v *Vector) String() string {
	n := v.Len()
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%d]{", v.kind, n)
	for i := 0; i < n && i < 8; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Get(i).String())
	}
	if n > 8 {
		b.WriteString(", …")
	}
	b.WriteString("}")
	return b.String()
}
