// Package bat models MonetDB-style Binary Association Tables and the
// relation abstraction built on top of them.
//
// A BAT pairs a virtual, densely ascending head column of object identifiers
// (oids) with a materialised tail column of attribute values. For a relation
// of k attributes there are k BATs whose tails are tuple-order aligned: the
// attribute values of relational tuple t all sit at the same position in
// their respective tails. That alignment is what lets the engine reconstruct
// tuples positionally instead of via joins on stored keys.
package bat

import (
	"fmt"
	"strings"

	"datacell/internal/vector"
)

// OID identifies a tuple within a BAT's head sequence.
type OID = int64

// BAT is a single column: a virtual dense head starting at Hseqbase and a
// materialised tail. The head is never stored; position p in the tail
// corresponds to oid Hseqbase+p.
type BAT struct {
	// Hseqbase is the oid of the first tuple in the tail.
	Hseqbase OID
	// Tail holds the attribute values.
	Tail *vector.Vector
}

// New returns an empty BAT with tail type t and head sequence base 0.
func New(t vector.Type) *BAT {
	return &BAT{Tail: vector.New(t, 0)}
}

// Len returns the number of tuples.
func (b *BAT) Len() int { return b.Tail.Len() }

// Pos translates an oid to a tail position, or -1 if out of range.
func (b *BAT) Pos(o OID) int {
	p := int(o - b.Hseqbase)
	if p < 0 || p >= b.Len() {
		return -1
	}
	return p
}

// Append appends a value, extending the dense head.
func (b *BAT) Append(v vector.Value) { b.Tail.Append(v) }

// DeleteSorted removes the tuples at the given increasing tail positions.
// The head stays dense: surviving tuples are renumbered, exactly like the
// in-place shift operator added to the kernel for the DataCell.
func (b *BAT) DeleteSorted(del []int32) { b.Tail.DeleteSorted(del) }

// Relation is a set of tuple-order aligned columns with attribute names.
// It is the unit exchanged between relational operators, baskets and
// factories. Names are case-insensitive (stored lower-case).
type Relation struct {
	names []string
	cols  []*vector.Vector
}

// NewRelation builds a relation from aligned columns. All columns must have
// equal length.
func NewRelation(names []string, cols []*vector.Vector) *Relation {
	if len(names) != len(cols) {
		panic("bat: names/cols length mismatch")
	}
	r := &Relation{names: make([]string, len(names)), cols: cols}
	for i, n := range names {
		r.names[i] = strings.ToLower(n)
	}
	if len(cols) > 0 {
		n := cols[0].Len()
		for _, c := range cols[1:] {
			if c.Len() != n {
				panic("bat: misaligned columns")
			}
		}
	}
	return r
}

// NewEmptyRelation builds an empty relation with the given schema.
func NewEmptyRelation(names []string, types []vector.Type) *Relation {
	cols := make([]*vector.Vector, len(types))
	for i, t := range types {
		cols[i] = vector.New(t, 0)
	}
	return NewRelation(names, cols)
}

// Names returns the attribute names in column order.
func (r *Relation) Names() []string { return r.names }

// Types returns the column types in column order.
func (r *Relation) Types() []vector.Type {
	ts := make([]vector.Type, len(r.cols))
	for i, c := range r.cols {
		ts[i] = c.Kind()
	}
	return ts
}

// NumCols returns the number of attributes.
func (r *Relation) NumCols() int { return len(r.cols) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if len(r.cols) == 0 {
		return 0
	}
	return r.cols[0].Len()
}

// Col returns column i.
func (r *Relation) Col(i int) *vector.Vector { return r.cols[i] }

// ColIndex resolves an attribute name (case-insensitive; accepts a
// "table.attr" qualifier by matching the suffix) to a column index, or -1.
func (r *Relation) ColIndex(name string) int {
	name = strings.ToLower(name)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		// Prefer an exact qualified match, then fall back to the bare name.
		for j, n := range r.names {
			if n == name {
				return j
			}
		}
		name = name[i+1:]
	}
	for j, n := range r.names {
		if n == name {
			return j
		}
		if k := strings.LastIndexByte(n, '.'); k >= 0 && n[k+1:] == name {
			return j
		}
	}
	return -1
}

// ColByName returns the column for name, or nil.
func (r *Relation) ColByName(name string) *vector.Vector {
	if i := r.ColIndex(name); i >= 0 {
		return r.cols[i]
	}
	return nil
}

// Project returns a relation with only the named columns, in the given
// order. The columns are shared, not copied.
func (r *Relation) Project(names ...string) (*Relation, error) {
	cols := make([]*vector.Vector, len(names))
	for i, n := range names {
		j := r.ColIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("bat: unknown column %q", n)
		}
		cols[i] = r.cols[j]
	}
	return NewRelation(names, cols), nil
}

// Gather returns a new relation with the tuples at the given positions.
func (r *Relation) Gather(sel []int32) *Relation {
	cols := make([]*vector.Vector, len(r.cols))
	for i, c := range r.cols {
		cols[i] = c.Gather(sel)
	}
	return &Relation{names: append([]string(nil), r.names...), cols: cols}
}

// GatherInto overwrites dst with the tuples of r at the given positions,
// adopting r's schema and retaining dst's column capacity. dst must not
// share columns with r. It is the allocation-free form of Gather used by
// execution arenas; a zero-value &Relation{} is a valid (empty) dst. It
// returns dst.
func (r *Relation) GatherInto(dst *Relation, sel []int32) *Relation {
	dst.names = append(dst.names[:0], r.names...)
	dst.cols = sizeCols(dst.cols, len(r.cols))
	for i, c := range r.cols {
		c.GatherInto(dst.cols[i], sel)
	}
	return dst
}

// CloneInto overwrites dst with a deep copy of r, retaining dst's column
// capacity. dst must not share columns with r. It returns dst.
func (r *Relation) CloneInto(dst *Relation) *Relation {
	dst.names = append(dst.names[:0], r.names...)
	dst.cols = sizeCols(dst.cols, len(r.cols))
	for i, c := range r.cols {
		c.SliceInto(dst.cols[i], 0, c.Len())
	}
	return dst
}

// Reshape re-schemas r in place to the given names and types, emptying all
// columns while retaining as much backing capacity as possible. A
// zero-value &Relation{} is a valid receiver; ingest pools use Reshape to
// recycle staging relations across batches.
func (r *Relation) Reshape(names []string, types []vector.Type) {
	r.names = r.names[:0]
	for _, n := range names {
		r.names = append(r.names, strings.ToLower(n))
	}
	r.cols = sizeCols(r.cols, len(types))
	for i, t := range types {
		r.cols[i].Reset(t, 0)
	}
}

// sizeCols grows or truncates a column slice to n entries, allocating
// vectors only for newly added slots.
func sizeCols(cols []*vector.Vector, n int) []*vector.Vector {
	for len(cols) < n {
		cols = append(cols, &vector.Vector{})
	}
	return cols[:n]
}

// AppendRelation appends all tuples of o (schema-compatible by position).
func (r *Relation) AppendRelation(o *Relation) {
	if o.NumCols() != r.NumCols() {
		panic(fmt.Sprintf("bat: append %d cols to %d cols", o.NumCols(), r.NumCols()))
	}
	for i, c := range r.cols {
		c.AppendVector(o.cols[i])
	}
}

// AppendRow appends one tuple given as boxed values in column order.
func (r *Relation) AppendRow(vals ...vector.Value) {
	if len(vals) != len(r.cols) {
		panic("bat: row arity mismatch")
	}
	for i, c := range r.cols {
		c.Append(vals[i])
	}
}

// Row materialises tuple i as boxed values (for emitters and tests).
func (r *Relation) Row(i int) []vector.Value {
	out := make([]vector.Value, len(r.cols))
	for j, c := range r.cols {
		out[j] = c.Get(i)
	}
	return out
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	cols := make([]*vector.Vector, len(r.cols))
	for i, c := range r.cols {
		cols[i] = c.Clone()
	}
	return &Relation{names: append([]string(nil), r.names...), cols: cols}
}

// Clear removes all tuples, retaining the schema.
func (r *Relation) Clear() {
	for _, c := range r.cols {
		c.Clear()
	}
}

// DeleteSorted removes the tuples at the given increasing positions from all
// columns.
func (r *Relation) DeleteSorted(del []int32) {
	for _, c := range r.cols {
		c.DeleteSorted(del)
	}
}

// KeepSorted retains only the tuples at the given increasing positions.
func (r *Relation) KeepSorted(keep []int32) {
	for _, c := range r.cols {
		c.KeepSorted(keep)
	}
}

// Rename returns a relation with the same columns under new names
// (len(names) must equal NumCols). Columns are shared.
func (r *Relation) Rename(names []string) *Relation {
	return NewRelation(names, r.cols)
}

// Qualify returns a relation whose column names are prefixed "alias.name"
// (existing qualifiers are replaced). Columns are shared.
func (r *Relation) Qualify(alias string) *Relation {
	names := make([]string, len(r.names))
	for i, n := range r.names {
		if k := strings.LastIndexByte(n, '.'); k >= 0 {
			n = n[k+1:]
		}
		names[i] = alias + "." + n
	}
	return NewRelation(names, r.cols)
}

// Concat returns a relation with the columns of a followed by the columns
// of b (same tuple count). Used for join results.
func Concat(a, b *Relation) *Relation {
	names := append(append([]string(nil), a.names...), b.names...)
	cols := append(append([]*vector.Vector(nil), a.cols...), b.cols...)
	return NewRelation(names, cols)
}

// String renders a compact table for debugging.
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.names, "\t"))
	sb.WriteByte('\n')
	n := r.Len()
	for i := 0; i < n && i < 20; i++ {
		for j := range r.cols {
			if j > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(r.cols[j].Get(i).String())
		}
		sb.WriteByte('\n')
	}
	if n > 20 {
		fmt.Fprintf(&sb, "… (%d rows)\n", n)
	}
	return sb.String()
}
