package expr

import (
	"fmt"
	"strings"

	"datacell/internal/bat"
	"datacell/internal/relop"
	"datacell/internal/vector"
)

// InList is `e IN (v1, v2, …)` over constant values.
type InList struct {
	E      Expr
	Vals   []vector.Value
	Negate bool // NOT IN
}

// NewInList returns an IN-list node.
func NewInList(e Expr, vals []vector.Value, negate bool) *InList {
	return &InList{E: e, Vals: vals, Negate: negate}
}

// Type implements Expr.
func (n *InList) Type(*bat.Relation) (vector.Type, error) { return vector.Bool, nil }

func (n *InList) String() string {
	parts := make([]string, len(n.Vals))
	for i, v := range n.Vals {
		if v.Kind == vector.Str {
			parts[i] = "'" + v.S + "'"
		} else {
			parts[i] = v.String()
		}
	}
	op := " in ("
	if n.Negate {
		op = " not in ("
	}
	return n.E.String() + op + strings.Join(parts, ", ") + ")"
}

// Eval implements Expr.
func (n *InList) Eval(rel *bat.Relation) (*vector.Vector, error) {
	v, err := n.E.Eval(rel)
	if err != nil {
		return nil, err
	}
	out := make([]bool, v.Len())
	switch v.Kind() {
	case vector.Int, vector.Timestamp:
		set := make(map[int64]bool, len(n.Vals))
		for _, val := range n.Vals {
			set[val.AsInt()] = true
		}
		for i, x := range v.Ints() {
			out[i] = set[x] != n.Negate
		}
	case vector.Str:
		set := make(map[string]bool, len(n.Vals))
		for _, val := range n.Vals {
			set[val.S] = true
		}
		for i, x := range v.Strs() {
			out[i] = set[x] != n.Negate
		}
	case vector.Float:
		set := make(map[float64]bool, len(n.Vals))
		for _, val := range n.Vals {
			set[val.AsFloat()] = true
		}
		for i, x := range v.Floats() {
			out[i] = set[x] != n.Negate
		}
	default:
		for i := 0; i < v.Len(); i++ {
			hit := false
			for _, val := range n.Vals {
				if v.Get(i).Equal(val) {
					hit = true
					break
				}
			}
			out[i] = hit != n.Negate
		}
	}
	return vector.FromBools(out), nil
}

// EvalInto implements Expr. IN-lists are set-probe bound, not copy bound,
// so this defers to Eval (no buffer reuse).
func (n *InList) EvalInto(rel *bat.Relation, _ *vector.Vector, _ *Scratch) (*vector.Vector, error) {
	return n.Eval(rel)
}

// Between is `e BETWEEN lo AND hi` (inclusive both ends, SQL semantics).
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

// NewBetween returns a BETWEEN node.
func NewBetween(e, lo, hi Expr, negate bool) *Between {
	return &Between{E: e, Lo: lo, Hi: hi, Negate: negate}
}

// Type implements Expr.
func (n *Between) Type(*bat.Relation) (vector.Type, error) { return vector.Bool, nil }

func (n *Between) String() string {
	op := " between "
	if n.Negate {
		op = " not between "
	}
	return n.E.String() + op + n.Lo.String() + " and " + n.Hi.String()
}

// Eval implements Expr.
func (n *Between) Eval(rel *bat.Relation) (*vector.Vector, error) {
	inner := NewBin(And,
		NewBin(Ge, n.E, n.Lo),
		NewBin(Le, n.E, n.Hi))
	v, err := inner.Eval(rel)
	if err != nil {
		return nil, err
	}
	if n.Negate {
		bs := v.Bools()
		out := make([]bool, len(bs))
		for i, b := range bs {
			out[i] = !b
		}
		return vector.FromBools(out), nil
	}
	return v, nil
}

// EvalInto implements Expr. The hot form of BETWEEN is the candidate-list
// pushdown below; materialised evaluation defers to Eval.
func (n *Between) EvalInto(rel *bat.Relation, _ *vector.Vector, _ *Scratch) (*vector.Vector, error) {
	return n.Eval(rel)
}

// pushdownInto lowers BETWEEN over a column with constant bounds into the
// kernel's range selection, drawing the result buffer from s when given.
// Used by EvalSelectInto.
func (n *Between) pushdownInto(rel *bat.Relation, cand []int32, s *Scratch) ([]int32, bool) {
	col, ok := n.E.(*Col)
	if !ok || n.Negate {
		return nil, false
	}
	lo, ok1 := constOf(n.Lo)
	hi, ok2 := constOf(n.Hi)
	if !ok1 || !ok2 {
		return nil, false
	}
	v := rel.ColByName(col.Name)
	if v == nil {
		return nil, false
	}
	if s == nil {
		return relop.SelectRange(v, lo, hi, true, true, cand), true
	}
	p := s.Sel()
	*p = relop.SelectRangeInto(*p, v, lo, hi, true, true, cand)
	return *p, true
}

// WhenClause is one WHEN…THEN arm of a Case.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression:
//
//	case when c1 then v1 when c2 then v2 … [else ve] end
type Case struct {
	Whens []WhenClause
	Else  Expr // nil means SQL NULL; we require Else for total functions
}

// NewCase returns a CASE node.
func NewCase(whens []WhenClause, els Expr) *Case { return &Case{Whens: whens, Else: els} }

// Type implements Expr.
func (n *Case) Type(rel *bat.Relation) (vector.Type, error) {
	if len(n.Whens) == 0 {
		return 0, fmt.Errorf("expr: case without when arms")
	}
	return n.Whens[0].Then.Type(rel)
}

func (n *Case) String() string {
	var b strings.Builder
	b.WriteString("case")
	for _, w := range n.Whens {
		b.WriteString(" when " + w.Cond.String() + " then " + w.Then.String())
	}
	if n.Else != nil {
		b.WriteString(" else " + n.Else.String())
	}
	b.WriteString(" end")
	return b.String()
}

// Eval implements Expr.
func (n *Case) Eval(rel *bat.Relation) (*vector.Vector, error) {
	if n.Else == nil {
		return nil, fmt.Errorf("expr: case requires an else arm (no null support)")
	}
	out, err := n.Else.Eval(rel)
	if err != nil {
		return nil, err
	}
	out = out.Clone()
	decided := make([]bool, out.Len())
	for _, w := range n.Whens {
		cond, err := w.Cond.Eval(rel)
		if err != nil {
			return nil, err
		}
		if cond.Kind() != vector.Bool {
			return nil, fmt.Errorf("expr: case condition is %s, not bool", cond.Kind())
		}
		val, err := w.Then.Eval(rel)
		if err != nil {
			return nil, err
		}
		cb := cond.Bools()
		for i := range cb {
			if cb[i] && !decided[i] {
				out.Set(i, val.Get(i))
				decided[i] = true
			}
		}
	}
	return out, nil
}

// EvalInto implements Expr; CASE arms are cold, so this defers to Eval.
func (n *Case) EvalInto(rel *bat.Relation, _ *vector.Vector, _ *Scratch) (*vector.Vector, error) {
	return n.Eval(rel)
}

// Like is the SQL LIKE operator with % (any run) and _ (any one char).
type Like struct {
	E       Expr
	Pattern string
	Negate  bool
}

// NewLike returns a LIKE node.
func NewLike(e Expr, pattern string, negate bool) *Like {
	return &Like{E: e, Pattern: pattern, Negate: negate}
}

// Type implements Expr.
func (n *Like) Type(*bat.Relation) (vector.Type, error) { return vector.Bool, nil }

func (n *Like) String() string {
	op := " like '"
	if n.Negate {
		op = " not like '"
	}
	return n.E.String() + op + n.Pattern + "'"
}

// Eval implements Expr.
func (n *Like) Eval(rel *bat.Relation) (*vector.Vector, error) {
	v, err := n.E.Eval(rel)
	if err != nil {
		return nil, err
	}
	if v.Kind() != vector.Str {
		return nil, fmt.Errorf("expr: like over %s column", v.Kind())
	}
	out := make([]bool, v.Len())
	for i, s := range v.Strs() {
		out[i] = likeMatch(s, n.Pattern) != n.Negate
	}
	return vector.FromBools(out), nil
}

// EvalInto implements Expr; pattern matching is match bound, not copy
// bound, so this defers to Eval.
func (n *Like) EvalInto(rel *bat.Relation, _ *vector.Vector, _ *Scratch) (*vector.Vector, error) {
	return n.Eval(rel)
}

// likeMatch implements SQL LIKE with an iterative two-pointer algorithm
// (no backtracking explosion on repeated %).
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
