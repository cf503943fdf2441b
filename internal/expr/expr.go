// Package expr defines scalar expressions over relations and their
// vectorized evaluation. Expressions appear in select lists, where clauses
// and basket-expression predicates. Evaluation is column-at-a-time: an
// expression evaluated against a relation of n tuples yields a vector of n
// values. Comparisons against constants are additionally compiled into
// candidate-list selections so that simple predicate windows run as a single
// kernel primitive.
package expr

import (
	"fmt"
	"math"
	"strings"
	"time"

	"datacell/internal/bat"
	"datacell/internal/relop"
	"datacell/internal/vector"
)

// Expr is a scalar expression node.
type Expr interface {
	// Eval evaluates the expression against every tuple of rel.
	Eval(rel *bat.Relation) (*vector.Vector, error)
	// EvalInto evaluates like Eval but without allocating on the steady
	// state: when the node computes a new vector it writes into dst (when
	// non-nil) or a temporary drawn from s (when non-nil), and nodes that
	// only reference existing data (column references) return the shared
	// vector directly. dst must not alias any input column. With dst and s
	// both nil, EvalInto behaves exactly like Eval. Results drawn from s
	// are valid until s.Reset.
	EvalInto(rel *bat.Relation, dst *vector.Vector, s *Scratch) (*vector.Vector, error)
	// Type reports the result type given the input schema.
	Type(rel *bat.Relation) (vector.Type, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// Const is a literal value.
type Const struct{ Val vector.Value }

// NewConst returns a literal expression.
func NewConst(v vector.Value) *Const { return &Const{Val: v} }

// Eval implements Expr.
func (c *Const) Eval(rel *bat.Relation) (*vector.Vector, error) {
	return vector.Fill(c.Val, rel.Len()), nil
}

// EvalInto implements Expr.
func (c *Const) EvalInto(rel *bat.Relation, dst *vector.Vector, s *Scratch) (*vector.Vector, error) {
	if dst == nil && s == nil {
		return c.Eval(rel)
	}
	return vector.FillInto(output(dst, s), c.Val, rel.Len()), nil
}

// Type implements Expr.
func (c *Const) Type(*bat.Relation) (vector.Type, error) { return c.Val.Kind, nil }

func (c *Const) String() string {
	if c.Val.Kind == vector.Str {
		return "'" + c.Val.S + "'"
	}
	return c.Val.String()
}

// Col references an input column by (possibly qualified) name.
type Col struct{ Name string }

// NewCol returns a column reference.
func NewCol(name string) *Col { return &Col{Name: strings.ToLower(name)} }

// Eval implements Expr.
func (c *Col) Eval(rel *bat.Relation) (*vector.Vector, error) {
	v := rel.ColByName(c.Name)
	if v == nil {
		return nil, fmt.Errorf("expr: unknown column %q (have %v)", c.Name, rel.Names())
	}
	return v, nil
}

// EvalInto implements Expr: a column reference returns the shared input
// vector, never copying.
func (c *Col) EvalInto(rel *bat.Relation, _ *vector.Vector, _ *Scratch) (*vector.Vector, error) {
	return c.Eval(rel)
}

// Type implements Expr.
func (c *Col) Type(rel *bat.Relation) (vector.Type, error) {
	v := rel.ColByName(c.Name)
	if v == nil {
		return 0, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return v.Kind(), nil
}

func (c *Col) String() string { return c.Name }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	And
	Or
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "and", "or"}

// String returns the SQL spelling.
func (o BinOp) String() string { return binOpNames[o] }

// IsCmp reports whether o is a comparison operator.
func (o BinOp) IsCmp() bool { return o >= Eq && o <= Ge }

// CmpOp translates a comparison BinOp to the relop code.
func (o BinOp) CmpOp() relop.CmpOp {
	switch o {
	case Eq:
		return relop.EQ
	case Ne:
		return relop.NE
	case Lt:
		return relop.LT
	case Le:
		return relop.LE
	case Gt:
		return relop.GT
	default:
		return relop.GE
	}
}

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// NewBin returns a binary expression node.
func NewBin(op BinOp, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

func (b *Bin) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Type implements Expr.
func (b *Bin) Type(rel *bat.Relation) (vector.Type, error) {
	if b.Op >= Eq {
		return vector.Bool, nil
	}
	lt, err := b.L.Type(rel)
	if err != nil {
		return 0, err
	}
	rt, err := b.R.Type(rel)
	if err != nil {
		return 0, err
	}
	if lt == vector.Float || rt == vector.Float {
		return vector.Float, nil
	}
	if lt == vector.Str || rt == vector.Str {
		if b.Op == Add {
			return vector.Str, nil
		}
		return 0, fmt.Errorf("expr: operator %s not defined on strings", b.Op)
	}
	return lt, nil
}

// Eval implements Expr.
func (b *Bin) Eval(rel *bat.Relation) (*vector.Vector, error) {
	return b.EvalInto(rel, nil, nil)
}

// EvalInto implements Expr.
func (b *Bin) EvalInto(rel *bat.Relation, dst *vector.Vector, s *Scratch) (*vector.Vector, error) {
	l, err := b.L.EvalInto(rel, nil, s)
	if err != nil {
		return nil, err
	}
	r, err := b.R.EvalInto(rel, nil, s)
	if err != nil {
		return nil, err
	}
	n := l.Len()
	if r.Len() != n {
		return nil, fmt.Errorf("expr: operand length mismatch %d vs %d", n, r.Len())
	}
	o := output(dst, s)
	switch {
	case b.Op == And || b.Op == Or:
		o.Reset(vector.Bool, n)
		out := o.Bools()
		lb, rb := l.Bools(), r.Bools()
		if b.Op == And {
			for i := range out {
				out[i] = lb[i] && rb[i]
			}
		} else {
			for i := range out {
				out[i] = lb[i] || rb[i]
			}
		}
		return o, nil
	case b.Op.IsCmp():
		return evalCmpInto(b.Op, l, r, n, o)
	default:
		return evalArithInto(b.Op, l, r, n, o)
	}
}

func evalCmpInto(op BinOp, l, r *vector.Vector, n int, o *vector.Vector) (*vector.Vector, error) {
	o.Reset(vector.Bool, n)
	out := o.Bools()
	c := op.CmpOp()
	lk, rk := l.Kind(), r.Kind()
	switch {
	case isIntKind(lk) && isIntKind(rk):
		ls, rs := l.Ints(), r.Ints()
		for i := range out {
			out[i] = intCmpHolds(c, ls[i], rs[i])
		}
	case lk == vector.Str && rk == vector.Str:
		ls, rs := l.Strs(), r.Strs()
		for i := range out {
			out[i] = cmpHolds(c, strings.Compare(ls[i], rs[i]))
		}
	case lk == vector.Bool && rk == vector.Bool:
		ls, rs := l.Bools(), r.Bools()
		for i := range out {
			out[i] = cmpHolds(c, cmpBools(ls[i], rs[i]))
		}
	default:
		lf, err := asFloats(l)
		if err != nil {
			return nil, err
		}
		rf, err := asFloats(r)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = floatCmpHolds(c, lf[i], rf[i])
		}
	}
	return o, nil
}

func evalArithInto(op BinOp, l, r *vector.Vector, n int, o *vector.Vector) (*vector.Vector, error) {
	lk, rk := l.Kind(), r.Kind()
	if lk == vector.Str || rk == vector.Str {
		if op != Add {
			return nil, fmt.Errorf("expr: operator %s not defined on strings", op)
		}
		o.Reset(vector.Str, n)
		out := o.Strs()
		for i := range out {
			out[i] = l.Get(i).String() + r.Get(i).String()
		}
		return o, nil
	}
	if lk == vector.Float || rk == vector.Float {
		lf, err := asFloats(l)
		if err != nil {
			return nil, err
		}
		rf, err := asFloats(r)
		if err != nil {
			return nil, err
		}
		o.Reset(vector.Float, n)
		out := o.Floats()
		switch op {
		case Add:
			for i := range out {
				out[i] = lf[i] + rf[i]
			}
		case Sub:
			for i := range out {
				out[i] = lf[i] - rf[i]
			}
		case Mul:
			for i := range out {
				out[i] = lf[i] * rf[i]
			}
		case Div:
			for i := range out {
				if rf[i] == 0 {
					out[i] = math.NaN()
				} else {
					out[i] = lf[i] / rf[i]
				}
			}
		case Mod:
			for i := range out {
				out[i] = math.Mod(lf[i], rf[i])
			}
		}
		return o, nil
	}
	kind := vector.Int
	if lk == vector.Timestamp || rk == vector.Timestamp {
		kind = vector.Timestamp
	}
	ls, rs := l.Ints(), r.Ints()
	o.Reset(kind, n)
	out := o.Ints()
	switch op {
	case Add:
		for i := range out {
			out[i] = ls[i] + rs[i]
		}
	case Sub:
		for i := range out {
			out[i] = ls[i] - rs[i]
		}
	case Mul:
		for i := range out {
			out[i] = ls[i] * rs[i]
		}
	case Div:
		// Integer division, SQL style (truncating); division by zero
		// yields zero rather than a fault, matching the silent-filter
		// philosophy of the engine.
		for i := range out {
			if rs[i] != 0 {
				out[i] = ls[i] / rs[i]
			} else {
				out[i] = 0
			}
		}
	case Mod:
		for i := range out {
			if rs[i] == 0 {
				out[i] = 0
			} else {
				out[i] = ls[i] % rs[i]
			}
		}
	}
	return o, nil
}

func isIntKind(t vector.Type) bool { return t == vector.Int || t == vector.Timestamp }

func intCmpHolds(op relop.CmpOp, a, b int64) bool {
	switch op {
	case relop.EQ:
		return a == b
	case relop.NE:
		return a != b
	case relop.LT:
		return a < b
	case relop.LE:
		return a <= b
	case relop.GT:
		return a > b
	default:
		return a >= b
	}
}

func floatCmpHolds(op relop.CmpOp, a, b float64) bool {
	switch op {
	case relop.EQ:
		return a == b
	case relop.NE:
		return a != b
	case relop.LT:
		return a < b
	case relop.LE:
		return a <= b
	case relop.GT:
		return a > b
	default:
		return a >= b
	}
}

func cmpHolds(op relop.CmpOp, c int) bool {
	switch op {
	case relop.EQ:
		return c == 0
	case relop.NE:
		return c != 0
	case relop.LT:
		return c < 0
	case relop.LE:
		return c <= 0
	case relop.GT:
		return c > 0
	default:
		return c >= 0
	}
}

func cmpBools(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	default:
		return 1
	}
}

func asFloats(v *vector.Vector) ([]float64, error) {
	switch v.Kind() {
	case vector.Float:
		return v.Floats(), nil
	case vector.Int, vector.Timestamp:
		ints := v.Ints()
		out := make([]float64, len(ints))
		for i, x := range ints {
			out[i] = float64(x)
		}
		return out, nil
	case vector.Bool:
		bs := v.Bools()
		out := make([]float64, len(bs))
		for i, b := range bs {
			if b {
				out[i] = 1
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("expr: %s not numeric", v.Kind())
}

// Not is logical negation.
type Not struct{ E Expr }

// NewNot returns a negation node.
func NewNot(e Expr) *Not { return &Not{E: e} }

// Eval implements Expr.
func (u *Not) Eval(rel *bat.Relation) (*vector.Vector, error) {
	return u.EvalInto(rel, nil, nil)
}

// EvalInto implements Expr.
func (u *Not) EvalInto(rel *bat.Relation, dst *vector.Vector, s *Scratch) (*vector.Vector, error) {
	v, err := u.E.EvalInto(rel, nil, s)
	if err != nil {
		return nil, err
	}
	in := v.Bools()
	o := output(dst, s)
	o.Reset(vector.Bool, len(in))
	out := o.Bools()
	for i, b := range in {
		out[i] = !b
	}
	return o, nil
}

// Type implements Expr.
func (u *Not) Type(*bat.Relation) (vector.Type, error) { return vector.Bool, nil }

func (u *Not) String() string { return "not " + u.E.String() }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// NewNeg returns an arithmetic negation node.
func NewNeg(e Expr) *Neg { return &Neg{E: e} }

// Eval implements Expr.
func (u *Neg) Eval(rel *bat.Relation) (*vector.Vector, error) {
	return u.EvalInto(rel, nil, nil)
}

// EvalInto implements Expr.
func (u *Neg) EvalInto(rel *bat.Relation, dst *vector.Vector, s *Scratch) (*vector.Vector, error) {
	v, err := u.E.EvalInto(rel, nil, s)
	if err != nil {
		return nil, err
	}
	o := output(dst, s)
	switch v.Kind() {
	case vector.Int, vector.Timestamp:
		in := v.Ints()
		o.Reset(vector.Int, len(in))
		out := o.Ints()
		for i, x := range in {
			out[i] = -x
		}
		return o, nil
	case vector.Float:
		in := v.Floats()
		o.Reset(vector.Float, len(in))
		out := o.Floats()
		for i, x := range in {
			out[i] = -x
		}
		return o, nil
	}
	return nil, fmt.Errorf("expr: cannot negate %s", v.Kind())
}

// Type implements Expr.
func (u *Neg) Type(rel *bat.Relation) (vector.Type, error) { return u.E.Type(rel) }

func (u *Neg) String() string { return "-" + u.E.String() }

// Call is a scalar function call. Supported: now(), abs(x), floor(x),
// ceil(x), round(x), sqrt(x), mod(a,b), least(a,b), greatest(a,b).
type Call struct {
	Name string
	Args []Expr
	// Now supplies the engine clock for now(); if nil, time.Now is used.
	// Injected by the planner so simulated-time runs stay deterministic.
	Now func() time.Time
}

// NewCall returns a function-call node.
func NewCall(name string, args ...Expr) *Call {
	return &Call{Name: strings.ToLower(name), Args: args}
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Type implements Expr.
func (c *Call) Type(rel *bat.Relation) (vector.Type, error) {
	switch c.Name {
	case "now":
		return vector.Timestamp, nil
	case "sqrt":
		return vector.Float, nil
	case "abs", "floor", "ceil", "round", "mod", "least", "greatest":
		if len(c.Args) == 0 {
			return 0, fmt.Errorf("expr: %s needs arguments", c.Name)
		}
		return c.Args[0].Type(rel)
	}
	return 0, fmt.Errorf("expr: unknown function %q", c.Name)
}

// Eval implements Expr.
func (c *Call) Eval(rel *bat.Relation) (*vector.Vector, error) {
	return c.EvalInto(rel, nil, nil)
}

// EvalInto implements Expr.
func (c *Call) EvalInto(rel *bat.Relation, dst *vector.Vector, s *Scratch) (*vector.Vector, error) {
	n := rel.Len()
	switch c.Name {
	case "now":
		nowFn := c.Now
		if nowFn == nil {
			nowFn = time.Now
		}
		return vector.FillInto(output(dst, s), vector.NewTimestampMicros(nowFn().UnixMicro()), n), nil
	case "abs", "floor", "ceil", "round", "sqrt":
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("expr: %s takes 1 argument", c.Name)
		}
		v, err := c.Args[0].EvalInto(rel, nil, s)
		if err != nil {
			return nil, err
		}
		return evalUnaryMath(c.Name, v, output(dst, s))
	case "mod", "least", "greatest":
		if len(c.Args) != 2 {
			return nil, fmt.Errorf("expr: %s takes 2 arguments", c.Name)
		}
		l, err := c.Args[0].EvalInto(rel, nil, s)
		if err != nil {
			return nil, err
		}
		r, err := c.Args[1].EvalInto(rel, nil, s)
		if err != nil {
			return nil, err
		}
		return evalBinaryMath(c.Name, l, r, output(dst, s))
	}
	return nil, fmt.Errorf("expr: unknown function %q", c.Name)
}

func evalUnaryMath(name string, v, o *vector.Vector) (*vector.Vector, error) {
	if v.Kind() == vector.Int || v.Kind() == vector.Timestamp {
		if name == "abs" {
			in := v.Ints()
			o.Reset(vector.Int, len(in))
			out := o.Ints()
			for i, x := range in {
				if x < 0 {
					x = -x
				}
				out[i] = x
			}
			return o, nil
		}
		if name != "sqrt" {
			return v, nil // floor/ceil/round of ints are identities
		}
	}
	fs, err := asFloats(v)
	if err != nil {
		return nil, err
	}
	o.Reset(vector.Float, len(fs))
	out := o.Floats()
	for i, x := range fs {
		switch name {
		case "abs":
			out[i] = math.Abs(x)
		case "floor":
			out[i] = math.Floor(x)
		case "ceil":
			out[i] = math.Ceil(x)
		case "round":
			out[i] = math.Round(x)
		case "sqrt":
			out[i] = math.Sqrt(x)
		}
	}
	return o, nil
}

func evalBinaryMath(name string, l, r, o *vector.Vector) (*vector.Vector, error) {
	if isIntKind(l.Kind()) && isIntKind(r.Kind()) {
		ls, rs := l.Ints(), r.Ints()
		o.Reset(vector.Int, len(ls))
		out := o.Ints()
		for i := range out {
			switch name {
			case "mod":
				if rs[i] != 0 {
					out[i] = ls[i] % rs[i]
				} else {
					out[i] = 0
				}
			case "least":
				out[i] = min(ls[i], rs[i])
			case "greatest":
				out[i] = max(ls[i], rs[i])
			}
		}
		return o, nil
	}
	lf, err := asFloats(l)
	if err != nil {
		return nil, err
	}
	rf, err := asFloats(r)
	if err != nil {
		return nil, err
	}
	o.Reset(vector.Float, len(lf))
	out := o.Floats()
	for i := range out {
		switch name {
		case "mod":
			out[i] = math.Mod(lf[i], rf[i])
		case "least":
			out[i] = math.Min(lf[i], rf[i])
		case "greatest":
			out[i] = math.Max(lf[i], rf[i])
		}
	}
	return o, nil
}

// EvalSelectInto evaluates a boolean expression as a candidate-list
// selection over rel, restricted to cand (nil means all tuples).
// Conjunctions, disjunctions and column-vs-constant comparisons are pushed
// down to the kernel's selection primitives; anything else falls back to
// materialising the boolean vector. Every selection buffer and expression
// temporary comes from s, so steady-state predicate evaluation allocates
// nothing; the returned list is owned by s (valid until s.Reset) unless it
// is cand itself. A nil s allocates fresh buffers instead.
func EvalSelectInto(e Expr, rel *bat.Relation, cand []int32, s *Scratch) ([]int32, error) {
	switch n := e.(type) {
	case *Bin:
		switch {
		case n.Op == And:
			return evalAndInto(n, rel, cand, s)
		case n.Op == Or:
			l, err := EvalSelectInto(n.L, rel, cand, s)
			if err != nil {
				return nil, err
			}
			r, err := EvalSelectInto(n.R, rel, cand, s)
			if err != nil {
				return nil, err
			}
			if s == nil {
				return relop.CandOr(l, r), nil
			}
			p := s.Sel()
			*p = relop.CandOrInto(*p, l, r)
			return *p, nil
		case n.Op.IsCmp():
			if col, konst, op, ok := colConstCmp(n, rel); ok {
				if s == nil {
					return relop.SelectPred(col, op, konst, cand), nil
				}
				p := s.Sel()
				*p = relop.SelectPredInto(*p, col, op, konst, cand)
				return *p, nil
			}
		}
	case *Not:
		inner, err := EvalSelectInto(n.E, rel, cand, s)
		if err != nil {
			return nil, err
		}
		if cand == nil {
			if s == nil {
				return relop.CandNot(inner, rel.Len()), nil
			}
			p := s.Sel()
			*p = relop.CandNotInto(*p, inner, rel.Len())
			return *p, nil
		}
		if s == nil {
			return candDiff(cand, inner), nil
		}
		p := s.Sel()
		*p = candDiffInto(*p, cand, inner)
		return *p, nil
	case *Between:
		if sel, ok := n.pushdownInto(rel, cand, s); ok {
			return sel, nil
		}
	case *Const:
		if n.Val.Kind == vector.Bool && n.Val.B {
			if cand == nil {
				if s == nil {
					return relop.CandAll(rel.Len()), nil
				}
				p := s.Sel()
				*p = relop.CandAllInto(*p, rel.Len())
				return *p, nil
			}
			return cand, nil
		}
		// A false predicate selects nothing. The result must be a non-nil
		// empty list: a nil candidate list means "unrestricted" to every
		// consumer (the kernel selections, the AND chain above, the plan's
		// late-materialisation paths), so returning nil here would turn
		// "no rows" into "all rows".
		return emptySel, nil
	}
	// General fallback: evaluate to a boolean vector then select.
	v, err := e.EvalInto(rel, nil, s)
	if err != nil {
		return nil, err
	}
	if v.Kind() != vector.Bool {
		return nil, fmt.Errorf("expr: predicate %s is %s, not bool", e, v.Kind())
	}
	if s == nil {
		return relop.SelectBool(v, cand), nil
	}
	p := s.Sel()
	*p = relop.SelectBoolInto(*p, v, cand)
	return *p, nil
}

// conjunct is one operand of a flattened AND chain. When it compares an
// Int or Timestamp column with a constant that relop.IntRange can lower,
// col and [lo, hi] hold the column and the interval.
type conjunct struct {
	e      Expr
	col    *vector.Vector
	lo, hi int64
}

// evalAndInto selects a conjunction. Nested ANDs are flattened first. The
// integer col-vs-const comparisons run first, one kernel pass per column:
// every such comparison on one column is folded into the intersection of
// their intervals. The remaining conjuncts then run in order, each on the
// candidates of the one before.
func evalAndInto(n *Bin, rel *bat.Relation, cand []int32, s *Scratch) ([]int32, error) {
	var buf [8]conjunct
	conj := appendConjuncts(buf[:0], n, rel)
	sel := cand
	for i, c := range conj {
		if c.col == nil || fusedEarlier(conj[:i], c.col) {
			continue
		}
		lo, hi := c.lo, c.hi
		for _, d := range conj[i+1:] {
			if d.col == c.col {
				lo, hi = max(lo, d.lo), min(hi, d.hi)
			}
		}
		if s == nil {
			sel = relop.SelectIntRangeInto(nil, c.col.Ints(), lo, hi, sel)
			continue
		}
		p := s.Sel()
		*p = relop.SelectIntRangeInto(*p, c.col.Ints(), lo, hi, sel)
		sel = *p
	}
	for _, c := range conj {
		if c.col != nil {
			continue
		}
		var err error
		if sel, err = EvalSelectInto(c.e, rel, sel, s); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// appendConjuncts appends the operands of the AND tree e to dst, left to
// right, classifying each integer col-vs-const comparison by its interval.
func appendConjuncts(dst []conjunct, e Expr, rel *bat.Relation) []conjunct {
	b, ok := e.(*Bin)
	if ok && b.Op == And {
		dst = appendConjuncts(dst, b.L, rel)
		return appendConjuncts(dst, b.R, rel)
	}
	c := conjunct{e: e}
	if ok && b.Op.IsCmp() {
		if col, konst, op, ok := colConstCmp(b, rel); ok && isIntKind(col.Kind()) {
			if lo, hi, ok := relop.IntRange(op, konst); ok {
				c.col, c.lo, c.hi = col, lo, hi
			}
		}
	}
	return append(dst, c)
}

// fusedEarlier reports whether a conjunct in done already selected col.
func fusedEarlier(done []conjunct, col *vector.Vector) bool {
	for _, d := range done {
		if d.col == col {
			return true
		}
	}
	return false
}

// colConstCmp recognises col-op-const and const-op-col comparisons so they
// can run as kernel selections.
func colConstCmp(b *Bin, rel *bat.Relation) (*vector.Vector, vector.Value, relop.CmpOp, bool) {
	if c, ok := b.L.(*Col); ok {
		if k, ok2 := constOf(b.R); ok2 {
			if v := rel.ColByName(c.Name); v != nil {
				return v, k, b.Op.CmpOp(), true
			}
		}
	}
	if c, ok := b.R.(*Col); ok {
		if k, ok2 := constOf(b.L); ok2 {
			if v := rel.ColByName(c.Name); v != nil {
				// Flip: const op col  ==>  col op' const.
				op := b.Op.CmpOp()
				switch op {
				case relop.LT:
					op = relop.GT
				case relop.LE:
					op = relop.GE
				case relop.GT:
					op = relop.LT
				case relop.GE:
					op = relop.LE
				}
				return v, k, op, true
			}
		}
	}
	return nil, vector.Value{}, 0, false
}

// ConstValue reports the constant an expression folds to (literals and
// negated numeric literals). The planner's sargable-predicate analysis
// uses it to recognise col-op-constant comparisons.
func ConstValue(e Expr) (vector.Value, bool) { return constOf(e) }

func constOf(e Expr) (vector.Value, bool) {
	switch n := e.(type) {
	case *Const:
		return n.Val, true
	case *Neg:
		if v, ok := constOf(n.E); ok {
			switch v.Kind {
			case vector.Int, vector.Timestamp:
				v.I = -v.I
				return v, true
			case vector.Float:
				v.F = -v.F
				return v, true
			}
		}
	}
	return vector.Value{}, false
}

// emptySel is the shared non-nil empty selection: "no rows", as opposed
// to the nil list that means "no restriction". Read only.
var emptySel = make([]int32, 0)

// candDiff returns the entries of a not present in b (both ascending).
func candDiff(a, b []int32) []int32 {
	return candDiffInto(make([]int32, 0, len(a)), a, b)
}

// candDiffInto is candDiff appending into dst (overwritten from length 0);
// dst must alias neither input.
func candDiffInto(dst, a, b []int32) []int32 {
	out := dst[:0]
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}
