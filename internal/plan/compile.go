package plan

import (
	"fmt"
	"strings"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/core"
	"datacell/internal/expr"
	"datacell/internal/sql"
	"datacell/internal/vector"
)

// Compiled is the result of compiling one statement. Continuous statements
// carry a Factory to register with the scheduler and the Out basket where
// results accumulate; DDL and one-time statements execute immediately
// inside Compile and carry neither.
type Compiled struct {
	Name    string
	Factory *core.Factory
	Out     *basket.Basket
	// Result holds the rows of an immediately executed one-time query.
	Result *bat.Relation
}

// Compile translates a parsed statement against the catalog. Continuous
// queries (those containing basket expressions) become factories; create,
// declare, set and one-time queries take effect immediately.
func Compile(cat *Catalog, stmt sql.Statement, name string) (*Compiled, error) {
	switch s := stmt.(type) {
	case *sql.CreateStmt:
		names := make([]string, len(s.Cols))
		types := make([]vector.Type, len(s.Cols))
		for i, c := range s.Cols {
			names[i] = c.Name
			types[i] = c.Type
		}
		kind := KindBasket
		if s.Kind == "table" {
			kind = KindTable
		}
		b, err := cat.CreateBasket(s.Name, names, types, kind)
		if err != nil {
			return nil, err
		}
		return &Compiled{Name: name, Out: b}, nil

	case *sql.DeclareStmt:
		cat.DeclareVar(s.Name, s.Type)
		return &Compiled{Name: name}, nil

	case *sql.SetStmt:
		if err := execSet(cat, newEnv(cat), s); err != nil {
			return nil, err
		}
		return &Compiled{Name: name}, nil

	case *sql.SelectStmt:
		if !s.IsContinuous() {
			rel, err := ExecuteQuery(cat, s)
			if err != nil {
				return nil, err
			}
			return &Compiled{Name: name, Result: rel}, nil
		}
		return compileContinuousSelect(cat, s, name, "", nil)

	case *sql.InsertStmt:
		if !s.Query.IsContinuous() {
			rel, err := ExecuteQuery(cat, s.Query)
			if err != nil {
				return nil, err
			}
			target, err := ensureTarget(cat, s.Target, s.Cols, rel)
			if err != nil {
				return nil, err
			}
			rel, err = conformToTarget(rel, target, s.Cols)
			if err != nil {
				return nil, err
			}
			if _, err := target.Append(rel); err != nil {
				return nil, err
			}
			return &Compiled{Name: name, Out: target}, nil
		}
		return compileContinuousInsert(cat, s, name)

	case *sql.WithBlock:
		return compileWithBlock(cat, s, name)
	}
	return nil, fmt.Errorf("plan: cannot compile %T", stmt)
}

// ExecuteQuery runs a one-time (non-continuous) select immediately,
// locking the referenced baskets for the duration.
func ExecuteQuery(cat *Catalog, s *sql.SelectStmt) (*bat.Relation, error) {
	refs := collectBaskets(cat, s)
	unlock := lockAll(refs)
	defer unlock()
	return newEnv(cat).execSelect(s)
}

func execSet(cat *Catalog, e *env, s *sql.SetStmt) error {
	refs := collectExprBaskets(cat, s.Value)
	if len(refs) > 0 && !insideFiring(e) {
		unlock := lockAll(refs)
		defer unlock()
	}
	rx, err := e.resolve(s.Value, nil)
	if err != nil {
		return err
	}
	one := bat.NewRelation([]string{"__one"}, []*vector.Vector{vector.FromInts([]int64{0})})
	v, err := rx.Eval(one)
	if err != nil {
		return err
	}
	if v.Len() == 0 {
		return fmt.Errorf("plan: set %s: empty value", s.Name)
	}
	cat.SetVar(s.Name, v.Get(0))
	return nil
}

// insideFiring reports whether the env runs inside a factory firing (locks
// already held). With-block bodies pass an env with bindings.
func insideFiring(e *env) bool { return len(e.binds) > 0 }

// compileContinuousInsert builds a factory for insert … select where the
// select is continuous, honouring the insert's explicit column list.
func compileContinuousInsert(cat *Catalog, ins *sql.InsertStmt, name string) (*Compiled, error) {
	return compileContinuousSelect(cat, ins.Query, name, ins.Target, ins.Cols)
}

// compileContinuousSelect builds a factory for a continuous select,
// appending results to target (created from the query's schema when it
// does not exist yet). It is the two compilation phases back to back:
// analysis (firing structure + shareable stream-scan artifact) and wiring
// (the standalone factory).
func compileContinuousSelect(cat *Catalog, s *sql.SelectStmt, name, target string, cols []string) (*Compiled, error) {
	a, err := analyzeSelect(cat, s, name, target, cols)
	if err != nil {
		return nil, err
	}
	return a.Wire()
}

// genTracker remembers the per-input append generations of a factory's
// last firing. Methods are called with the baskets locked (guard and body
// both run inside the firing).
type genTracker struct {
	inputs []*basket.Basket
	gens   []int64
}

func newGenTracker(inputs []*basket.Basket) *genTracker {
	t := &genTracker{inputs: inputs, gens: make([]int64, len(inputs))}
	for i := range t.gens {
		t.gens[i] = -1
	}
	return t
}

func (t *genTracker) changed() bool {
	for i, in := range t.inputs {
		if in.AppendedLocked() != t.gens[i] {
			return true
		}
	}
	return false
}

func (t *genTracker) update() {
	for i, in := range t.inputs {
		t.gens[i] = in.AppendedLocked()
	}
}

func compileWithBlock(cat *Catalog, w *sql.WithBlock, name string) (*Compiled, error) {
	// Prototype the binding to type-check the body and create targets.
	bindProto, err := protoEnv(cat).execBasketScan(w.Basket)
	if err != nil {
		return nil, fmt.Errorf("plan: %s: %w", name, err)
	}

	inputs, thresholds := consumedInputsIn(cat, w.Basket, true)
	if len(inputs) == 0 {
		return nil, fmt.Errorf("plan: %s: with-block consumes no baskets", name)
	}

	type insertTarget struct {
		stmt   *sql.InsertStmt
		target *basket.Basket
	}
	var inserts []insertTarget
	var outputs []*basket.Basket
	for _, st := range w.Body {
		switch b := st.(type) {
		case *sql.InsertStmt:
			pe := protoEnv(cat)
			pe.bind(w.Alias, bindProto)
			qproto, err := pe.execSelect(b.Query)
			if err != nil {
				return nil, fmt.Errorf("plan: %s: %w", name, err)
			}
			t, err := ensureTarget(cat, b.Target, b.Cols, qproto)
			if err != nil {
				return nil, err
			}
			inserts = append(inserts, insertTarget{stmt: b, target: t})
			outputs = append(outputs, t)
		case *sql.SetStmt:
			// Assignments execute per firing; nothing to pre-create.
		default:
			return nil, fmt.Errorf("plan: %s: unsupported with-block statement %T", name, st)
		}
	}
	if len(outputs) == 0 {
		// A pure variable-updating block (the paper's incremental
		// aggregate) still needs a nominal output basket for the
		// Petri-net structure.
		sink, err := ensureTarget(cat, strings.ToLower(name)+"_sink", nil, bindProto)
		if err != nil {
			return nil, err
		}
		outputs = append(outputs, sink)
	}
	lockOnly := lockOnlyBaskets(cat, w.Basket, inputs)
	outputs = append(outputs, lockOnly...)

	lastGens := newGenTracker(inputs)
	f, err := core.NewFactory(name, inputs, outputs, func(ctx *core.Context) error {
		lastGens.update()
		e := newEnv(cat)
		e.arena = getArena()
		defer putArena(e.arena)
		bound, err := e.execBasketScan(w.Basket)
		if err != nil {
			return err
		}
		e.bind(w.Alias, bound)
		// Statements run in declaration order, exactly once per binding
		// (the compound block executes for each basket binding).
		for _, st := range w.Body {
			switch b := st.(type) {
			case *sql.InsertStmt:
				rel, err := e.execSelect(b.Query)
				if err != nil {
					return err
				}
				if rel.Len() == 0 {
					continue
				}
				var target *basket.Basket
				for _, it := range inserts {
					if it.stmt == b {
						target = it.target
					}
				}
				rel, err = conformToTarget(rel, target, b.Cols)
				if err != nil {
					return err
				}
				if _, err := target.AppendLocked(rel); err != nil {
					return err
				}
			case *sql.SetStmt:
				if err := execSet(cat, e, b); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.SetGuard(func(*core.Context) bool { return lastGens.changed() })
	for i, th := range thresholds {
		if th > 1 {
			f.SetThreshold(i, th)
		}
	}
	return &Compiled{Name: name, Factory: f, Out: outputs[0]}, nil
}

// ensureTarget returns the named basket, creating it from the prototype
// schema when missing. cols, if given, names the subset/order of target
// columns the inserts will provide.
func ensureTarget(cat *Catalog, name string, cols []string, proto *bat.Relation) (*basket.Basket, error) {
	if b := cat.Basket(name); b != nil {
		return b, nil
	}
	names := proto.Names()
	types := proto.Types()
	if len(cols) > 0 {
		if len(cols) != len(names) {
			return nil, fmt.Errorf("plan: insert into %s: %d columns named but query yields %d", name, len(cols), len(names))
		}
		names = cols
	}
	// Strip qualifiers for the stored schema.
	clean := make([]string, len(names))
	for i, n := range names {
		clean[i] = bareName(n)
	}
	return cat.CreateBasket(name, clean, types, KindBasket)
}

// conformToTarget reorders/validates a result relation against the
// target's user schema. With an explicit column list, result columns map
// positionally onto the named target columns and the full target arity
// must be covered.
func conformToTarget(rel *bat.Relation, target *basket.Basket, cols []string) (*bat.Relation, error) {
	names, _ := target.UserSchema()
	if len(cols) == 0 {
		if rel.NumCols() != len(names) {
			return nil, fmt.Errorf("plan: insert into %s: arity %d, want %d", target.Name(), rel.NumCols(), len(names))
		}
		return rel, nil
	}
	if len(cols) != rel.NumCols() {
		return nil, fmt.Errorf("plan: insert column list has %d names but query yields %d columns", len(cols), rel.NumCols())
	}
	if len(cols) != len(names) {
		return nil, fmt.Errorf("plan: insert into %s must cover all %d columns", target.Name(), len(names))
	}
	byName := map[string]int{}
	for i, c := range cols {
		byName[strings.ToLower(c)] = i
	}
	perm := make([]*vector.Vector, len(names))
	for i, n := range names {
		j, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("plan: insert into %s: column %q not provided", target.Name(), n)
		}
		perm[i] = rel.Col(j)
	}
	return bat.NewRelation(names, perm), nil
}

// consumedInputs walks the statement's basket expressions and returns the
// catalog baskets they consume, plus per-input firing thresholds derived
// from TOP-n windows over single sources.
func consumedInputs(cat *Catalog, s *sql.SelectStmt) ([]*basket.Basket, []int) {
	return consumedInputsIn(cat, s, false)
}

// consumedInputsIn is consumedInputs with an explicit starting context:
// with-blocks pass inBasket=true because their top-level select *is* the
// basket expression.
func consumedInputsIn(cat *Catalog, s *sql.SelectStmt, startInBasket bool) ([]*basket.Basket, []int) {
	var inputs []*basket.Basket
	var thresholds []int
	seen := map[*basket.Basket]int{}
	var walkSel func(sel *sql.SelectStmt, inBasket bool)
	walkSel = func(sel *sql.SelectStmt, inBasket bool) {
		for i := range sel.From {
			tr := &sel.From[i]
			switch {
			case tr.Basket != nil:
				walkSel(tr.Basket, true)
			case tr.Sub != nil:
				walkSel(tr.Sub, inBasket)
			default:
				if !inBasket {
					continue
				}
				b := cat.Basket(tr.Name)
				if b == nil || cat.KindOf(tr.Name) != KindBasket {
					continue
				}
				th := 1
				if sel.Top > 0 && len(sel.From) == 1 {
					th = sel.Top
				}
				if idx, ok := seen[b]; ok {
					if th > thresholds[idx] {
						thresholds[idx] = th
					}
					continue
				}
				seen[b] = len(inputs)
				inputs = append(inputs, b)
				thresholds = append(thresholds, th)
			}
		}
		if sel.Union != nil {
			walkSel(sel.Union, inBasket)
		}
	}
	walkSel(s, startInBasket)
	return inputs, thresholds
}

// lockOnlyBaskets returns catalog baskets referenced outside basket
// expressions (tables, direct scans) that are not already inputs; the
// factory locks them via its output set without gating its firing on them.
func lockOnlyBaskets(cat *Catalog, s *sql.SelectStmt, inputs []*basket.Basket) []*basket.Basket {
	isInput := map[*basket.Basket]bool{}
	for _, b := range inputs {
		isInput[b] = true
	}
	var out []*basket.Basket
	seen := map[*basket.Basket]bool{}
	var walkSel func(sel *sql.SelectStmt, inBasket bool)
	walkExpr := func(x expr.Expr, inBasket bool) {
		for _, ref := range subqueriesOf(x) {
			walkSel(ref, inBasket)
		}
	}
	walkSel = func(sel *sql.SelectStmt, inBasket bool) {
		for i := range sel.From {
			tr := &sel.From[i]
			switch {
			case tr.Basket != nil:
				walkSel(tr.Basket, true)
			case tr.Sub != nil:
				walkSel(tr.Sub, inBasket)
			default:
				b := cat.Basket(tr.Name)
				if b == nil || isInput[b] || seen[b] {
					continue
				}
				consumed := inBasket && cat.KindOf(tr.Name) == KindBasket
				if !consumed {
					seen[b] = true
					out = append(out, b)
				}
			}
		}
		walkExpr(sel.Where, false)
		walkExpr(sel.Having, false)
		for _, it := range sel.Items {
			walkExpr(it.Expr, false)
			if it.Agg != nil {
				walkExpr(it.Agg.Arg, false)
			}
		}
		if sel.Union != nil {
			walkSel(sel.Union, inBasket)
		}
	}
	walkSel(s, false)
	return out
}

// collectBaskets returns every catalog basket a statement references.
func collectBaskets(cat *Catalog, s *sql.SelectStmt) []*basket.Basket {
	inputs, _ := consumedInputs(cat, s)
	return append(inputs, lockOnlyBaskets(cat, s, inputs)...)
}

// collectExprBaskets returns baskets referenced by scalar sub-queries in
// an expression.
func collectExprBaskets(cat *Catalog, x expr.Expr) []*basket.Basket {
	var out []*basket.Basket
	for _, sel := range subqueriesOf(x) {
		out = append(out, collectBaskets(cat, sel)...)
	}
	return out
}

// subqueriesOf extracts scalar sub-query selects from an expression tree.
func subqueriesOf(x expr.Expr) []*sql.SelectStmt {
	var out []*sql.SelectStmt
	var walk func(expr.Expr)
	walk = func(n expr.Expr) {
		switch t := n.(type) {
		case nil:
		case *sql.SubqueryExpr:
			out = append(out, t.Sel)
		case *expr.Bin:
			walk(t.L)
			walk(t.R)
		case *expr.Not:
			walk(t.E)
		case *expr.Neg:
			walk(t.E)
		case *expr.Call:
			for _, a := range t.Args {
				walk(a)
			}
		case *expr.Between:
			walk(t.E)
			walk(t.Lo)
			walk(t.Hi)
		case *expr.InList:
			walk(t.E)
		case *expr.Like:
			walk(t.E)
		case *expr.Case:
			for _, w := range t.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(t.Else)
		}
	}
	walk(x)
	return out
}
