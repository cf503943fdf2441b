package plan

import (
	"fmt"
	"slices"
	"strings"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/expr"
	"datacell/internal/relop"
	"datacell/internal/sql"
	"datacell/internal/vector"
)

// env carries the execution context of one firing: the catalog, the
// with-block bindings, and whether this is a prototype (schema-inference)
// run that must not touch basket contents.
//
// The redirect and onCovered hooks make one compiled statement runnable
// under any multi-query sharing strategy: redirect substitutes a physical
// basket (a private replica, the shared stream basket, or a chain basket)
// for a stream referenced by name inside basket expressions, and onCovered
// intercepts the consumption side-effect so shared readers can report
// covered positions instead of deleting them.
type env struct {
	cat   *Catalog
	binds map[string]*bat.Relation // lazily created by bind
	proto bool                     // schema-inference mode: empty inputs, no side effects

	// redirectFrom/redirectTo substitute a physical basket for the stream
	// of that catalog name (lower-case) inside basket expressions. An empty
	// redirectFrom means no redirection. (A single pair, not a map: a
	// shareable query consumes exactly one stream, and keeping it flat
	// keeps firing setup allocation free.)
	redirectFrom string
	redirectTo   *basket.Basket
	// onCovered, when non-nil, is offered the covered positions of each
	// consuming source before deletion; returning true claims the
	// consumption (the executor must not delete).
	onCovered func(b *basket.Basket, covered []int32) bool

	// arena, when non-nil, provides the firing's reusable scratch vectors,
	// selection buffers and relation headers. Set only on firing paths
	// (StreamScan.Run, compiled factory bodies), never on one-time queries
	// whose results escape to the caller.
	arena *execArena
}

func newEnv(cat *Catalog) *env {
	return &env{cat: cat}
}

func protoEnv(cat *Catalog) *env {
	return &env{cat: cat, proto: true}
}

// bind registers a with-block binding.
func (e *env) bind(name string, rel *bat.Relation) {
	if e.binds == nil {
		e.binds = map[string]*bat.Relation{}
	}
	e.binds[name] = rel
}

// scratch returns the arena's expression scratch, or nil outside firings.
func (e *env) scratch() *expr.Scratch {
	if e.arena == nil {
		return nil
	}
	return &e.arena.sc
}

// arenaVec returns a reusable vector under an arena and a fresh one
// otherwise.
func (e *env) arenaVec() *vector.Vector {
	if e.arena == nil {
		return &vector.Vector{}
	}
	return e.arena.sc.Vec()
}

// arenaRel returns a reusable relation header under an arena and a fresh
// one otherwise.
func (e *env) arenaRel() *bat.Relation {
	if e.arena == nil {
		return &bat.Relation{}
	}
	return e.arena.rel()
}

// orderPerm computes the ordering permutation of n positions under the
// keys, truncated to the first limit entries (limit < 0 keeps all). On
// firing paths the arena's permutation buffer is reused, so steady-state
// ORDER BY (and its bounded-heap TOP n form) allocates nothing; the
// buffer is safe to hand out because every caller gathers through it
// before any nested select could reclaim the arena.
func (e *env) orderPerm(keys []relop.SortKey, n, limit int) []int32 {
	if e.arena == nil {
		return relop.TopNInto(nil, keys, n, limit)
	}
	e.arena.perm = relop.TopNInto(e.arena.perm, keys, n, limit)
	return e.arena.perm
}

// hiddenCol reports whether a (possibly qualified) column is one of the
// engine's internal columns, excluded from * expansion.
func hiddenCol(name string) bool {
	if k := strings.LastIndexByte(name, '.'); k >= 0 {
		name = name[k+1:]
	}
	return strings.HasPrefix(name, "__") || name == basket.TimestampCol
}

func bareName(name string) string {
	if k := strings.LastIndexByte(name, '.'); k >= 0 {
		return name[k+1:]
	}
	return name
}

// resolve rewrites an expression for evaluation against proto: session
// variables become constants, scalar sub-queries are executed and folded,
// and now() is bound to the engine clock. Resolution is identity
// preserving: a node whose children resolve to themselves is returned
// unchanged, so variable-free, subquery-free predicates — the firing hot
// path — resolve without allocating. (Call nodes are the exception: the
// clock injection must not mutate the shared AST, so they are always
// copied.)
func (e *env) resolve(x expr.Expr, proto *bat.Relation) (expr.Expr, error) {
	switch n := x.(type) {
	case nil:
		return nil, nil
	case *expr.Const:
		return n, nil
	case *expr.Col:
		if proto != nil && proto.ColIndex(n.Name) >= 0 {
			return n, nil
		}
		if v, ok := e.cat.Var(n.Name); ok {
			return expr.NewConst(v), nil
		}
		return n, nil // unknown names error at evaluation with context
	case *expr.Bin:
		l, err := e.resolve(n.L, proto)
		if err != nil {
			return nil, err
		}
		r, err := e.resolve(n.R, proto)
		if err != nil {
			return nil, err
		}
		if l == n.L && r == n.R {
			return n, nil
		}
		return expr.NewBin(n.Op, l, r), nil
	case *expr.Not:
		c, err := e.resolve(n.E, proto)
		if err != nil {
			return nil, err
		}
		if c == n.E {
			return n, nil
		}
		return expr.NewNot(c), nil
	case *expr.Neg:
		c, err := e.resolve(n.E, proto)
		if err != nil {
			return nil, err
		}
		if c == n.E {
			return n, nil
		}
		return expr.NewNeg(c), nil
	case *expr.Call:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			ra, err := e.resolve(a, proto)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		c := expr.NewCall(n.Name, args...)
		c.Now = e.cat.Now
		return c, nil
	case *expr.Between:
		ex, err := e.resolve(n.E, proto)
		if err != nil {
			return nil, err
		}
		lo, err := e.resolve(n.Lo, proto)
		if err != nil {
			return nil, err
		}
		hi, err := e.resolve(n.Hi, proto)
		if err != nil {
			return nil, err
		}
		if ex == n.E && lo == n.Lo && hi == n.Hi {
			return n, nil
		}
		return expr.NewBetween(ex, lo, hi, n.Negate), nil
	case *expr.InList:
		ex, err := e.resolve(n.E, proto)
		if err != nil {
			return nil, err
		}
		if ex == n.E {
			return n, nil
		}
		return expr.NewInList(ex, n.Vals, n.Negate), nil
	case *expr.Like:
		ex, err := e.resolve(n.E, proto)
		if err != nil {
			return nil, err
		}
		if ex == n.E {
			return n, nil
		}
		return expr.NewLike(ex, n.Pattern, n.Negate), nil
	case *expr.Case:
		whens := make([]expr.WhenClause, len(n.Whens))
		for i, w := range n.Whens {
			c, err := e.resolve(w.Cond, proto)
			if err != nil {
				return nil, err
			}
			t, err := e.resolve(w.Then, proto)
			if err != nil {
				return nil, err
			}
			whens[i] = expr.WhenClause{Cond: c, Then: t}
		}
		els, err := e.resolve(n.Else, proto)
		if err != nil {
			return nil, err
		}
		return expr.NewCase(whens, els), nil
	case *sql.SubqueryExpr:
		rel, err := e.execSelect(n.Sel)
		if err != nil {
			return nil, fmt.Errorf("plan: scalar subquery: %w", err)
		}
		return expr.NewConst(scalarOf(rel)), nil
	}
	return nil, fmt.Errorf("plan: cannot resolve expression %T", x)
}

// scalarOf extracts the single value of a scalar sub-query result. An
// empty result yields the zero value of the first column's type (so that
// incremental aggregates like cnt+count(*) see 0, not an error).
func scalarOf(rel *bat.Relation) vector.Value {
	if rel.NumCols() == 0 {
		return vector.NewInt(0)
	}
	if rel.Len() == 0 {
		return vector.Value{Kind: rel.Col(0).Kind()}
	}
	return rel.Col(0).Get(0)
}

// evalExpr resolves and evaluates a scalar expression over rel, drawing
// temporaries from the firing arena when one is installed.
func (e *env) evalExpr(x expr.Expr, rel *bat.Relation) (*vector.Vector, error) {
	rx, err := e.resolve(x, rel)
	if err != nil {
		return nil, err
	}
	return rx.EvalInto(rel, nil, e.scratch())
}

// evalPred resolves a predicate and evaluates it as a candidate list. The
// result is always ascending and duplicate free; under an arena it is
// owned by the firing scratch.
func (e *env) evalPred(x expr.Expr, rel *bat.Relation, cand []int32) ([]int32, error) {
	if x == nil {
		if cand != nil {
			return cand, nil
		}
		if s := e.scratch(); s != nil {
			p := s.Sel()
			*p = relop.CandAllInto(*p, rel.Len())
			return *p, nil
		}
		return relop.CandAll(rel.Len()), nil
	}
	rx, err := e.resolve(x, rel)
	if err != nil {
		return nil, err
	}
	sel, err := expr.EvalSelectInto(rx, rel, cand, e.scratch())
	if sel == nil && err == nil {
		// Normalise: downstream a nil list means "unrestricted", but an
		// evaluated predicate that selected nothing must stay "no rows".
		sel = emptySel
	}
	return sel, err
}

// emptySel is the shared non-nil empty selection ("no rows"); a nil list
// means "no restriction" instead. Read only.
var emptySel = make([]int32, 0)

// source is one FROM-clause input after evaluation.
type source struct {
	alias   string
	rel     *bat.Relation  // qualified columns; hidden __pos column if consumable
	consume *basket.Basket // non-nil when tuples referenced must be deleted
	posCol  string         // name of the hidden position column
}

// evalTableRef materialises one table reference. insideBasket selects the
// consuming semantics for named baskets. skipPos suppresses the hidden
// position column: the single-source fast path tracks positions through
// its candidate list instead of a materialised column (late
// materialisation), so the column — and its per-firing allocation — is
// only needed for joins and ORDER BY/TOP windows.
func (e *env) evalTableRef(tr *sql.TableRef, idx int, insideBasket, skipPos bool) (*source, error) {
	s := &source{alias: tr.Alias}
	switch {
	case tr.Basket != nil:
		rel, err := e.execBasketScan(tr.Basket)
		if err != nil {
			return nil, err
		}
		s.rel = rel.Qualify(tr.Alias)
	case tr.Sub != nil:
		rel, err := e.execSelect(tr.Sub)
		if err != nil {
			return nil, err
		}
		s.rel = rel.Qualify(tr.Alias)
	default:
		if bound, ok := e.binds[tr.Name]; ok {
			s.rel = bound.Qualify(tr.Alias)
			break
		}
		b := e.cat.Basket(tr.Name)
		if b == nil {
			return nil, fmt.Errorf("plan: unknown basket or table %q", tr.Name)
		}
		consuming := insideBasket && e.cat.KindOf(tr.Name) == KindBasket
		if consuming && e.redirectTo != nil && !e.proto && strings.EqualFold(tr.Name, e.redirectFrom) {
			b = e.redirectTo
		}
		var rel *bat.Relation
		if e.proto {
			names, types := b.Schema()
			rel = bat.NewEmptyRelation(names, types)
		} else {
			rel = b.RelLocked()
		}
		s.rel = rel.Qualify(tr.Alias)
		if consuming && !e.proto {
			s.consume = b
		}
	}
	if s.consume != nil && !skipPos {
		// Attach the hidden position column used to trace covered tuples
		// through joins and top-N restrictions.
		n := s.rel.Len()
		pos := make([]int64, n)
		for i := range pos {
			pos[i] = int64(i)
		}
		s.posCol = fmt.Sprintf("__pos_%d", idx)
		names := append(append([]string(nil), s.rel.Names()...), s.posCol)
		cols := make([]*vector.Vector, 0, len(names))
		for i := 0; i < s.rel.NumCols(); i++ {
			cols = append(cols, s.rel.Col(i))
		}
		cols = append(cols, vector.FromInts(pos))
		s.rel = bat.NewRelation(names, cols)
	}
	return s, nil
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(x expr.Expr) []expr.Expr {
	if b, ok := x.(*expr.Bin); ok && b.Op == expr.And {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	if x == nil {
		return nil
	}
	return []expr.Expr{x}
}

func andAll(conjuncts []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = expr.NewBin(expr.And, out, c)
		}
	}
	return out
}

// joinSources joins the FROM sources left-to-right, consuming equi- and
// theta-join conjuncts from the WHERE clause, and applies the remaining
// predicate as a filter. It returns the joined, filtered relation.
func (e *env) joinSources(srcs []*source, where expr.Expr) (*bat.Relation, error) {
	conjuncts := splitAnd(where)
	cur := srcs[0].rel
	for _, nxt := range srcs[1:] {
		var lkeys, rkeys []*vector.Vector
		var thetaL, thetaR *vector.Vector
		var thetaOp relop.CmpOp
		rest := conjuncts[:0:0]
		for _, c := range conjuncts {
			b, ok := c.(*expr.Bin)
			if !ok || !b.Op.IsCmp() {
				rest = append(rest, c)
				continue
			}
			lc, lok := b.L.(*expr.Col)
			rc, rok := b.R.(*expr.Col)
			if !lok || !rok {
				rest = append(rest, c)
				continue
			}
			lv, rv := cur.ColByName(lc.Name), nxt.rel.ColByName(rc.Name)
			op := b.Op
			if lv == nil || rv == nil {
				// Try the swapped orientation.
				lv, rv = cur.ColByName(rc.Name), nxt.rel.ColByName(lc.Name)
				switch op {
				case expr.Lt:
					op = expr.Gt
				case expr.Le:
					op = expr.Ge
				case expr.Gt:
					op = expr.Lt
				case expr.Ge:
					op = expr.Le
				}
			}
			if lv == nil || rv == nil {
				rest = append(rest, c)
				continue
			}
			if op == expr.Eq {
				lkeys = append(lkeys, lv)
				rkeys = append(rkeys, rv)
			} else if thetaL == nil {
				thetaL, thetaR, thetaOp = lv, rv, op.CmpOp()
			} else {
				rest = append(rest, c)
			}
		}
		conjuncts = rest

		var lsel, rsel []int32
		switch {
		case len(lkeys) > 0:
			lsel, rsel = relop.HashJoinMulti(lkeys, rkeys)
		case thetaL != nil:
			lsel, rsel = relop.ThetaJoin(thetaL, thetaR, thetaOp)
			thetaL = nil
		default:
			// Cross product: rare, used only by tiny control inputs.
			ln, rn := cur.Len(), nxt.rel.Len()
			lsel = make([]int32, 0, ln*rn)
			rsel = make([]int32, 0, ln*rn)
			for i := 0; i < ln; i++ {
				for j := 0; j < rn; j++ {
					lsel = append(lsel, int32(i))
					rsel = append(rsel, int32(j))
				}
			}
		}
		cur = bat.Concat(cur.Gather(lsel), nxt.rel.Gather(rsel))
	}
	if len(conjuncts) > 0 {
		sel, err := e.evalPred(andAll(conjuncts), cur, nil)
		if err != nil {
			return nil, err
		}
		cur = cur.Gather(sel)
	}
	return cur, nil
}

// execBasketScan evaluates a basket expression: it selects the referenced
// tuples, removes them from their underlying baskets (the side effect that
// makes the window move) and returns the selected tuples projected through
// the expression's select list.
func (e *env) execBasketScan(be *sql.SelectStmt) (*bat.Relation, error) {
	if len(be.From) == 0 {
		return nil, fmt.Errorf("plan: basket expression needs a FROM clause")
	}
	if e.fastScanOK(be) {
		return e.execSingleScan(be)
	}
	srcs := make([]*source, len(be.From))
	for i := range be.From {
		s, err := e.evalTableRef(&be.From[i], i, true, false)
		if err != nil {
			return nil, err
		}
		srcs[i] = s
	}
	var j *bat.Relation
	var err error
	if len(srcs) == 1 {
		sel, perr := e.evalPred(be.Where, srcs[0].rel, nil)
		if perr != nil {
			return nil, perr
		}
		j = srcs[0].rel.Gather(sel)
	} else {
		j, err = e.joinSources(srcs, be.Where)
		if err != nil {
			return nil, err
		}
	}

	// ORDER BY applies to the full selection before TOP fixes the window.
	if len(be.OrderBy) > 0 {
		keys := make([]relop.SortKey, len(be.OrderBy))
		for i, oi := range be.OrderBy {
			v, err := e.evalExpr(oi.Expr, j)
			if err != nil {
				return nil, err
			}
			keys[i] = relop.SortKey{Col: v, Desc: oi.Desc}
		}
		// A TOP window bounds the sort: the heap form never materialises
		// the full permutation.
		j = j.Gather(e.orderPerm(keys, j.Len(), be.Top))
	}
	if be.Top >= 0 && be.Top < j.Len() {
		j = j.Gather(relop.CandAll(be.Top))
	}

	// Delete the covered tuples from their baskets.
	for _, s := range srcs {
		if s.consume == nil {
			continue
		}
		posv := j.ColByName(s.posCol)
		if posv == nil {
			continue
		}
		covered := make([]int32, 0, posv.Len())
		seen := map[int32]bool{}
		for _, p := range posv.Ints() {
			if !seen[int32(p)] {
				seen[int32(p)] = true
				covered = append(covered, int32(p))
			}
		}
		sortAsc(covered)
		if e.onCovered != nil && e.onCovered(s.consume, covered) {
			continue
		}
		if len(covered) > 0 {
			s.consume.DeleteLocked(covered)
		}
	}

	out, err := e.selectTail(be, j)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fastScanOK reports whether a basket expression qualifies for the
// single-source late-materialisation path: one FROM source, no ORDER BY
// (an ordered window must reorder its position trace), and no scalar
// subqueries in the parts that run after consumption (the fast path
// consumes after projecting, so a subquery re-reading the scanned basket
// must keep the classic ordering).
func (e *env) fastScanOK(be *sql.SelectStmt) bool {
	if len(be.From) != 1 || len(be.OrderBy) > 0 || be.Union != nil {
		return false
	}
	if exprHasSubquery(be.Having) {
		return false
	}
	for _, g := range be.GroupBy {
		if exprHasSubquery(g) {
			return false
		}
	}
	for _, it := range be.Items {
		if exprHasSubquery(it.Expr) {
			return false
		}
		if it.Agg != nil && exprHasSubquery(it.Agg.Arg) {
			return false
		}
	}
	return true
}

// execSingleScan is the basket-expression hot path: instead of gathering
// every column of the selection at each stage, it carries the source
// relation plus a candidate list between stages and materialises — one
// gather per output column — only at the projection boundary. Covered
// positions are the candidate list itself (the hidden position column of
// the general path is the identity here), so a steady-state firing
// allocates nothing beyond its arena.
func (e *env) execSingleScan(be *sql.SelectStmt) (*bat.Relation, error) {
	src, err := e.evalTableRef(&be.From[0], 0, true, true)
	if err != nil {
		return nil, err
	}
	sel, err := e.evalPred(be.Where, src.rel, nil)
	if err != nil {
		return nil, err
	}
	if be.Top >= 0 && be.Top < len(sel) {
		sel = sel[:be.Top]
	}
	// Project before consuming: the projection reads the live source
	// columns (copying into the arena), and only then does the delete
	// shift them.
	out, err := e.selectTailCand(be, src.rel, sel, src.consume != nil)
	if err != nil {
		return nil, err
	}
	if src.consume != nil && !e.proto {
		// evalPred results are ascending and duplicate free — exactly the
		// covered-positions form CoverLocked/DeleteLocked require.
		if e.onCovered != nil && e.onCovered(src.consume, sel) {
			return out, nil
		}
		if len(sel) > 0 {
			src.consume.DeleteLocked(sel)
		}
	}
	return out, nil
}

// restrictCol returns col restricted to cand. With cand == nil the column
// is shared unless mustCopy is set (callers about to delete from the
// source need their own copy).
func (e *env) restrictCol(col *vector.Vector, cand []int32, mustCopy bool) *vector.Vector {
	if cand == nil {
		if !mustCopy {
			return col
		}
		return col.SliceInto(e.arenaVec(), 0, col.Len())
	}
	return col.GatherInto(e.arenaVec(), cand)
}

// materializeCand returns rel restricted to cand as a materialised
// relation. With cand == nil it shares rel unless mustCopy is set.
func (e *env) materializeCand(rel *bat.Relation, cand []int32, mustCopy bool) *bat.Relation {
	if cand == nil {
		if !mustCopy {
			return rel
		}
		return rel.CloneInto(e.arenaRel())
	}
	return rel.GatherInto(e.arenaRel(), cand)
}

// selectTailCand applies the select tail to rel restricted to cand with
// late materialisation: plain column projections gather only the output
// columns; anything needing whole-relation evaluation (aggregation,
// distinct, having, computed expressions) materialises the restriction
// once into the arena and reuses the classic tail. mustCopy marks rel as
// live basket storage that the caller will mutate after projection.
func (e *env) selectTailCand(sel *sql.SelectStmt, rel *bat.Relation, cand []int32, mustCopy bool) (*bat.Relation, error) {
	aggregated := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if it.Agg != nil {
			aggregated = true
		}
	}
	if aggregated || sel.Distinct || sel.Having != nil {
		return e.selectTail(sel, e.materializeCand(rel, cand, mustCopy))
	}
	return e.projectItems(sel, rel, cand, mustCopy)
}

// projectItems evaluates a non-aggregated select list over rel restricted
// to cand (nil = all rows). It is the single projection implementation:
// the classic tail passes an already-materialised relation with cand nil;
// the late-materialisation paths pass the source relation plus the
// candidate list, so each output column is gathered exactly once.
func (e *env) projectItems(sel *sql.SelectStmt, rel *bat.Relation, cand []int32, mustCopy bool) (*bat.Relation, error) {
	names := make([]string, 0, len(sel.Items))
	cols := make([]*vector.Vector, 0, len(sel.Items))
	taken := map[string]bool{}
	var mat *bat.Relation // lazily materialised restriction for computed items
	for i, it := range sel.Items {
		if it.Star {
			for c := 0; c < rel.NumCols(); c++ {
				qn := rel.Names()[c]
				if hiddenCol(qn) {
					continue
				}
				if it.StarAlias != "" && !strings.HasPrefix(qn, it.StarAlias+".") {
					continue
				}
				name := bareName(qn)
				if taken[name] {
					name = qn // keep the qualifier on conflicts
				}
				taken[name] = true
				names = append(names, name)
				cols = append(cols, e.restrictCol(rel.Col(c), cand, mustCopy))
			}
			continue
		}
		rx, err := e.resolve(it.Expr, rel)
		if err != nil {
			return nil, err
		}
		var v *vector.Vector
		if c, ok := rx.(*expr.Col); ok {
			src := rel.ColByName(c.Name)
			if src == nil {
				return nil, fmt.Errorf("expr: unknown column %q (have %v)", c.Name, rel.Names())
			}
			v = e.restrictCol(src, cand, mustCopy)
		} else {
			if mat == nil {
				mat = e.materializeCand(rel, cand, mustCopy)
			}
			v, err = rx.EvalInto(mat, nil, e.scratch())
			if err != nil {
				return nil, err
			}
		}
		name := it.ItemName(i)
		taken[name] = true
		names = append(names, name)
		cols = append(cols, v)
	}
	return bat.NewRelation(names, cols), nil
}

// exprHasSubquery reports whether an expression tree contains a scalar
// subquery, without allocating.
func exprHasSubquery(x expr.Expr) bool {
	switch n := x.(type) {
	case nil:
	case *sql.SubqueryExpr:
		return true
	case *expr.Bin:
		return exprHasSubquery(n.L) || exprHasSubquery(n.R)
	case *expr.Not:
		return exprHasSubquery(n.E)
	case *expr.Neg:
		return exprHasSubquery(n.E)
	case *expr.Call:
		for _, a := range n.Args {
			if exprHasSubquery(a) {
				return true
			}
		}
	case *expr.Between:
		return exprHasSubquery(n.E) || exprHasSubquery(n.Lo) || exprHasSubquery(n.Hi)
	case *expr.InList:
		return exprHasSubquery(n.E)
	case *expr.Like:
		return exprHasSubquery(n.E)
	case *expr.Case:
		for _, w := range n.Whens {
			if exprHasSubquery(w.Cond) || exprHasSubquery(w.Then) {
				return true
			}
		}
		return exprHasSubquery(n.Else)
	}
	return false
}

// execSelect evaluates a full select statement (outer query semantics: no
// consumption except via nested basket expressions).
func (e *env) execSelect(sel *sql.SelectStmt) (*bat.Relation, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("plan: select needs a FROM clause")
	}
	srcs := make([]*source, len(sel.From))
	for i := range sel.From {
		s, err := e.evalTableRef(&sel.From[i], i, false, false)
		if err != nil {
			return nil, err
		}
		srcs[i] = s
	}

	aggregated := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if it.Agg != nil {
			aggregated = true
		}
	}

	var j *bat.Relation
	var err error
	if len(srcs) == 1 {
		lateMat := sel.Union == nil && len(sel.OrderBy) == 0
		// An unfiltered aggregate keeps selv nil, so selectTailCand reads
		// the source relation as it is rather than gathering every column
		// through the identity list.
		var selv []int32
		if !lateMat || !aggregated || sel.Where != nil {
			var perr error
			if selv, perr = e.evalPred(sel.Where, srcs[0].rel, nil); perr != nil {
				return nil, perr
			}
		}
		if lateMat {
			// Late materialisation: skip the whole-relation gather and
			// project straight off (rel, selv). Top over a plain projection
			// truncates the candidate list before any column is copied.
			if sel.Top >= 0 && !aggregated && !sel.Distinct && sel.Top < len(selv) {
				selv = selv[:sel.Top]
			}
			result, terr := e.selectTailCand(sel, srcs[0].rel, selv, false)
			if terr != nil {
				return nil, terr
			}
			if sel.Top >= 0 && sel.Top < result.Len() {
				result = result.Gather(relop.CandAll(sel.Top))
			}
			return result, nil
		}
		j = srcs[0].rel.Gather(selv)
	} else {
		j, err = e.joinSources(srcs, sel.Where)
		if err != nil {
			return nil, err
		}
	}

	result, err := e.selectTail(sel, j)
	if err != nil {
		return nil, err
	}

	if sel.Union != nil {
		rhs, err := e.execSelect(sel.Union)
		if err != nil {
			return nil, err
		}
		if rhs.NumCols() != result.NumCols() {
			return nil, fmt.Errorf("plan: union branches have %d vs %d columns",
				result.NumCols(), rhs.NumCols())
		}
		combined := result.Clone()
		combined.AppendRelation(rhs.Rename(result.Names()))
		if !sel.UnionAll {
			cols := make([]*vector.Vector, combined.NumCols())
			for i := range cols {
				cols[i] = combined.Col(i)
			}
			combined = combined.Gather(relop.Distinct(cols, combined.Len()))
		}
		result = combined
	}

	aligned := !aggregated && !sel.Distinct && sel.Union == nil
	if len(sel.OrderBy) > 0 {
		base := result
		if aligned {
			base = j
		}
		keys := make([]relop.SortKey, len(sel.OrderBy))
		for i, oi := range sel.OrderBy {
			v, kerr := e.evalExpr(oi.Expr, base)
			if kerr != nil && aligned {
				// Order key may reference a select-list alias.
				v, kerr = e.evalExpr(oi.Expr, result)
			}
			if kerr != nil {
				return nil, kerr
			}
			keys[i] = relop.SortKey{Col: v, Desc: oi.Desc}
		}
		result = result.Gather(e.orderPerm(keys, result.Len(), sel.Top))
	}
	if sel.Top >= 0 && sel.Top < result.Len() {
		result = result.Gather(relop.CandAll(sel.Top))
	}
	return result, nil
}

// selectTail applies grouping/aggregation or projection, having and
// distinct to the joined, filtered relation.
func (e *env) selectTail(sel *sql.SelectStmt, j *bat.Relation) (*bat.Relation, error) {
	aggregated := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if it.Agg != nil {
			aggregated = true
		}
	}
	var result *bat.Relation
	if aggregated {
		keys := make([]*vector.Vector, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			v, err := e.evalExpr(g, j)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		grouping := relop.GroupBy(keys, j.Len())
		names := make([]string, 0, len(sel.Items))
		cols := make([]*vector.Vector, 0, len(sel.Items))
		for i, it := range sel.Items {
			switch {
			case it.Star:
				return nil, fmt.Errorf("plan: * cannot be combined with aggregation")
			case it.Agg != nil && it.Agg.Distinct:
				if it.Agg.Kind != relop.AggCount {
					return nil, fmt.Errorf("plan: distinct is only supported for count()")
				}
				if it.Agg.Arg == nil {
					return nil, fmt.Errorf("plan: count(distinct *) is not meaningful")
				}
				v, err := e.evalExpr(it.Agg.Arg, j)
				if err != nil {
					return nil, err
				}
				cols = append(cols, countDistinct(v, grouping))
				names = append(names, it.ItemName(i))
			case it.Agg != nil:
				var arg *vector.Vector
				if !it.Agg.Star && it.Agg.Kind != relop.AggCount {
					v, err := e.evalExpr(it.Agg.Arg, j)
					if err != nil {
						return nil, err
					}
					arg = v
				} else if it.Agg.Star && it.Agg.Kind != relop.AggCount {
					// sum(*)/avg(*) etc. take the single visible column.
					var only *vector.Vector
					cnt := 0
					for c := 0; c < j.NumCols(); c++ {
						if !hiddenCol(j.Names()[c]) {
							only = j.Col(c)
							cnt++
						}
					}
					if cnt != 1 {
						return nil, fmt.Errorf("plan: %s(*) needs exactly one input column, have %d", it.Agg.Kind, cnt)
					}
					arg = only
				} else if it.Agg.Arg != nil {
					v, err := e.evalExpr(it.Agg.Arg, j)
					if err != nil {
						return nil, err
					}
					arg = v
				}
				cols = append(cols, relop.Aggregate(it.Agg.Kind, arg, grouping))
				names = append(names, it.ItemName(i))
			default:
				v, err := e.evalExpr(it.Expr, j)
				if err != nil {
					return nil, err
				}
				cols = append(cols, v.Gather(grouping.Repr))
				names = append(names, it.ItemName(i))
			}
		}
		result = bat.NewRelation(names, cols)
		if sel.Having != nil {
			hsel, err := e.evalPred(sel.Having, result, nil)
			if err != nil {
				return nil, err
			}
			result = result.Gather(hsel)
		}
	} else {
		if sel.Having != nil {
			return nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
		}
		var err error
		result, err = e.projectItems(sel, j, nil, false)
		if err != nil {
			return nil, err
		}
	}
	if sel.Distinct {
		allCols := make([]*vector.Vector, result.NumCols())
		for i := range allCols {
			allCols[i] = result.Col(i)
		}
		result = result.Gather(relop.Distinct(allCols, result.Len()))
	}
	return result, nil
}

// countDistinct computes count(distinct v) per group.
func countDistinct(v *vector.Vector, g *relop.Grouping) *vector.Vector {
	seen := map[[2]int64]bool{}
	counts := make([]int64, g.NumGroups())
	useInts := v.Kind() == vector.Int || v.Kind() == vector.Timestamp
	seenStr := map[string]bool{}
	for i, gid := range g.GroupIDs {
		if useInts {
			k := [2]int64{int64(gid), v.Ints()[i]}
			if !seen[k] {
				seen[k] = true
				counts[gid]++
			}
			continue
		}
		k := fmt.Sprintf("%d\x1f%s", gid, v.Get(i))
		if !seenStr[k] {
			seenStr[k] = true
			counts[gid]++
		}
	}
	return vector.FromInts(counts)
}

func sortAsc(s []int32) {
	if !slices.IsSorted(s) {
		slices.Sort(s)
	}
}
