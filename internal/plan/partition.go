package plan

import (
	"fmt"
	"slices"
	"strings"

	"datacell/internal/expr"
	"datacell/internal/interval"
	"datacell/internal/sql"
	"datacell/internal/vector"
)

// PartMode classifies how a stream scan may be partitioned for parallel
// execution.
type PartMode uint8

// Partitionability verdicts.
const (
	// PartNone: the plan must see the whole stream; it runs at one
	// partition regardless of the engine's parallelism.
	PartNone PartMode = iota
	// PartRoundRobin: a row-local select/project plan whose result is the
	// same multiset under any disjoint split of the stream.
	PartRoundRobin
	// PartHash: a grouped plan that is correct under any split co-locating
	// tuples with equal grouping keys — hashing one grouping column.
	PartHash
	// PartRange: a row-local plan with a sargable predicate. A necessary
	// condition on one stream column restricts the values a matching
	// tuple can carry, so the splitter routes tuples inside the set
	// across the partitions by range (or hash, when the set has no
	// sliceable measure) and prunes tuples outside it to a catch-all
	// partition no clone scans.
	PartRange
)

// String names the verdict.
func (m PartMode) String() string {
	switch m {
	case PartNone:
		return "none"
	case PartRoundRobin:
		return "round-robin"
	case PartHash:
		return "hash"
	case PartRange:
		return "range"
	}
	return "?"
}

// Verdict is the full partitioning verdict of one continuous plan: the
// mode, the routing column (hash and range modes), and — for range mode —
// the per-column necessary-condition sets the sargable analysis derived
// (Ranges[Col] is the set routed on; the other entries let a query group
// find a column every member constrains).
type Verdict struct {
	Mode   PartMode
	Col    string
	Ranges map[string]interval.Set
}

// Set returns the routing column's interval set (range mode).
func (v Verdict) Set() interval.Set { return v.Ranges[v.Col] }

// Prune returns the pruning column and set a hash-routed split should
// apply before cloning tuples into the partitions: when a grouped plan
// also carries sargable ranges, tuples outside the set can match no
// member and divert to the catch-all instead of being scanned by a
// partial-aggregate clone. ok is false when nothing can be pruned.
func (v Verdict) Prune() (col string, set interval.Set, ok bool) {
	if v.Mode != PartHash || len(v.Ranges) == 0 {
		return "", interval.Set{}, false
	}
	col, ok = bestRangeCol(v.Ranges)
	if !ok {
		return "", interval.Set{}, false
	}
	return col, v.Ranges[col], true
}

// Describe renders the verdict for explain output and group info:
// "none", "round-robin", "hash(k)", "range(v)".
func (v Verdict) Describe() string {
	switch v.Mode {
	case PartHash:
		return fmt.Sprintf("hash(%s)", v.Col)
	case PartRange:
		return fmt.Sprintf("range(%s)", v.Col)
	}
	return v.Mode.String()
}

// ClampP bounds a requested partition count by the verdict: a plan that
// must see the whole stream runs at one partition no matter what the
// engine parallelism or the adaptive controller asks for. It is the
// plan-side clamp of the scale-up policy.
func (v Verdict) ClampP(p int) int {
	if v.Mode == PartNone || p < 1 {
		return 1
	}
	return p
}

// CombineVerdicts folds the verdicts of all queries sharing one stream
// split (the shared and partial wirings partition the stream once for
// the whole group) into the group-wide routing verdict:
//
//   - any non-partitionable member pins the group to one partition;
//   - hash members force hash routing on their column (row-local members
//     accept any disjoint split), and two hash members on different
//     columns pin the group;
//   - all-range members route by range on a column every member
//     constrains, with the union of their sets — a tuple outside the
//     union can match no member, so the catch-all stays safe;
//   - otherwise the group falls back to round-robin (an unconstrained
//     row-local member may match any tuple, so nothing can be pruned).
func CombineVerdicts(vs ...Verdict) Verdict {
	allRange := len(vs) > 0
	var hash *Verdict
	for i := range vs {
		switch vs[i].Mode {
		case PartNone:
			return Verdict{Mode: PartNone}
		case PartHash:
			if hash != nil && hash.Col != vs[i].Col {
				return Verdict{Mode: PartNone}
			}
			hash = &vs[i]
			allRange = false
		case PartRoundRobin:
			allRange = false
		}
	}
	if hash != nil {
		out := Verdict{Mode: PartHash, Col: hash.Col}
		// Hash routing can still prune: a tuple outside every member's
		// necessary-condition set matches no member, so the splitter may
		// divert it to the catch-all before any clone aggregates it.
		if u := unionRanges(vs); len(u) > 0 {
			out.Ranges = u
		}
		return out
	}
	if !allRange {
		return Verdict{Mode: PartRoundRobin}
	}
	union := unionRanges(vs)
	col, ok := bestRangeCol(union)
	if !ok {
		return Verdict{Mode: PartRoundRobin}
	}
	return Verdict{Mode: PartRange, Col: col, Ranges: union}
}

// unionRanges intersects the constrained column sets across members,
// unioning the value sets per column: a column survives only when every
// member constrains it (a member with no ranges may match any tuple, so
// nothing is prunable for the group), and the union set is the necessary
// condition of "some member matches".
func unionRanges(vs []Verdict) map[string]interval.Set {
	if len(vs) == 0 {
		return nil
	}
	union := map[string]interval.Set{}
	for col, s := range vs[0].Ranges {
		union[col] = s
	}
	for _, v := range vs[1:] {
		for col, s := range union {
			o, ok := v.Ranges[col]
			if !ok {
				delete(union, col)
				continue
			}
			u := s.Union(o)
			if u.All() {
				delete(union, col)
				continue
			}
			union[col] = u
		}
	}
	return union
}

// Partitionability reports the partitioning verdict a continuous
// statement would receive from Analyze. ok is false when the statement is
// not a shareable single-stream scan at all. Nothing is created.
func Partitionability(cat *Catalog, stmt sql.Statement) (Verdict, bool) {
	streamName, ok := ShareableStream(cat, stmt)
	if !ok {
		return Verdict{Mode: PartNone}, false
	}
	var sel *sql.SelectStmt
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		sel = s
	case *sql.InsertStmt:
		sel = s.Query
	}
	return partitionVerdict(cat, sel, streamName), true
}

// TwoPhase reports whether a continuous statement would execute under
// partitioned wiring as a two-phase plan: per-partition partial
// aggregates (or sorted runs) folded by a combining merge emitter,
// rather than per-partition final results concatenated as they arrive.
// Nothing is created.
func TwoPhase(cat *Catalog, stmt sql.Statement) bool {
	streamName, ok := ShareableStream(cat, stmt)
	if !ok {
		return false
	}
	var sel *sql.SelectStmt
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		sel = s
	case *sql.InsertStmt:
		sel = s.Query
	}
	return combineSpec(cat, sel, streamName, partitionVerdict(cat, sel, streamName)) != nil
}

// combineSpec is the one decision between the two merges of a plan
// partitioned under verdict v: it returns the two-phase form the clones
// and the combining merge execute, or nil when the per-partition results
// concatenate. They concatenate when the plan does not partition, when it
// has no valid two-phase form, and when a hash verdict routes a grouped
// plan with no ORDER BY or TOP: equal full keys then meet in one
// partition, so each clone's groups are already final. Global aggregates,
// round-robin and range verdicts, and ordered or TOP outputs keep the
// combining merge.
func combineSpec(cat *Catalog, sel *sql.SelectStmt, streamName string, v Verdict) *twoPhase {
	switch {
	case v.Mode == PartNone:
		return nil
	case v.Mode == PartHash && len(sel.OrderBy) == 0 && sel.Top < 0:
		return nil
	}
	return twoPhaseSpec(cat, sel, streamName)
}

// partitionVerdict decides how a single-stream continuous select may be
// partitioned. Predicate-window selects (row-local basket expression and
// row-local outer filters and projections) partition by range when their
// predicate is sargable (the necessary condition prunes non-matching
// tuples to a catch-all) and round-robin otherwise; an outer ORDER BY
// stays partitionable when its two-phase form validates (per-partition
// sort, k-way combining merge). Grouped plans whose first grouping key is
// a plain stream column hash-partition on that column; hash co-location
// keeps each group on one partition, so their results concatenate unless
// an ORDER BY or TOP needs the combining merge (see combineSpec).
// Other mergeable aggregations — expression group keys, global
// aggregates — go round-robin (or range) with a combining merge.
// Everything left — unordered TOP, DISTINCT, UNION, joins, scalar
// sub-queries, session variables, now() — must see the whole stream and
// falls back to one partition.
func partitionVerdict(cat *Catalog, sel *sql.SelectStmt, streamName string) Verdict {
	none := Verdict{Mode: PartNone}
	aggregated, ok := scanShape(cat, sel, streamName)
	if !ok {
		return none
	}
	b := cat.Basket(streamName)
	if b == nil {
		return none
	}
	names, types := b.UserSchema()
	// Sargable analysis over the conjunction of the window predicate and
	// the outer filter: the necessary-condition sets that let a split
	// prune non-matching tuples to the catch-all.
	be := sel.From[0].Basket
	colTypes := make(map[string]vector.Type, len(names))
	for i, n := range names {
		colTypes[n] = types[i]
	}
	sets := andSets(sargableSets(be.Where, colTypes), sargableSets(sel.Where, colTypes))
	for col, s := range sets {
		if s.All() {
			delete(sets, col)
		}
	}
	if !aggregated {
		if len(sel.OrderBy) == 0 && sel.Top >= 0 {
			// An unordered TOP keeps whichever tuples arrive first; any
			// split changes that set.
			return none
		}
		if len(sel.OrderBy) > 0 && twoPhaseSpec(cat, sel, streamName) == nil {
			return none
		}
		if col, ok := bestRangeCol(sets); ok {
			return Verdict{Mode: PartRange, Col: col, Ranges: sets}
		}
		return Verdict{Mode: PartRoundRobin}
	}
	tp := twoPhaseSpec(cat, sel, streamName)
	if tp == nil {
		// No valid two-phase form (non-mergeable aggregate, computed plain
		// item, unordered TOP). Hash co-location still makes per-partition
		// results exact when the full group key routes to one partition:
		// require a plain first grouping key and concatenate.
		if len(sel.OrderBy) > 0 || sel.Top >= 0 || len(sel.GroupBy) == 0 {
			return none
		}
		key, ok := plainStreamCol(sel.GroupBy[0], names)
		if !ok {
			return none
		}
		v := Verdict{Mode: PartHash, Col: key}
		if len(sets) > 0 {
			v.Ranges = sets
		}
		return v
	}
	// Hashing any one grouping column co-locates equal full keys: equal
	// full key implies equal first key implies same partition. Each
	// group's state then lives on a single partition, so its result is
	// final there and concatenates, unless an ORDER BY or TOP needs the
	// combining merge (combineSpec), where even AVG combines bit-exactly.
	if tp.nKeys > 0 {
		if key, ok := plainStreamCol(sel.GroupBy[0], names); ok {
			v := Verdict{Mode: PartHash, Col: key}
			if len(sets) > 0 {
				v.Ranges = sets
			}
			return v
		}
	}
	// Expression keys and global aggregates: any disjoint split works —
	// the combining merge re-groups across partitions.
	if col, ok := bestRangeCol(sets); ok {
		return Verdict{Mode: PartRange, Col: col, Ranges: sets}
	}
	return Verdict{Mode: PartRoundRobin}
}

// plainStreamCol reports whether g is a bare (possibly qualified) column
// reference naming a stream column, returning the bare name.
func plainStreamCol(g expr.Expr, names []string) (string, bool) {
	col, ok := g.(*expr.Col)
	if !ok {
		return "", false
	}
	key := col.Name
	if k := strings.LastIndexByte(key, '.'); k >= 0 {
		key = key[k+1:]
	}
	if !slices.Contains(names, key) {
		return "", false
	}
	return key, true
}

// rowLocalExpr reports whether evaluating x over a subset of the stream's
// rows yields the same per-row values as over the whole stream. Scalar
// sub-queries and now() are evaluated per firing (partition clones fire
// independently), and session variables can change between firings, so
// all three disqualify.
func rowLocalExpr(cat *Catalog, x expr.Expr) bool {
	switch n := x.(type) {
	case nil:
		return true
	case *expr.Const:
		return true
	case *expr.Col:
		if _, isVar := cat.Var(n.Name); isVar {
			return false
		}
		return true
	case *expr.Bin:
		return rowLocalExpr(cat, n.L) && rowLocalExpr(cat, n.R)
	case *expr.Not:
		return rowLocalExpr(cat, n.E)
	case *expr.Neg:
		return rowLocalExpr(cat, n.E)
	case *expr.Between:
		return rowLocalExpr(cat, n.E) && rowLocalExpr(cat, n.Lo) && rowLocalExpr(cat, n.Hi)
	case *expr.InList:
		return rowLocalExpr(cat, n.E)
	case *expr.Like:
		return rowLocalExpr(cat, n.E)
	case *expr.Case:
		for _, w := range n.Whens {
			if !rowLocalExpr(cat, w.Cond) || !rowLocalExpr(cat, w.Then) {
				return false
			}
		}
		return rowLocalExpr(cat, n.Else)
	case *expr.Call:
		if n.Name == "now" {
			return false
		}
		for _, a := range n.Args {
			if !rowLocalExpr(cat, a) {
				return false
			}
		}
		return true
	}
	return false // sql.SubqueryExpr and anything unrecognised
}
