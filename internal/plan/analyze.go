package plan

import (
	"fmt"
	"strings"

	"datacell/internal/basket"
	"datacell/internal/core"
	"datacell/internal/sql"
)

// Analysis is the result of the first compilation phase of a continuous
// select (or insert … select). It captures everything the wiring phase
// needs — the output basket, the consumed inputs with their firing
// thresholds, and the read-only side baskets — without committing to a
// factory topology. Wire builds the classic standalone factory; when the
// statement consumes exactly one stream, Scan additionally exposes the
// query as a reusable StreamScan artifact that the engine's query groups
// can wire under any of the paper's multi-query sharing strategies.
type Analysis struct {
	Name       string
	Out        *basket.Basket
	Inputs     []*basket.Basket
	Thresholds []int
	LockOnly   []*basket.Basket
	// Scan is non-nil when the statement is shareable: a continuous query
	// whose basket expressions consume exactly one stream.
	Scan *StreamScan

	cat  *Catalog
	sel  *sql.SelectStmt
	cols []string
}

// StreamScan is the reusable basket-expression artifact of one analyzed
// continuous query: the single stream it consumes and a Run body that
// executes the full plan once over an arbitrary basket holding that
// stream's tuples. The physical baskets are substituted per firing, so the
// same compiled query runs unchanged over a private replica
// (separate-baskets), the shared stream basket (shared-baskets), a chain
// basket (partial-deletes) — and, partitioned, over any partition of the
// stream with results staged into a per-partition basket.
type StreamScan struct {
	Query     string
	Stream    string         // catalog name of the consumed stream
	In        *basket.Basket // the catalog stream basket itself
	Out       *basket.Basket
	LockOnly  []*basket.Basket
	Threshold int
	// Part is the plan's partitionability verdict: range for row-local
	// predicate-window selects with a sargable predicate (Part.Col names
	// the routing column, Part.Ranges the per-column necessary-condition
	// sets — tuples outside Part.Set() prune to the catch-all),
	// round-robin for other row-local selects (any disjoint split of the
	// stream yields the same results), hash for grouped plans (Part.Col
	// names the stream column whose equal values must co-locate), none
	// when the plan must see the whole stream and stays at one partition.
	Part Verdict
	// Combine, when non-nil, is the two-phase decomposition the kernel
	// wires under partitioned execution: clones run Combine.Partial
	// (staging mergeable partial-aggregate state) and a combining merge
	// emitter folds the staged partials into final results. Run remains
	// the single-partition body; unpartitioned wirings ignore Combine.
	Combine *core.Combine
	// Run executes the query once with `in` substituted for the stream,
	// appending results to `out` (the query's result basket, or a
	// partition staging basket with the same schema). With report == nil
	// the query consumes (deletes) the tuples its basket expression covers
	// from `in`; with report non-nil it leaves `in` untouched and reports
	// the covered positions instead. Caller holds the locks of in, out and
	// LockOnly.
	Run func(in, out *basket.Basket, report func(covered []int32)) error
}

// StreamQuery adapts the artifact to the kernel's generalized multi-query
// strategy wirings.
func (s *StreamScan) StreamQuery() core.StreamQuery {
	return core.StreamQuery{
		Name:      s.Query,
		Threshold: s.Threshold,
		Out:       s.Out,
		LockOnly:  s.LockOnly,
		Fire:      s.Run,
		Combine:   s.Combine,
	}
}

// Analyze runs the first compilation phase of a continuous statement. It
// creates the output basket (like Compile would) but registers nothing
// with a scheduler; call Wire for the standalone factory, or hand
// Analysis.Scan to a strategy wiring. Statements other than continuous
// selects and insert…selects (with-blocks, DDL) are not analyzable.
func Analyze(cat *Catalog, stmt sql.Statement, name string) (*Analysis, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		if !s.IsContinuous() {
			return nil, fmt.Errorf("plan: %s: not a continuous query", name)
		}
		return analyzeSelect(cat, s, name, "", nil)
	case *sql.InsertStmt:
		if !s.Query.IsContinuous() {
			return nil, fmt.Errorf("plan: %s: not a continuous query", name)
		}
		return analyzeSelect(cat, s.Query, name, s.Target, s.Cols)
	}
	return nil, fmt.Errorf("plan: cannot analyze %T as a continuous query", stmt)
}

// analyzeSelect is the analysis phase of continuous-select compilation:
// type-check via prototype execution, create the target, and derive the
// firing structure. An empty target name auto-creates "<name>_out".
func analyzeSelect(cat *Catalog, s *sql.SelectStmt, name, target string, cols []string) (*Analysis, error) {
	proto, err := protoEnv(cat).execSelect(s)
	if err != nil {
		return nil, fmt.Errorf("plan: %s: %w", name, err)
	}
	if target == "" {
		target = strings.ToLower(name) + "_out"
	}
	out, err := ensureTarget(cat, target, cols, proto)
	if err != nil {
		return nil, err
	}
	inputs, thresholds := consumedInputs(cat, s)
	if len(inputs) == 0 {
		return nil, fmt.Errorf("plan: %s: continuous query consumes no baskets", name)
	}
	a := &Analysis{
		Name:       name,
		Out:        out,
		Inputs:     inputs,
		Thresholds: thresholds,
		LockOnly:   lockOnlyBaskets(cat, s, inputs),
		cat:        cat,
		sel:        s,
		cols:       cols,
	}
	if len(inputs) == 1 {
		a.Scan = a.newStreamScan()
	}
	return a, nil
}

// newStreamScan builds the shareable artifact of a single-stream analysis.
func (a *Analysis) newStreamScan() *StreamScan {
	stream := a.Inputs[0]
	cat, sel, cols := a.cat, a.sel, a.cols
	streamName := stream.Name()
	// Side baskets are computed against an empty input set: a direct
	// (non-consuming) scan of the stream itself must be locked too when
	// the factory's firing input is a substituted basket.
	lockOnly := lockOnlyBaskets(cat, sel, nil)
	ss := &StreamScan{
		Query:     a.Name,
		Stream:    streamName,
		In:        stream,
		Out:       a.Out,
		LockOnly:  lockOnly,
		Threshold: a.Thresholds[0],
		Part:      partitionVerdict(cat, sel, streamName),
		Run: func(in, out *basket.Basket, report func(covered []int32)) error {
			e := newEnv(cat)
			e.redirectFrom, e.redirectTo = streamName, in
			e.arena = getArena()
			defer putArena(e.arena)
			if report != nil {
				e.onCovered = func(b *basket.Basket, covered []int32) bool {
					if b != in {
						return false
					}
					report(covered)
					return true
				}
			}
			rel, err := e.execSelect(sel)
			if err != nil {
				return err
			}
			if rel.Len() == 0 {
				return nil
			}
			rel, err = conformToTarget(rel, out, cols)
			if err != nil {
				return err
			}
			_, err = out.AppendLocked(rel)
			return err
		},
	}
	// A plan whose partitions' results do not simply concatenate attaches
	// its compiled two-phase form, so the strategy wirings stage partial
	// states and fold them with a combining merge.
	if tp := combineSpec(cat, sel, streamName, ss.Part); tp != nil {
		ss.Combine = buildCombine(cat, sel, streamName, tp, cols)
	}
	return ss
}

// Wire is the second compilation phase: it builds the classic standalone
// factory that fires on the analysis' inputs directly and consumes its
// basket expressions in place.
func (a *Analysis) Wire() (*Compiled, error) {
	outputs := append([]*basket.Basket{a.Out}, a.LockOnly...)
	cat, sel, out, cols := a.cat, a.sel, a.Out, a.cols
	lastGens := newGenTracker(a.Inputs)
	f, err := core.NewFactory(a.Name, a.Inputs, outputs, func(ctx *core.Context) error {
		lastGens.update()
		e := newEnv(cat)
		e.arena = getArena()
		defer putArena(e.arena)
		rel, err := e.execSelect(sel)
		if err != nil {
			return err
		}
		if rel.Len() == 0 {
			return nil
		}
		rel, err = conformToTarget(rel, out, cols)
		if err != nil {
			return err
		}
		_, err = out.AppendLocked(rel)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Fire only on new arrivals: a predicate window can leave residual
	// tuples in its inputs, which must not retrigger the query until the
	// stream moves (otherwise the factory spins on an unchanged basket).
	f.SetGuard(func(*core.Context) bool { return lastGens.changed() })
	for i, th := range a.Thresholds {
		if th > 1 {
			f.SetThreshold(i, th)
		}
	}
	return &Compiled{Name: a.Name, Factory: f, Out: a.Out}, nil
}

// ShareableStream reports the single stream a continuous statement
// consumes, when the statement is eligible for the multi-query sharing
// strategies (exactly one consumed stream basket). It performs the same
// analysis as Analyze without creating anything.
func ShareableStream(cat *Catalog, stmt sql.Statement) (string, bool) {
	var sel *sql.SelectStmt
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		sel = s
	case *sql.InsertStmt:
		sel = s.Query
	default:
		return "", false
	}
	if !sel.IsContinuous() {
		return "", false
	}
	inputs, _ := consumedInputs(cat, sel)
	if len(inputs) != 1 {
		return "", false
	}
	return inputs[0].Name(), true
}
