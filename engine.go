// Package datacell is a stream engine built on top of a relational
// column-store kernel, reproducing the DataCell architecture (Liarou,
// Goncalves, Idreos — EDBT 2009).
//
// Incoming tuples are appended to baskets (temporary stream tables);
// continuous queries are compiled into factories — query plans with saved
// execution state — that a Petri-net scheduler fires whenever their input
// baskets hold tuples. Tuples consumed by a query's basket expression are
// removed from their baskets, which makes windows move. Basket expressions
// ([select … from …] sub-queries) generalise sliding windows to predicate
// windows, and collecting tuples in baskets enables batch processing.
//
// Typical use:
//
//	eng := datacell.New(datacell.WithStrategy(datacell.StrategyShared))
//	eng.Exec(`create basket trades (sym string, px float)`)
//	eng.RegisterQuery("big", `select * from [select * from trades] t where t.px > 100`)
//	sub, _ := eng.SubscribeQuery("big", datacell.SubscribeOptions{
//		OnEmit: func(em datacell.Emit) { fmt.Println(em.Table.Rows) },
//	})
//	eng.Start()
//	eng.Append("trades", datacell.Row{"ACME", 250.0})
//	// … later: sub.Cancel()
package datacell

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/core"
	"datacell/internal/expr"
	"datacell/internal/histo"
	"datacell/internal/ingest"
	"datacell/internal/obs"
	"datacell/internal/plan"
	"datacell/internal/sql"
	"datacell/internal/stream"
	"datacell/internal/vector"
)

// Row is one tuple in the public API. Supported element types: int, int32,
// int64, float64, bool, string, time.Time.
type Row []any

// Table is a materialised query result or delivered batch.
type Table struct {
	Cols []string
	Rows []Row
}

// Len returns the number of rows.
func (t Table) Len() int { return len(t.Rows) }

// QueryInfo describes one registered continuous query. Text carries the
// rendered output of informational statements (explain, explain analyze)
// and is empty for everything else.
type QueryInfo struct {
	Name       string
	Continuous bool
	Text       string
}

// Engine is a DataCell instance: a catalog of baskets and tables, a
// Petri-net scheduler of factories, and the stream periphery. Queries are
// registered with Exec/RegisterQuery; streams are fed with Append or TCP
// receptors; results are consumed with Subscribe or TCP emitters.
//
// Multi-query processing is organised per stream by query groups: every
// continuous query consuming exactly one stream compiles to a reusable
// stream-scan artifact, and the group wires all of a stream's artifacts
// under the engine's strategy — separate private baskets (Figure 2a, the
// default), one shared basket (Figure 2b) or a partial-delete chain
// (Figure 2c). The strategy is selected with SetStrategy or the pragma
// `set strategy = '…'` and groups rewire live when queries come and go.
// Queries consuming several streams keep a private replica per stream.
type Engine struct {
	mu          sync.Mutex
	cat         *plan.Catalog
	sch         *core.Scheduler
	strategy    Strategy
	parallelism int // stream partitions for partitionable queries
	queries     map[string]*queryRec
	groups      map[string]*queryGroup   // stream name -> sharing group
	subs        map[string]*queryEmitter // query name -> result fan-out
	tcpOut      []*stream.TCPEmitter
	started     bool
	qctr        int

	// initErr records the first construction Option that failed; Err and
	// Start surface it (New keeps its single-value signature so zero-arg
	// call sites stay source compatible).
	initErr error

	// lastRecovery keeps the report of the most recent WAL Recover pass
	// for Snapshot (nil until a recovery has run).
	lastRecovery *RecoveryInfo

	// wal is the engine's write-ahead logging state (nil until OpenWAL):
	// per-stream logs that receptor deliveries tee into and Recover
	// replays from.
	wal *walState

	// Adaptive parallelism: autoParallel hands the partition count of
	// groups without a per-stream override to the load controller;
	// adaptOpts tunes the controllers; adaptStop/adaptDone bound the
	// sampling metronome goroutine Start launches.
	autoParallel bool
	adaptOpts    AdaptOptions
	adaptStop    chan struct{}
	adaptDone    chan struct{}

	// Observability: reg holds the engine-owned event counters (rewires,
	// recoveries, registrations, controller decisions); trace is the
	// bounded ring of engine events /events and \events render; qlat maps
	// query name to its ingest-to-emit latency histogram, attached to the
	// query's factories at every (re)wire; ev caches the counter handles;
	// admin is the opt-in HTTP server (nil until ServeAdmin).
	reg   *obs.Registry
	trace *obs.Trace
	qlat  map[string]*histo.H
	ev    engineCounters
	admin *AdminServer
}

// engineCounters are the registry-owned control-plane counters: every one
// counts an event that also lands in the trace ring.
type engineCounters struct {
	rewires    *obs.Counter
	recoveries *obs.Counter
	registers  *obs.Counter
	removes    *obs.Counter
	decisions  *obs.Counter // controller Decide calls that produced a verdict
	applies    *obs.Counter // verdicts that triggered a rewire
}

// queryRec tracks one registered continuous query: shareable queries are
// group members (wired and rewired by their stream's query group), all
// others own a standalone compiled factory fed by private replica taps.
type queryRec struct {
	name     string
	out      *basket.Basket
	member   *groupMember              // group-wired single-stream queries
	compiled *plan.Compiled            // standalone path
	taps     map[string]*basket.Basket // stream name -> private replica
}

// factories returns the factories currently executing the query — one for
// standalone and unpartitioned group wirings, one clone per partition
// under partitioned wirings (empty only while a group rewire is in
// flight). Group rewires replace a member's factories under e.mu, so
// callers must hold e.mu.
func (r *queryRec) factories() []*core.Factory {
	if r.compiled != nil {
		return []*core.Factory{r.compiled.Factory}
	}
	if r.member != nil {
		return r.member.factories
	}
	return nil
}

// New returns an empty engine using the separate-baskets strategy at
// parallelism 1, then applies the given Options in order. Options route
// through the same internal setters as the Set* methods and SQL pragmas,
// so New(WithStrategy(s)) and New() + SetStrategy(s) are interchangeable.
// A failing option is recorded rather than returned (keeping the
// historical single-value signature); Err reports it and Start refuses to
// run a misconstructed engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		cat:         plan.NewCatalog(),
		sch:         core.NewScheduler(),
		strategy:    StrategySeparate,
		parallelism: 1,
		queries:     map[string]*queryRec{},
		groups:      map[string]*queryGroup{},
		subs:        map[string]*queryEmitter{},
		qlat:        map[string]*histo.H{},
	}
	e.initObs()
	for _, opt := range opts {
		if err := opt(e); err != nil && e.initErr == nil {
			e.initErr = err
		}
	}
	return e
}

// Err reports the first construction Option that failed, or nil for a
// cleanly constructed engine.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.initErr
}

// SetClock replaces the engine clock (now(), arrival timestamps). Intended
// for simulated-time benchmark runs and deterministic tests.
func (e *Engine) SetClock(now func() time.Time) { e.cat.SetClock(now) }

// Catalog exposes the underlying catalog for advanced wiring (benchmark
// harnesses, custom factories).
func (e *Engine) Catalog() *plan.Catalog { return e.cat }

// Scheduler exposes the underlying scheduler for advanced wiring.
func (e *Engine) Scheduler() *core.Scheduler { return e.sch }

// Exec parses and executes a script of semicolon-separated statements.
// DDL, declares, sets and one-time inserts take effect immediately;
// continuous queries are registered under generated names q1, q2, ….
// It returns one QueryInfo per statement.
func (e *Engine) Exec(src string) ([]QueryInfo, error) {
	stmts, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	var infos []QueryInfo
	for _, s := range stmts {
		e.mu.Lock()
		e.qctr++
		name := fmt.Sprintf("q%d", e.qctr)
		e.mu.Unlock()
		info, err := e.register(name, s)
		if err != nil {
			return infos, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// RegisterQuery registers a single (usually continuous) statement under an
// explicit name. The name identifies the query for Subscribe and Out.
func (e *Engine) RegisterQuery(name, src string) error {
	s, err := sql.ParseOne(src)
	if err != nil {
		return err
	}
	_, err = e.register(name, s)
	return err
}

func (e *Engine) register(name string, s sql.Statement) (QueryInfo, error) {
	// `explain <stmt>` and `explain analyze <query>` are informational:
	// their rendered text comes back in QueryInfo.Text, nothing registers.
	if ex, ok := s.(*sql.ExplainStmt); ok {
		var text string
		var err error
		if ex.Analyze {
			text, err = e.ExplainAnalyze(ex.Query)
		} else {
			text, err = e.explainStatement(ex.Stmt)
		}
		return QueryInfo{Name: name, Text: text}, err
	}
	// `set strategy = '…'` and `set parallelism = N` are engine pragmas,
	// not session variables.
	if set, ok := s.(*sql.SetStmt); ok {
		switch {
		case strings.EqualFold(set.Name, "strategy"):
			return QueryInfo{Name: name}, e.execStrategyPragma(set)
		case strings.EqualFold(set.Name, "parallelism"):
			return QueryInfo{Name: name}, e.execParallelismPragma(set)
		}
		if set.On != "" {
			return QueryInfo{}, fmt.Errorf("datacell: 'on %s' applies only to the parallelism pragma", set.On)
		}
	}
	if !isContinuousStmt(s) {
		if _, err := plan.Compile(e.cat, s, name); err != nil {
			return QueryInfo{}, err
		}
		return QueryInfo{Name: name}, nil
	}
	// Phase 1: analysis. A query consuming exactly one stream becomes a
	// member of that stream's query group, wired (and rewired) under the
	// engine strategy; everything else takes the standalone path.
	if _, isWith := s.(*sql.WithBlock); !isWith {
		a, err := plan.Analyze(e.cat, s, name)
		if err != nil {
			return QueryInfo{}, err
		}
		if a.Scan != nil {
			return e.registerScan(name, a)
		}
	}
	return e.registerStandalone(name, s)
}

// execStrategyPragma applies `set strategy = '<name>'`.
func (e *Engine) execStrategyPragma(set *sql.SetStmt) error {
	if set.On != "" {
		return fmt.Errorf("datacell: the strategy pragma is engine-wide ('on %s' not supported)", set.On)
	}
	c, ok := set.Value.(*expr.Const)
	if !ok || c.Val.Kind != vector.Str {
		return fmt.Errorf("datacell: set strategy expects a string literal ('separate', 'shared' or 'partial')")
	}
	s, err := ParseStrategy(c.Val.S)
	if err != nil {
		return err
	}
	return e.SetStrategy(s)
}

// execParallelismPragma applies `set parallelism = N | auto [on stream]`
// and `set parallelism = default on stream`. N pins the count (engine-
// wide or for one stream), auto hands it to the load controller, and
// default clears a per-stream override.
func (e *Engine) execParallelismPragma(set *sql.SetStmt) error {
	word := ""
	n, isInt := 0, false
	switch v := set.Value.(type) {
	case *expr.Const:
		switch v.Val.Kind {
		case vector.Int:
			n, isInt = int(v.Val.I), true
		case vector.Str:
			word = strings.ToLower(v.Val.S)
		}
	case *expr.Col:
		// Bare identifiers (`auto`, `default`) parse as column refs.
		word = strings.ToLower(v.Name)
	}
	switch {
	case isInt:
		if set.On != "" {
			return e.SetStreamParallelism(set.On, n)
		}
		return e.SetParallelism(n)
	case word == "auto":
		if set.On != "" {
			return e.SetStreamParallelismAuto(set.On)
		}
		return e.SetParallelismAuto()
	case word == "default":
		if set.On == "" {
			return fmt.Errorf("datacell: set parallelism = default needs 'on <stream>' (it clears a per-stream override)")
		}
		return e.ClearStreamParallelism(set.On)
	}
	return fmt.Errorf("datacell: set parallelism expects an integer literal, 'auto' or 'default'")
}

// registerScan adds a shareable query to its stream's group (phase 2, the
// group wiring path).
func (e *Engine) registerScan(name string, a *plan.Analysis) (QueryInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g, err := e.addScanLocked(name, a)
	if err != nil {
		return QueryInfo{}, err
	}
	if err := e.rewireLocked(g); err != nil {
		return QueryInfo{}, err
	}
	return QueryInfo{Name: name, Continuous: true}, nil
}

// addScanLocked records a shareable query as a member of its stream's
// group without rewiring. Caller holds e.mu and must rewire the returned
// group before releasing it.
func (e *Engine) addScanLocked(name string, a *plan.Analysis) (*queryGroup, error) {
	if _, dup := e.queries[name]; dup {
		return nil, fmt.Errorf("datacell: query %q already registered", name)
	}
	g, err := e.groupLocked(a.Scan.Stream)
	if err != nil {
		return nil, err
	}
	m := &groupMember{name: name, scan: a.Scan}
	g.scans = append(g.scans, m)
	// The out basket may be a revived leftover of a removed query with the
	// same name, closed when that query's subscription emitter stopped.
	a.Out.Reopen()
	e.queries[name] = &queryRec{name: name, out: a.Out, member: m}
	e.queryRegisteredLocked(name, "group member on stream "+a.Scan.Stream)
	return g, nil
}

// NamedQuery pairs a query name with its SQL source for bulk
// registration.
type NamedQuery struct {
	Name string
	SQL  string
}

// RegisterQueries registers a set of continuous queries at once. Shareable
// queries are collected first and every affected stream group is rewired
// a single time, which matters when installing hundreds of queries over
// one stream: a rewire is linear in the group size, so one-by-one
// registration is quadratic. Non-shareable statements fall back to the
// one-by-one path. On error, queries registered so far stay registered.
func (e *Engine) RegisterQueries(qs []NamedQuery) error {
	type analyzed struct {
		name string
		a    *plan.Analysis
	}
	var scans []analyzed
	for _, nq := range qs {
		s, err := sql.ParseOne(nq.SQL)
		if err != nil {
			return fmt.Errorf("datacell: query %q: %w", nq.Name, err)
		}
		_, isWith := s.(*sql.WithBlock)
		if !isContinuousStmt(s) || isWith {
			if _, err := e.register(nq.Name, s); err != nil {
				return err
			}
			continue
		}
		a, err := plan.Analyze(e.cat, s, nq.Name)
		if err != nil {
			return err
		}
		if a.Scan == nil {
			if _, err := e.registerStandalone(nq.Name, s); err != nil {
				return err
			}
			continue
		}
		scans = append(scans, analyzed{name: nq.Name, a: a})
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	dirty := map[*queryGroup]bool{}
	var firstErr error
	for _, sc := range scans {
		g, err := e.addScanLocked(sc.name, sc.a)
		if err != nil {
			firstErr = err
			break
		}
		dirty[g] = true
	}
	// Rewire even on error: members added before the failure are
	// registered and must be executing, not sitting in an unwired group.
	for g := range dirty {
		if err := e.rewireLocked(g); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// registerStandalone compiles a multi-stream query or with-block to its
// own factory (phase 2, the standalone wiring path). Stream consumption
// is routed through a private replica per stream, attached as a tap to
// each stream's group so the replicating wiring keeps feeding it.
func (e *Engine) registerStandalone(name string, s sql.Statement) (QueryInfo, error) {
	privates := map[string]*basket.Basket{}
	if err := e.rewriteToPrivate(name, s, privates); err != nil {
		return QueryInfo{}, err
	}
	c, err := plan.Compile(e.cat, s, name)
	if err != nil {
		return QueryInfo{}, err
	}
	if c.Factory == nil {
		return QueryInfo{Name: name}, nil
	}
	e.mu.Lock()
	if _, dup := e.queries[name]; dup {
		e.mu.Unlock()
		return QueryInfo{}, fmt.Errorf("datacell: query %q already registered", name)
	}
	c.Out.Reopen() // may be a closed leftover of a removed same-name query
	e.queries[name] = &queryRec{name: name, out: c.Out, compiled: c, taps: privates}
	e.queryRegisteredLocked(name, "standalone factory")
	// The compiled factory's first input is the private replica its
	// basket expression scans; its sys_ts column carries the receptor
	// arrival stamp the latency histogram measures against.
	if ins := c.Factory.Inputs(); len(ins) > 0 {
		c.Factory.SetLatency(e.qlat[name], ins[0], e.cat.Now)
	}
	for streamName, priv := range privates {
		g, gerr := e.groupLocked(streamName)
		if gerr != nil {
			e.mu.Unlock()
			return QueryInfo{}, gerr
		}
		g.taps = append(g.taps, priv)
		if gerr := e.rewireLocked(g); gerr != nil {
			e.mu.Unlock()
			return QueryInfo{}, gerr
		}
	}
	e.mu.Unlock()
	if err := e.sch.Register(c.Factory); err != nil {
		return QueryInfo{}, err
	}
	return QueryInfo{Name: name, Continuous: true}, nil
}

func isContinuousStmt(s sql.Statement) bool {
	switch t := s.(type) {
	case *sql.SelectStmt:
		return t.IsContinuous()
	case *sql.InsertStmt:
		return t.Query.IsContinuous()
	case *sql.WithBlock:
		return true
	}
	return false
}

// rewriteToPrivate renames every stream reference inside the statement's
// basket expressions to a fresh private basket owned by this query,
// creating the private basket with the stream's schema.
func (e *Engine) rewriteToPrivate(qname string, s sql.Statement, privates map[string]*basket.Basket) error {
	var walkSel func(sel *sql.SelectStmt, inBasket bool) error
	walkSel = func(sel *sql.SelectStmt, inBasket bool) error {
		for i := range sel.From {
			tr := &sel.From[i]
			switch {
			case tr.Basket != nil:
				if err := walkSel(tr.Basket, true); err != nil {
					return err
				}
			case tr.Sub != nil:
				if err := walkSel(tr.Sub, inBasket); err != nil {
					return err
				}
			default:
				if !inBasket {
					continue
				}
				src := e.cat.Basket(tr.Name)
				if src == nil || e.cat.KindOf(tr.Name) != plan.KindBasket {
					continue
				}
				privName := tr.Name + "$" + strings.ToLower(qname)
				if e.cat.Basket(privName) == nil {
					names, types := src.UserSchema()
					if _, err := e.cat.CreateBasket(privName, names, types, plan.KindBasket); err != nil {
						return err
					}
				}
				privates[tr.Name] = e.cat.Basket(privName)
				if tr.Alias == tr.Name {
					tr.Alias = tr.Name // keep original alias for column refs
				}
				tr.Name = privName
			}
		}
		return nil
	}
	switch t := s.(type) {
	case *sql.SelectStmt:
		return walkSel(t, false)
	case *sql.InsertStmt:
		return walkSel(t.Query, false)
	case *sql.WithBlock:
		return walkSel(t.Basket, true)
	}
	return nil
}

// Explain returns a human-readable description of how a statement would
// be compiled: firing inputs with thresholds, locked side inputs, the
// operator pipeline, and — for continuous queries — the multi-query
// wiring it would receive under the engine's current strategy. Nothing is
// created or registered.
func (e *Engine) Explain(src string) (string, error) {
	s, err := sql.ParseOne(src)
	if err != nil {
		return "", err
	}
	return e.explainStatement(s)
}

// explainStatement renders the compile/wiring description of one parsed
// statement — the body of Explain, shared with the SQL-level `explain`.
func (e *Engine) explainStatement(s sql.Statement) (string, error) {
	base, err := plan.Explain(e.cat, s, "query")
	if err != nil {
		return "", err
	}
	if !isContinuousStmt(s) {
		return base, nil
	}
	var b strings.Builder
	b.WriteString(base)
	if streamName, ok := plan.ShareableStream(e.cat, s); ok {
		verdict, _ := plan.Partitionability(e.cat, s)
		e.mu.Lock()
		strat := e.strategy
		par := e.parallelism
		members := 0
		forced := false
		pinned := false
		ingestShards := 0
		ingestPath := ""
		auto := e.autoParallel
		autoP := 1
		var rewires int64
		lastReason := ""
		if g := e.groups[streamName]; g != nil {
			members = len(g.scans)
			forced = len(g.taps) > 0
			auto = e.groupAutoLocked(g)
			rewires = g.rewires
			lastReason = g.lastRewireReason
			par = e.groupParallelismLocked(g)
			autoP = par
			for _, l := range g.listeners {
				ingestShards += len(l.Addrs())
			}
			if ingestShards > 0 {
				ingestPath = g.target().Peek().Describe()
			}
			if strat != StrategySeparate && !forced && verdict.Mode != plan.PartNone && members > 0 {
				// The shared and partial wirings split the stream once for
				// the whole group, so the installed members constrain the
				// routing this query would actually receive.
				combined := plan.CombineVerdicts(g.partitioning(), verdict)
				pinned = combined.Mode == plan.PartNone
				verdict = combined
			}
		} else if auto {
			par, autoP = 1, 1
		}
		e.mu.Unlock()
		fmt.Fprintf(&b, "wiring: query group on stream %s, strategy %s (%d members installed)\n",
			streamName, strat, members)
		if forced && strat != StrategySeparate {
			b.WriteString("wiring: group forced to separate baskets (stream has standalone consumers)\n")
		}
		switch {
		case pinned:
			b.WriteString("wiring: partitioning none (group members pin the stream to one partition)\n")
		case verdict.Mode == plan.PartNone:
			b.WriteString("wiring: partitioning none (plan must see the whole stream)\n")
		case par <= 1:
			fmt.Fprintf(&b, "wiring: partitioning %s available (parallelism 1, single partition)\n",
				verdict.Describe())
		default:
			merge := "merge emitter"
			if plan.TwoPhase(e.cat, s) {
				merge = "combining merge emitter"
			}
			fmt.Fprintf(&b, "wiring: partitioning %s across %d partitions (splitter, %d clones, %s)\n",
				verdict.Describe(), par, par, merge)
			if verdict.Mode == plan.PartRange {
				fmt.Fprintf(&b, "wiring: catch-all partition prunes tuples outside %s from every clone\n",
					verdict.Set())
			}
		}
		if auto {
			fmt.Fprintf(&b, "wiring: parallelism auto (controller target P=%d", autoP)
			if pinned || verdict.Mode == plan.PartNone {
				b.WriteString("; verdict clamps the group to 1, controller refuses scale-up")
			}
			fmt.Fprintf(&b, "; %d rewires", rewires)
			if lastReason != "" {
				fmt.Fprintf(&b, "; last: %s", lastReason)
			}
			b.WriteString(")\n")
		}
		if ingestShards > 0 {
			fmt.Fprintf(&b, "ingest: %d receptor shard(s), delivering to %s\n", ingestShards, ingestPath)
		}
	} else {
		b.WriteString("wiring: standalone factory over private stream replicas (not shareable)\n")
	}
	return b.String(), nil
}

// QueryStats reports the activity counters of one registered continuous
// query, including the stage-timing breakdown explain analyze renders:
// Busy is the fire stage (factory body time), MergeWait/MergeWaits the
// two-phase merge barrier, EmitBusy the emitter's delivery time, and the
// Lat* fields summarise the live ingest-to-emit latency histogram (zero
// until a firing has consumed a receptor-stamped tuple).
type QueryStats struct {
	Name    string
	Fires   int64 // factory activations
	Errors  int64 // activations that returned an error
	LastErr error
	OutRows int64 // tuples appended to the output basket over time
	Pending int   // tuples currently waiting in the output basket

	Busy       time.Duration // cumulative factory body time across current factories
	MergeWaits int64         // completed merge-barrier waits (two-phase wirings)
	MergeWait  time.Duration // cumulative time the merge barrier held results back
	EmitBusy   time.Duration // cumulative emitter delivery time (0 without subscriptions)

	LatCount int64 // ingest-to-emit latency samples recorded
	LatP50   time.Duration
	LatP99   time.Duration
	LatP999  time.Duration
	LatMax   time.Duration
}

// Stats returns activity counters for every registered continuous query,
// sorted by name. Fires/Errors sum over the query's current factories
// (partition clones under partitioned wiring); a group rewire (strategy or
// parallelism switch, membership change) starts fresh factories, so those
// counters restart while OutRows keeps accumulating.
func (e *Engine) Stats() []QueryStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

// statsLocked computes per-query activity counters. Caller holds e.mu
// (factory pointers must be read under it: group rewires replace a
// member's factories concurrently; basket locks nest under e.mu).
func (e *Engine) statsLocked() []QueryStats {
	out := make([]QueryStats, 0, len(e.queries))
	for n, r := range e.queries {
		st := r.out.Stats()
		q := QueryStats{Name: n, OutRows: st.Appended, Pending: r.out.Len()}
		for _, f := range r.factories() {
			if f == nil {
				continue
			}
			q.Fires += f.Fires()
			q.Errors += f.Errors()
			q.Busy += f.Busy()
			if err := f.LastError(); err != nil {
				q.LastErr = err
			}
		}
		if r.member != nil && r.member.merge != nil {
			if b := r.member.merge.Barrier(); b != nil {
				q.MergeWaits = b.Waits()
				q.MergeWait = b.WaitTime()
			}
		}
		if qe := e.subs[n]; qe != nil {
			q.EmitBusy = qe.em.Busy()
		}
		if h := e.qlat[n]; h != nil {
			q.LatCount = h.Count()
			if q.LatCount > 0 {
				q.LatP50 = h.Quantile(0.5)
				q.LatP99 = h.Quantile(0.99)
				q.LatP999 = h.Quantile(0.999)
				q.LatMax = h.Max()
			}
		}
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RemoveQuery unregisters a continuous query: its factory stops firing,
// its stream's query group rewires without it, and its subscriptions end
// (their Emit callbacks are never invoked again once the call returns and
// the in-flight delivery, if any, completes).
func (e *Engine) RemoveQuery(name string) error {
	e.mu.Lock()
	rec, ok := e.queries[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("datacell: unknown query %q", name)
	}
	delete(e.queries, name)
	delete(e.qlat, name)
	e.ev.removes.Inc()
	e.trace.Add(obs.Event{Subsystem: "engine", Kind: "remove", Name: name,
		Reason: "RemoveQuery", Time: e.cat.Now()})
	qe := e.dropQueryEmitterLocked(name)
	var err error
	if rec.member != nil {
		for _, g := range e.groups {
			for i, m := range g.scans {
				if m != rec.member {
					continue
				}
				g.scans = append(g.scans[:i], g.scans[i+1:]...)
				if e2 := e.rewireLocked(g); err == nil {
					err = e2
				}
				break
			}
		}
	}
	for streamName, priv := range rec.taps {
		g := e.groups[streamName]
		if g == nil {
			continue
		}
		for i, t := range g.taps {
			if t == priv {
				g.taps = append(g.taps[:i], g.taps[i+1:]...)
				break
			}
		}
		if e2 := e.rewireLocked(g); err == nil {
			err = e2
		}
	}
	e.mu.Unlock()
	if qe != nil {
		qe.cancelAll()
		qe.em.Stop()
	}
	if rec.compiled != nil && rec.compiled.Factory != nil {
		e.sch.Unregister(rec.compiled.Factory)
		rec.compiled.Factory.WaitIdle()
	}
	return err
}

// Query runs a one-time query immediately and returns its rows.
func (e *Engine) Query(src string) (Table, error) {
	s, err := sql.ParseOne(src)
	if err != nil {
		return Table{}, err
	}
	sel, ok := s.(*sql.SelectStmt)
	if !ok {
		return Table{}, fmt.Errorf("datacell: Query expects a select statement")
	}
	if sel.IsContinuous() {
		return Table{}, fmt.Errorf("datacell: Query is for one-time queries; use RegisterQuery for continuous ones")
	}
	rel, err := plan.ExecuteQuery(e.cat, sel)
	if err != nil {
		return Table{}, err
	}
	return tableOf(rel), nil
}

// Out returns the output basket of a registered continuous query.
func (e *Engine) Out(query string) (*basket.Basket, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.queries[query]
	if !ok {
		return nil, fmt.Errorf("datacell: unknown query %q", query)
	}
	return c.out, nil
}

// ingestPool recycles the staging relations Append converts rows into;
// the basket copies the tuples on ingest, so the staging can go straight
// back to the pool.
var ingestPool = sync.Pool{New: func() any { return &bat.Relation{} }}

// Append feeds rows into a stream basket. Values are converted column
// by column into a pooled staging relation — no per-row boxing — so a
// steady-state Append costs a handful of allocations regardless of the
// batch size.
func (e *Engine) Append(streamName string, rows ...Row) error {
	b := e.cat.Basket(streamName)
	if b == nil {
		return fmt.Errorf("datacell: unknown stream %q", streamName)
	}
	names, types := b.UserSchema()
	rel := ingestPool.Get().(*bat.Relation)
	defer ingestPool.Put(rel)
	rel.Reshape(names, types)
	for _, r := range rows {
		if len(r) != len(types) {
			return fmt.Errorf("datacell: row has %d values, want %d", len(r), len(types))
		}
		for i, x := range r {
			v, err := toValue(x, types[i])
			if err != nil {
				return fmt.Errorf("datacell: column %d: %w", i, err)
			}
			rel.Col(i).Append(v)
		}
	}
	_, err := b.Append(rel)
	return err
}

// IngestOptions tunes a sharded ingest listener group (ListenIngest).
// The zero value means one shard, 256-tuple decode batches and default
// backpressure watermarks.
type IngestOptions struct {
	// Shards is the number of listener shards. With a wildcard port every
	// shard binds its own socket; with a fixed port the shards share the
	// first socket as parallel accept loops.
	Shards int
	// BatchSize bounds how many decoded tuples accumulate before one
	// append into the destination baskets while more input is already
	// buffered on the connection; a sender pause delivers the pending
	// batch immediately.
	BatchSize int
	// HighWater is the destination occupancy (resident tuples) at which a
	// receptor stops reading its socket until the factories drain below
	// LowWater. 0 means 65536; negative disables backpressure.
	HighWater int
	// LowWater is the occupancy below which a stalled receptor resumes
	// (default HighWater/2).
	LowWater int
	// SplitterPath forces deliveries through the stream basket and the
	// splitter transition even when the stream's wiring is partitioned —
	// the legacy ingest path, kept as an escape hatch and as the baseline
	// of differential tests.
	SplitterPath bool
	// IdleTimeout closes a connection whose client sends nothing for this
	// long, so a dead sender stops pinning a shard goroutine. 0 disables
	// the deadline (the default).
	IdleTimeout time.Duration
	// NoWAL exempts this listener from the engine's write-ahead log even
	// when OpenWAL is active (e.g. a throwaway diagnostic tap).
	NoWAL bool
}

// IngestStats is one receptor shard's activity snapshot.
type IngestStats struct {
	Addr      string        // listen address of the shard
	Path      string        // where this shard's listener delivers ("route-at-ingest …" or "stream basket")
	Conns     int64         // connections accepted over the shard's lifetime
	Active    int64         // connections currently open
	TextConns int64         // connections that sniffed as textual
	Frames    int64         // binary frames decoded
	Tuples    int64         // tuples delivered into the kernel
	Invalid   int64         // malformed lines / rejected frames
	TimedOut  int64         // connections closed by the idle read deadline
	WALErrors int64         // batches rejected because the WAL append failed
	Stalls    int64         // backpressure stalls
	StallTime time.Duration // total time spent stalled
	RouteTime time.Duration // total time spent routing batches into the kernel
}

// IngestListener is a running sharded ingest group attached to one
// stream by ListenIngest.
type IngestListener struct {
	eng    *Engine
	stream string
	g      *ingest.Group
	tgt    *ingest.SwitchTarget // the target this listener delivers through
}

// Stream returns the stream the listener feeds.
func (l *IngestListener) Stream() string { return l.stream }

// Addrs returns the bound address of every shard.
func (l *IngestListener) Addrs() []string { return l.g.Addrs() }

// Addr returns the first shard's bound address.
func (l *IngestListener) Addr() string { return l.g.Addrs()[0] }

// Path describes where this listener's batches currently land. A
// SplitterPath listener reports the stream basket even when the
// group-routed listeners deliver straight to partitions.
func (l *IngestListener) Path() string { return l.tgt.Peek().Describe() }

// Stats snapshots every shard's ingest counters.
func (l *IngestListener) Stats() []IngestStats {
	src := l.g.Stats()
	path := l.Path()
	out := make([]IngestStats, len(src))
	for i, s := range src {
		out[i] = IngestStats{
			Addr:      s.Addr,
			Path:      path,
			Conns:     s.Conns,
			Active:    s.Active,
			TextConns: s.TextConns,
			Frames:    s.Frames,
			Tuples:    s.Tuples,
			Invalid:   s.Invalid,
			TimedOut:  s.TimedOut,
			WALErrors: s.WALErrors,
			Stalls:    s.Stalls,
			StallTime: s.StallTime,
			RouteTime: s.RouteTime,
		}
	}
	return out
}

// Close stops the listener's shards and connections and detaches it
// from the stream's group, so Groups()/Explain stop reporting it. It
// detaches only once its shards have stopped delivering, so a WAL
// checkpoint quiesces its target for as long as it can deliver.
// Idempotent.
func (l *IngestListener) Close() {
	l.g.Close()
	l.eng.mu.Lock()
	if g := l.eng.groups[l.stream]; g != nil {
		for i, o := range g.listeners {
			if o == l {
				g.listeners = append(g.listeners[:i], g.listeners[i+1:]...)
				break
			}
		}
	}
	l.eng.mu.Unlock()
}

// ListenIngest attaches a sharded ingest group to a stream: every
// accepted connection is sniffed for the binary batch wire protocol
// (falling back to pipe-separated textual tuples) and decoded
// independently, and decoded batches are routed by the stream's current
// wiring — straight into partition baskets when the wiring is
// partitioned group-wide, into the stream basket otherwise. Receptors
// push back on their sockets when destination occupancy passes the
// high-water mark.
func (e *Engine) ListenIngest(streamName, addr string, o IngestOptions) (*IngestListener, error) {
	b := e.cat.Basket(streamName)
	if b == nil {
		return nil, fmt.Errorf("datacell: unknown stream %q", streamName)
	}
	e.mu.Lock()
	g, err := e.groupLocked(streamName)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	tgt := g.target()
	if o.SplitterPath {
		tgt = ingest.NewSwitchTarget(ingest.BasketSink(b))
	}
	// Write-ahead tee: when the engine has a WAL open, every accepted
	// batch is logged to the stream's log before it is routed.
	var blog ingest.BatchLog
	if e.wal != nil && !o.NoWAL {
		lg, _, werr := e.walLogForLocked(streamName)
		if werr != nil {
			e.mu.Unlock()
			return nil, werr
		}
		blog = lg
	}
	// The listener joins the group under the same hold of e.mu that
	// starts it, so a WAL checkpoint quiescing the group's ingest
	// (quiesceIngestLocked) sees every target that can deliver.
	defer e.mu.Unlock()
	names, types := b.UserSchema()
	ig, err := ingest.Listen(streamName, addr, names, types, tgt, ingest.Options{
		Shards:      o.Shards,
		BatchSize:   o.BatchSize,
		HighWater:   o.HighWater,
		LowWater:    o.LowWater,
		WAL:         blog,
		IdleTimeout: o.IdleTimeout,
	})
	if err != nil {
		return nil, err
	}
	l := &IngestListener{eng: e, stream: streamName, g: ig, tgt: tgt}
	g.listeners = append(g.listeners, l)
	return l, nil
}

// ListenTCP attaches an ingest listener to a stream: every connection
// received on the address streams tuples — binary frames or
// pipe-separated lines, auto-detected — into the stream. It returns the
// bound address. It is ListenIngest with a single shard.
func (e *Engine) ListenTCP(streamName, addr string) (string, error) {
	l, err := e.ListenIngest(streamName, addr, IngestOptions{})
	if err != nil {
		return "", err
	}
	return l.Addr(), nil
}

// ServeTCP attaches a TCP emitter to a continuous query's results. Every
// connected client receives all subsequent result tuples, one line each.
func (e *Engine) ServeTCP(query, addr string) (string, error) {
	out, err := e.Out(query)
	if err != nil {
		return "", err
	}
	te, err := stream.ServeTCP(addr, stream.NewEmitter(out))
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.tcpOut = append(e.tcpOut, te)
	started := e.started
	e.mu.Unlock()
	if started {
		te.Emitter.Start()
	}
	return te.Addr(), nil
}

// Start launches the scheduler and all subscribed emitters. An engine
// with an open WAL recovers first: any un-replayed log tail is driven
// through the router before the first factory fires. An engine whose
// construction Options failed (Err != nil) refuses to start.
func (e *Engine) Start() error {
	e.mu.Lock()
	walOpen := e.wal != nil
	initErr := e.initErr
	e.mu.Unlock()
	if initErr != nil {
		return fmt.Errorf("datacell: engine misconstructed: %w", initErr)
	}
	if walOpen {
		if _, err := e.Recover(); err != nil {
			return err
		}
	}
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return fmt.Errorf("datacell: engine already started")
	}
	e.started = true
	qes := e.subEmittersLocked()
	touts := append([]*stream.TCPEmitter(nil), e.tcpOut...)
	stop, done := make(chan struct{}), make(chan struct{})
	e.adaptStop, e.adaptDone = stop, done
	e.mu.Unlock()
	if err := e.sch.Start(); err != nil {
		return err
	}
	// The load metronome samples every group each tick; controllers act
	// only on groups under `set parallelism = auto`, but the windowed
	// rate fields of GroupInfo update for all.
	go e.adaptLoop(stop, done)
	for _, qe := range qes {
		qe.em.Start()
	}
	for _, t := range touts {
		t.Emitter.Start()
	}
	return nil
}

// Drain blocks until the factory network is quiescent or the timeout
// elapses, reporting whether it drained. Useful after feeding a known
// amount of input. A successful drain checkpoints the WAL: everything
// logged so far has been consumed by the kernel, so recovery can skip it.
func (e *Engine) Drain(timeout time.Duration) bool {
	drained := e.sch.WaitQuiescent(timeout)
	if drained {
		e.checkpointWAL(false)
	}
	return drained
}

// RunSync fires enabled factories on the calling goroutine until the
// network quiesces. It is the synchronous alternative to Start for batch
// feeding and benchmarks.
func (e *Engine) RunSync() error {
	_, err := e.sch.RunUntilQuiescent(0)
	return err
}

// Stop shuts down the scheduler, ingest listeners, TCP endpoints and
// emitters. The ingest periphery closes first (while the scheduler still
// drains, so a receptor blocked mid-delivery can finish), then the
// kernel, then the result side.
func (e *Engine) Stop() {
	e.mu.Lock()
	started := e.started
	e.started = false
	var ins []*IngestListener
	for _, g := range e.groups {
		ins = append(ins, g.listeners...)
	}
	touts := append([]*stream.TCPEmitter(nil), e.tcpOut...)
	qes := e.subEmittersLocked()
	stop, done := e.adaptStop, e.adaptDone
	e.adaptStop, e.adaptDone = nil, nil
	admin := e.admin
	e.admin = nil
	e.mu.Unlock()
	if admin != nil {
		admin.Close()
	}
	// The sampler goes first: a controller-driven rewire quiesces the
	// ingest periphery, and closing listeners concurrently is fine, but
	// no new rewires should start once shutdown is underway.
	if stop != nil {
		close(stop)
		<-done
	}
	for _, l := range ins {
		l.Close()
	}
	if started {
		e.sch.Stop()
	}
	// Clean shutdown checkpoints and closes the stream logs (after the
	// listeners, so no delivery can tee into a closed log). A crashed or
	// failed log refuses the checkpoint, preserving its replayable tail.
	e.checkpointWAL(true)
	for _, t := range touts {
		t.Close()
	}
	for _, qe := range qes {
		qe.em.Stop()
	}
}

// tableOf converts an internal relation (user columns only; internal
// columns are dropped) into a public Table. It is built a column at a
// time from two slabs: one []Row whose rows are capacity-capped windows
// of one []any cell slab, so a batch costs two allocations plus the
// boxing of each cell value.
func tableOf(rel *bat.Relation) Table {
	names := rel.Names()
	cols := make([]string, 0, len(names))
	vecs := make([]*vector.Vector, 0, len(names))
	for i, n := range names {
		if n == basket.TimestampCol || strings.HasPrefix(n, "__") {
			continue
		}
		cols = append(cols, n)
		vecs = append(vecs, rel.Col(i))
	}
	t := Table{Cols: cols}
	n, w := rel.Len(), len(cols)
	if n == 0 {
		return t
	}
	t.Rows = make([]Row, n)
	cells := make([]any, n*w)
	for r := range t.Rows {
		t.Rows[r] = cells[r*w : (r+1)*w : (r+1)*w]
	}
	for j, v := range vecs {
		switch v.Kind() {
		case vector.Int:
			for r, x := range v.Ints() {
				cells[r*w+j] = x
			}
		case vector.Float:
			for r, x := range v.Floats() {
				cells[r*w+j] = x
			}
		case vector.Bool:
			for r, x := range v.Bools() {
				cells[r*w+j] = x
			}
		case vector.Str:
			for r, x := range v.Strs() {
				cells[r*w+j] = x
			}
		case vector.Timestamp:
			for r, x := range v.Ints() {
				cells[r*w+j] = time.UnixMicro(x)
			}
		}
	}
	return t
}

func toValue(x any, t vector.Type) (vector.Value, error) {
	switch v := x.(type) {
	case int:
		return numericAs(int64(v), t)
	case int32:
		return numericAs(int64(v), t)
	case int64:
		return numericAs(v, t)
	case float64:
		if t == vector.Float {
			return vector.NewFloat(v), nil
		}
		return numericAs(int64(v), t)
	case bool:
		if t != vector.Bool {
			return vector.Value{}, fmt.Errorf("bool value for %s column", t)
		}
		return vector.NewBool(v), nil
	case string:
		if t != vector.Str {
			return vector.ParseValue(t, v)
		}
		return vector.NewStr(v), nil
	case time.Time:
		if t != vector.Timestamp {
			return vector.Value{}, fmt.Errorf("time value for %s column", t)
		}
		return vector.NewTimestamp(v), nil
	}
	return vector.Value{}, fmt.Errorf("unsupported value type %T", x)
}

func numericAs(i int64, t vector.Type) (vector.Value, error) {
	switch t {
	case vector.Int:
		return vector.NewInt(i), nil
	case vector.Timestamp:
		return vector.NewTimestampMicros(i), nil
	case vector.Float:
		return vector.NewFloat(float64(i)), nil
	}
	return vector.Value{}, fmt.Errorf("numeric value for %s column", t)
}
