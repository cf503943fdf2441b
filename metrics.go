package datacell

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"datacell/internal/histo"
	"datacell/internal/obs"
)

// initObs wires the engine's self-monitoring: the registry holding the
// control-plane event counters, the bounded event trace, and the
// per-query latency histogram map. Called once from New, before any
// Option runs.
func (e *Engine) initObs() {
	e.reg = obs.NewRegistry()
	e.trace = obs.NewTrace(obs.DefaultTraceCap)
	e.ev = engineCounters{
		rewires:    e.reg.Counter("datacell_engine_rewires_total", "Query-group wiring rebuilds (registration, strategy/parallelism changes).", ""),
		recoveries: e.reg.Counter("datacell_engine_recoveries_total", "WAL recovery passes completed.", ""),
		registers:  e.reg.Counter("datacell_engine_query_registrations_total", "Continuous queries registered.", ""),
		removes:    e.reg.Counter("datacell_engine_query_removals_total", "Continuous queries removed.", ""),
	}
	e.reg.CounterFunc("datacell_engine_events_total", "Engine trace events recorded (retained or shed from the ring).", "",
		func() int64 { return int64(e.trace.Total()) })
}

// queryRegisteredLocked records a query registration: creates the query's
// ingest-to-emit latency histogram and traces the event. Caller holds
// e.mu.
func (e *Engine) queryRegisteredLocked(name, how string) {
	if e.qlat[name] == nil {
		e.qlat[name] = &histo.H{}
	}
	e.ev.registers.Inc()
	e.trace.Add(obs.Event{Subsystem: "engine", Kind: "register", Name: name,
		Reason: how, Time: e.cat.Now()})
}

// Events returns the engine's retained trace events, oldest first: every
// rewire with its reason and duration, every recovery pass and every query
// registration/removal since engine start (bounded by the ring capacity;
// Snapshot.EventsTotal counts shed history too).
func (e *Engine) Events() []obs.Event {
	return e.trace.Events()
}

// WriteMetrics renders the engine's full metric surface in the Prometheus
// text exposition format: the registry-owned event counters plus dynamic
// per-stream and per-query families derived from one consistent Snapshot,
// and the live per-query ingest-to-emit latency summaries. It is the body
// of the admin server's /metrics endpoint and usable standalone.
func (e *Engine) WriteMetrics(w io.Writer) {
	s := e.Snapshot()
	e.reg.WritePrometheus(w)
	writeIngestMetrics(w, s)
	writeWALMetrics(w, s)
	writeBasketMetrics(w, s)
	writeQueryMetrics(w, s)
	e.writeLatencyMetrics(w)
	writeEngineMetrics(w, s)
}

// ingest families, one series per stream (shards of a stream aggregate).
func writeIngestMetrics(w io.Writer, s Snapshot) {
	type agg struct {
		frames, tuples, invalid, timeouts, walErrs, stalls, active int64
		stallT, routeT                                             time.Duration
	}
	var streams []string
	byStream := map[string]*agg{}
	for _, g := range s.Groups {
		if len(g.Receptors) == 0 {
			continue
		}
		a := byStream[g.Stream]
		if a == nil {
			a = &agg{}
			byStream[g.Stream] = a
			streams = append(streams, g.Stream)
		}
		for _, r := range g.Receptors {
			a.frames += r.Frames
			a.tuples += r.Tuples
			a.invalid += r.Invalid
			a.timeouts += r.TimedOut
			a.walErrs += r.WALErrors
			a.stalls += r.Stalls
			a.active += r.Active
			a.stallT += r.StallTime
			a.routeT += r.RouteTime
		}
	}
	if len(streams) == 0 {
		return
	}
	each := func(name, help, typ string, get func(*agg) int64) {
		obs.WriteFamilyHeader(w, name, help, typ)
		for _, st := range streams {
			obs.WriteSample(w, name, obs.Labels("stream", st), get(byStream[st]))
		}
	}
	each("datacell_ingest_frames_total", "Binary frames decoded by receptor shards.", "counter", func(a *agg) int64 { return a.frames })
	each("datacell_ingest_tuples_total", "Tuples delivered into the kernel by receptor shards.", "counter", func(a *agg) int64 { return a.tuples })
	each("datacell_ingest_invalid_total", "Malformed lines / rejected frames.", "counter", func(a *agg) int64 { return a.invalid })
	each("datacell_ingest_timeouts_total", "Connections closed by the idle read deadline.", "counter", func(a *agg) int64 { return a.timeouts })
	each("datacell_ingest_wal_errors_total", "Batches rejected because the WAL append failed.", "counter", func(a *agg) int64 { return a.walErrs })
	each("datacell_ingest_stalls_total", "Backpressure stalls.", "counter", func(a *agg) int64 { return a.stalls })
	each("datacell_ingest_stall_seconds_total", "Total time receptor shards spent stalled on backpressure.", "counter", func(a *agg) int64 { return int64(a.stallT) })
	each("datacell_ingest_route_seconds_total", "Total time receptor shards spent routing batches into the kernel.", "counter", func(a *agg) int64 { return int64(a.routeT) })
	each("datacell_ingest_connections", "Connections currently open.", "gauge", func(a *agg) int64 { return a.active })
}

func writeWALMetrics(w io.Writer, s Snapshot) {
	if len(s.WAL) == 0 {
		return
	}
	each := func(name, help, typ string, get func(WALStreamStats) uint64) {
		obs.WriteFamilyHeader(w, name, help, typ)
		for _, ws := range s.WAL {
			obs.WriteSample(w, name, obs.Labels("stream", ws.Stream), int64(get(ws)))
		}
	}
	each("datacell_wal_frames_total", "Frame records appended to the stream log.", "counter", func(ws WALStreamStats) uint64 { return ws.Frames })
	each("datacell_wal_bytes_total", "Record bytes appended to the stream log.", "counter", func(ws WALStreamStats) uint64 { return ws.Bytes })
	each("datacell_wal_syncs_total", "Fsync batches issued.", "counter", func(ws WALStreamStats) uint64 { return ws.Syncs })
	each("datacell_wal_rotations_total", "Segment rotations.", "counter", func(ws WALStreamStats) uint64 { return ws.Rotations })
	each("datacell_wal_commit_batches_total", "Non-empty group-commit batches.", "counter", func(ws WALStreamStats) uint64 { return ws.Batches })
	each("datacell_wal_commit_batch_frames_total", "Frames across group-commit batches (mean batch = this / batches).", "counter", func(ws WALStreamStats) uint64 { return ws.BatchFrames })
	each("datacell_wal_commit_batch_max", "Largest single group-commit batch.", "gauge", func(ws WALStreamStats) uint64 { return ws.MaxBatch })
}

func writeBasketMetrics(w io.Writer, s Snapshot) {
	if len(s.Baskets) == 0 {
		return
	}
	each := func(name, help, typ string, get func(BasketStats) int64) {
		obs.WriteFamilyHeader(w, name, help, typ)
		for _, b := range s.Baskets {
			obs.WriteSample(w, name, obs.Labels("stream", b.Stream), get(b))
		}
	}
	each("datacell_basket_resident", "Tuples currently held by the stream basket.", "gauge", func(b BasketStats) int64 { return int64(b.Resident) })
	each("datacell_basket_highwater", "Peak resident occupancy of the stream basket.", "gauge", func(b BasketStats) int64 { return b.HighWater })
	each("datacell_basket_appended_total", "Tuples accepted into the stream basket.", "counter", func(b BasketStats) int64 { return b.Appended })
	each("datacell_basket_dropped_total", "Tuples dropped by integrity constraints.", "counter", func(b BasketStats) int64 { return b.Dropped })
	each("datacell_basket_consumed_total", "Tuples removed by factories.", "counter", func(b BasketStats) int64 { return b.Consumed })
}

// query families: the firing kernel, two-phase merge barrier and emit
// stage, one series per continuous query.
func writeQueryMetrics(w io.Writer, s Snapshot) {
	if len(s.Queries) == 0 {
		return
	}
	each := func(name, help, typ string, get func(QueryStats) int64) {
		obs.WriteFamilyHeader(w, name, help, typ)
		for _, q := range s.Queries {
			obs.WriteSample(w, name, obs.Labels("query", q.Name), get(q))
		}
	}
	each("datacell_query_fires_total", "Factory activations executing the query (reset by rewires).", "counter", func(q QueryStats) int64 { return q.Fires })
	each("datacell_query_errors_total", "Activations that returned an error.", "counter", func(q QueryStats) int64 { return q.Errors })
	each("datacell_query_busy_seconds_total", "Cumulative factory body time (the fire stage).", "counter", func(q QueryStats) int64 { return int64(q.Busy) })
	each("datacell_query_out_rows_total", "Tuples appended to the query's output basket.", "counter", func(q QueryStats) int64 { return q.OutRows })
	each("datacell_query_pending", "Tuples waiting in the output basket.", "gauge", func(q QueryStats) int64 { return int64(q.Pending) })
	each("datacell_merge_barrier_waits_total", "Completed two-phase merge barrier waits.", "counter", func(q QueryStats) int64 { return q.MergeWaits })
	each("datacell_merge_barrier_wait_seconds_total", "Time the merge barrier held partial results back.", "counter", func(q QueryStats) int64 { return int64(q.MergeWait) })
	each("datacell_query_emit_busy_seconds_total", "Emitter delivery time (the emit stage).", "counter", func(q QueryStats) int64 { return int64(q.EmitBusy) })
}

// writeLatencyMetrics renders the live per-query ingest-to-emit latency
// histograms as Prometheus summaries (p50/p99/p99.9, _count, _max).
func (e *Engine) writeLatencyMetrics(w io.Writer) {
	e.mu.Lock()
	names := make([]string, 0, len(e.qlat))
	for n := range e.qlat {
		names = append(names, n)
	}
	hs := make(map[string]*histo.H, len(names))
	for _, n := range names {
		hs[n] = e.qlat[n]
	}
	e.mu.Unlock()
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	const name = "datacell_query_latency_seconds"
	obs.WriteFamilyHeader(w, name, "Ingest-to-emit latency: receptor arrival stamp to query firing completion.", "summary")
	for _, n := range names {
		obs.WriteSummary(w, name, obs.Labels("query", n), hs[n])
	}
}

func writeEngineMetrics(w io.Writer, s Snapshot) {
	obs.WriteFamilyHeader(w, "datacell_engine_queries", "Registered continuous queries.", "gauge")
	obs.WriteSample(w, "datacell_engine_queries", "", int64(len(s.Queries)))
	obs.WriteFamilyHeader(w, "datacell_engine_subscriptions", "Live query subscriptions.", "gauge")
	obs.WriteSample(w, "datacell_engine_subscriptions", "", int64(s.Subscriptions))
	obs.WriteFamilyHeader(w, "datacell_engine_started", "1 while the scheduler runs.", "gauge")
	started := int64(0)
	if s.Started {
		started = 1
	}
	obs.WriteSample(w, "datacell_engine_started", "", started)
	if len(s.Groups) > 0 {
		obs.WriteFamilyHeader(w, "datacell_engine_group_rewires_total", "Wiring rebuilds per stream group.", "counter")
		for _, g := range s.Groups {
			obs.WriteSample(w, "datacell_engine_group_rewires_total", obs.Labels("stream", g.Stream), g.Rewires)
		}
	}
}

// ExplainAnalyze reports where a registered continuous query's time goes,
// stage by stage: route (receptor shards delivering into the kernel),
// fire (factory body time), merge (two-phase barrier holds) and emit
// (delivery to subscribers), plus the live ingest-to-emit latency
// quantiles. It reads the counters the running wiring maintains; nothing
// is re-executed. SQL surface: `explain analyze <query-name>` via Exec.
func (e *Engine) ExplainAnalyze(name string) (string, error) {
	e.mu.Lock()
	rec, ok := e.queries[name]
	if !ok {
		e.mu.Unlock()
		return "", fmt.Errorf("datacell: unknown query %q", name)
	}
	// Stage counters for this query only.
	var q QueryStats
	for _, qs := range e.statsLocked() {
		if qs.Name == name {
			q = qs
			break
		}
	}
	// The route stage belongs to the streams feeding the query.
	var streams []string
	switch {
	case rec.member != nil:
		streams = []string{rec.member.scan.Stream}
	default:
		for st := range rec.taps {
			streams = append(streams, st)
		}
		sort.Strings(streams)
	}
	var routeT time.Duration
	shards := 0
	for _, st := range streams {
		g := e.groups[st]
		if g == nil {
			continue
		}
		for _, l := range g.listeners {
			for _, is := range l.Stats() {
				routeT += is.RouteTime
				shards++
			}
		}
	}
	nFactories := len(rec.factories())
	// Barrier presence is structural (a combining merge emitter is wired),
	// not inferred from the wait counters: a barrier whose partials were
	// always ready when checked legitimately reports zero waits.
	hasBarrier := rec.member != nil && rec.member.merge != nil && rec.member.merge.Barrier() != nil
	e.mu.Unlock()

	var b strings.Builder
	kind := "standalone factory"
	if rec.member != nil {
		kind = fmt.Sprintf("group member on stream %s", streams[0])
	}
	fmt.Fprintf(&b, "query %s: %s, %d factor", name, kind, nFactories)
	if nFactories == 1 {
		b.WriteString("y\n")
	} else {
		b.WriteString("ies\n")
	}
	if shards > 0 {
		fmt.Fprintf(&b, "stage route: %s across %d receptor shard(s) on %s\n",
			routeT.Round(time.Microsecond), shards, strings.Join(streams, ","))
	} else {
		b.WriteString("stage route: no receptor shards attached (direct Append path)\n")
	}
	fmt.Fprintf(&b, "stage fire:  %s busy over %d firings", q.Busy.Round(time.Microsecond), q.Fires)
	if q.Fires > 0 {
		fmt.Fprintf(&b, " (avg %s)", (q.Busy / time.Duration(q.Fires)).Round(time.Nanosecond))
	}
	if q.Errors > 0 {
		fmt.Fprintf(&b, ", %d errors", q.Errors)
	}
	b.WriteByte('\n')
	if hasBarrier {
		fmt.Fprintf(&b, "stage merge: %d barrier waits, %s held\n", q.MergeWaits, q.MergeWait.Round(time.Microsecond))
	} else {
		b.WriteString("stage merge: no barrier (unpartitioned or single-phase wiring)\n")
	}
	fmt.Fprintf(&b, "stage emit:  %s delivering, %d rows out (%d pending)\n",
		q.EmitBusy.Round(time.Microsecond), q.OutRows, q.Pending)
	if q.LatCount > 0 {
		fmt.Fprintf(&b, "latency (ingest to emit): n=%d p50=%s p99=%s p99.9=%s max=%s\n",
			q.LatCount, q.LatP50.Round(time.Microsecond), q.LatP99.Round(time.Microsecond),
			q.LatP999.Round(time.Microsecond), q.LatMax.Round(time.Microsecond))
	} else {
		b.WriteString("latency (ingest to emit): no samples yet\n")
	}
	return b.String(), nil
}
