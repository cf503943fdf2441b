// Command datacellbench is the open-loop mixed-workload driver with
// latency SLOs — the response-time half of the Linear Road evaluation
// (paper Figures 7–9), where every benchmark before it was a closed-loop
// throughput sweep. Load arrives on a fixed schedule whether or not the
// engine keeps up: rate-limited senders (token-bucket paced binary
// connections over the sharded ingest listeners) hold the offered rate
// constant, so queue depth, schedule lag and receptor stall time are
// measurements, never throttles.
//
// A scenario is a sequence of phases mixing ingest rate ramps, query
// churn (register/deregister with live subscriptions), and
// strategy/parallelism pragma flips — live rewires under load. Every
// tuple carries its send timestamp; subscriptions on the continuous
// queries receive Emit metadata (EmitTime), and the difference is the
// ingest-to-emit latency, accumulated per phase in HDR-style histograms
// and reported as p50/p99/p99.9 plus achieved events/s, written to
// BENCH_latency.json for the benchgate -latency-baseline CI gate.
//
// Usage:
//
//	datacellbench -preset smoke                  # short CI scenario
//	datacellbench -preset mix                    # full committed baseline
//	datacellbench -scenario 'ramp:5s:rate=30000..120000,conns=8,churn=250ms'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"datacell"
	"datacell/internal/bat"
	"datacell/internal/histo"
	"datacell/internal/ingest"
	"datacell/internal/provenance"
	"datacell/internal/stream"
	"datacell/internal/vector"
)

var (
	schemaNames = []string{"k", "v", "sts"}
	schemaTypes = []vector.Type{vector.Int, vector.Int, vector.Int}
)

// latencyRow is one phase's report in BENCH_latency.json.
type latencyRow struct {
	Phase       string  `json:"phase"`
	DurationS   float64 `json:"duration_s"`
	Conns       int     `json:"conns"`
	OfferedEPS  float64 `json:"offered_eps"`
	AchievedEPS float64 `json:"achieved_eps"`
	Sent        int64   `json:"sent"`
	Offered     int64   `json:"offered"`
	Backlog     int64   `json:"backlog"` // offered - sent when the senders fell behind
	Samples     int64   `json:"samples"` // latency samples (result rows carrying timestamps)
	Emits       int64   `json:"emits"`   // result batches delivered to subscriptions
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	P999us      float64 `json:"p999_us"`
	MaxUs       float64 `json:"max_us"`
	StallMs     float64 `json:"stall_ms"`   // sender time blocked in socket writes
	MaxLagMs    float64 `json:"max_lag_ms"` // worst schedule slip of any sender
}

type latencyDoc struct {
	Fig        string          `json:"fig"`
	Scenario   string          `json:"scenario"`
	Rows       []latencyRow    `json:"rows"`
	Provenance provenance.Info `json:"provenance"`
}

// recorder accumulates ingest-to-emit latency into the current phase's
// histogram. Emit callbacks run on emitter threads concurrently with the
// main loop switching phases, so everything is atomic.
type recorder struct {
	phase atomic.Int32
	hists []*histo.H
	emits []atomic.Int64
}

func newRecorder(phases int) *recorder {
	r := &recorder{hists: make([]*histo.H, phases), emits: make([]atomic.Int64, phases)}
	for i := range r.hists {
		r.hists[i] = &histo.H{}
	}
	return r
}

// onEmit is the subscription callback: every result row's sts column
// (sender UnixMicro timestamp) against the emit time.
func (r *recorder) onEmit(em datacell.Emit) {
	sts := -1
	for i, c := range em.Table.Cols {
		if c == "sts" {
			sts = i
			break
		}
	}
	if sts < 0 {
		return
	}
	p := r.phase.Load()
	h := r.hists[p]
	r.emits[p].Add(1)
	for _, row := range em.Table.Rows {
		us, ok := row[sts].(int64)
		if !ok {
			continue
		}
		h.Record(em.EmitTime.Sub(time.UnixMicro(us)))
	}
}

// measured queries: "all" sees every tuple (the latency workhorse),
// "hot" a ~10% slice — both project the sender timestamp through.
var baseQueries = []struct{ name, src string }{
	{"all", `select t.k, t.v, t.sts from [select * from s] t where t.v >= 0`},
	{"hot", `select t.k, t.v, t.sts from [select * from s] t where t.v < 100`},
}

// flipCycle are the pragmas a flips-enabled phase cycles through: live
// strategy rewires and static parallelism switches, all under full
// offered load.
var flipCycle = []string{
	`set strategy = 'shared'`,
	`set parallelism = 2`,
	`set strategy = 'partial'`,
	`set strategy = 'separate'`,
	`set parallelism = 1`,
}

func main() {
	preset := flag.String("preset", "mix", "built-in scenario: smoke (CI) or mix (baseline)")
	scenario := flag.String("scenario", "", "inline scenario spec (overrides -preset); see ParseScenario")
	out := flag.String("out", "BENCH_latency.json", "output JSON path ('' to skip)")
	shards := flag.Int("shards", 4, "ingest listener shards")
	batch := flag.Int("batch", 256, "tuples per wire frame")
	drainTimeout := flag.Duration("drain", 30*time.Second, "per-phase and final drain timeout")
	flag.Parse()

	phases, err := resolveScenario(*preset, *scenario)
	if err != nil {
		fatal(err)
	}
	rows, snap, err := run(phases, *shards, *batch, *drainTimeout)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%-8s %8s %10s %10s %9s %9s %9s %9s %9s %8s\n",
		"phase", "conns", "offered/s", "achieved/s", "p50", "p99", "p99.9", "max", "stall", "backlog")
	for _, r := range rows {
		fmt.Printf("%-8s %8d %10.0f %10.0f %8.0fµ %8.0fµ %8.0fµ %8.0fµ %7.0fms %8d\n",
			r.Phase, r.Conns, r.OfferedEPS, r.AchievedEPS, r.P50us, r.P99us, r.P999us, r.MaxUs, r.StallMs, r.Backlog)
	}
	fmt.Printf("engine: strategy=%s P=%d queries=%d subscriptions=%d\n",
		snap.Strategy, snap.Parallelism, len(snap.Queries), snap.Subscriptions)
	for _, g := range snap.Groups {
		fmt.Printf("group %s: strategy=%s partitions=%d rewires=%d ingest=%d stalls=%d stall_time=%v\n",
			g.Stream, g.Strategy, g.Partitions, g.Rewires, g.IngestTuples, g.IngestStalls, g.IngestStallTime)
	}

	if *out != "" {
		spec := *scenario
		if spec == "" {
			spec = *preset
		}
		doc := latencyDoc{Fig: "latency", Scenario: spec, Rows: rows, Provenance: provenance.Capture()}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "datacellbench: %v\n", err)
	os.Exit(1)
}

// run executes the scenario against a fresh in-process engine fed over
// loopback TCP and returns the per-phase rows plus the engine's final
// snapshot.
func run(phases []Phase, shards, batch int, drainTimeout time.Duration) ([]latencyRow, datacell.Snapshot, error) {
	var zero datacell.Snapshot
	eng := datacell.New(datacell.WithStrategy(datacell.StrategySeparate), datacell.WithParallelism(1))
	defer eng.Stop()
	if _, err := eng.Exec(`create basket s (k int, v int, sts int)`); err != nil {
		return nil, zero, err
	}
	rec := newRecorder(len(phases))
	for _, q := range baseQueries {
		if err := eng.RegisterQuery(q.name, q.src); err != nil {
			return nil, zero, err
		}
		if _, err := eng.SubscribeQuery(q.name, datacell.SubscribeOptions{OnEmit: rec.onEmit}); err != nil {
			return nil, zero, err
		}
	}
	lst, err := eng.ListenIngest("s", "127.0.0.1:0", datacell.IngestOptions{Shards: shards, BatchSize: batch})
	if err != nil {
		return nil, zero, err
	}
	if err := eng.Start(); err != nil {
		return nil, zero, err
	}
	addrs := lst.Addrs()

	var churnCtr atomic.Int64
	rows := make([]latencyRow, 0, len(phases))
	for pi, ph := range phases {
		rec.phase.Store(int32(pi))
		phaseStart := time.Now()
		ingBefore := ingestedTuples(lst)

		// Paced senders: the offered rate split across the connections,
		// each dialing its own shard round-robin.
		stop := make(chan struct{})
		senders := make([]*ingest.PacedSender, ph.Conns)
		stats := make([]ingest.PacedStats, ph.Conns)
		errs := make([]error, ph.Conns)
		var wg sync.WaitGroup
		for c := 0; c < ph.Conns; c++ {
			d := &stream.Dialer{Addr: addrs[c%len(addrs)]}
			s := ingest.NewPacedSender(d, schemaNames, schemaTypes, ph.Rate/float64(ph.Conns), batch)
			senders[c] = s
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				stats[c], errs[c] = s.Run(stop, fillTuples)
			}(c)
		}

		// Background churn, flips and rate ramp for the phase's duration.
		bgStop := make(chan struct{})
		var bg sync.WaitGroup
		if ph.ChurnEvery > 0 {
			bg.Add(1)
			go func() { defer bg.Done(); churn(eng, rec, &churnCtr, ph.ChurnEvery, bgStop) }()
		}
		if ph.FlipEvery > 0 {
			bg.Add(1)
			go func() { defer bg.Done(); flip(eng, ph.FlipEvery, bgStop) }()
		}
		if ph.RateEnd != ph.Rate {
			bg.Add(1)
			go func() { defer bg.Done(); ramp(senders, ph, bgStop) }()
		}

		time.Sleep(ph.Duration)
		close(bgStop)
		bg.Wait()
		close(stop)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, zero, fmt.Errorf("phase %s: %w", ph.Name, err)
			}
		}

		// Absorb the phase's backlog before the next phase starts, so its
		// emits land in this phase's histogram: wait until the receptors
		// have delivered everything the senders wrote, then drain the
		// kernel.
		var sent int64
		for _, st := range stats {
			sent += st.Tuples
		}
		if err := awaitIngested(lst, ingBefore+sent, drainTimeout); err != nil {
			return nil, zero, fmt.Errorf("phase %s: %w", ph.Name, err)
		}
		if !eng.Drain(drainTimeout) {
			return nil, zero, fmt.Errorf("phase %s: kernel did not drain", ph.Name)
		}

		elapsed := time.Since(phaseStart)
		row := latencyRow{
			Phase:       ph.Name,
			DurationS:   ph.Duration.Seconds(),
			Conns:       ph.Conns,
			OfferedEPS:  ph.offeredMean(),
			AchievedEPS: float64(ingestedTuples(lst)-ingBefore) / elapsed.Seconds(),
			Sent:        sent,
			Samples:     rec.hists[pi].Count(),
			Emits:       rec.emits[pi].Load(),
			P50us:       usQuantile(rec.hists[pi], 0.50),
			P99us:       usQuantile(rec.hists[pi], 0.99),
			P999us:      usQuantile(rec.hists[pi], 0.999),
			MaxUs:       float64(rec.hists[pi].Max()) / 1e3,
		}
		var maxLag time.Duration
		for _, st := range stats {
			row.Offered += st.Offered
			row.StallMs += st.StallTime.Seconds() * 1e3
			if st.MaxLag > maxLag {
				maxLag = st.MaxLag
			}
		}
		if row.Offered > row.Sent {
			row.Backlog = row.Offered - row.Sent
		}
		row.MaxLagMs = maxLag.Seconds() * 1e3
		rows = append(rows, row)
	}

	snap := eng.Snapshot()
	return rows, snap, nil
}

// fillTuples generates one batch: a running key, a deterministic value in
// [0,1000) selecting each query's slice, and the send timestamp every
// latency sample derives from.
func fillTuples(rel *bat.Relation, base int64, n int) {
	now := time.Now().UnixMicro()
	for i := 0; i < n; i++ {
		k := base + int64(i)
		v := (k * 2654435761) % 1000
		if v < 0 {
			v += 1000
		}
		rel.AppendRow(vector.NewInt(k), vector.NewInt(v), vector.NewInt(now))
	}
}

// churn registers a fresh continuous query with a live subscription and
// removes the previous one at each tick — the register/deregister +
// subscribe/auto-cancel axis of the mix.
func churn(eng *datacell.Engine, rec *recorder, ctr *atomic.Int64, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	prev := ""
	for {
		select {
		case <-stop:
			if prev != "" {
				eng.RemoveQuery(prev) //nolint:errcheck // best-effort teardown
			}
			return
		case <-t.C:
			name := fmt.Sprintf("churn_%d", ctr.Add(1))
			src := `select t.k, t.sts from [select * from s] t where t.v < 50`
			if err := eng.RegisterQuery(name, src); err != nil {
				continue
			}
			if _, err := eng.SubscribeQuery(name, datacell.SubscribeOptions{OnEmit: rec.onEmit}); err == nil {
				if prev != "" {
					eng.RemoveQuery(prev) //nolint:errcheck // raced rewire; next tick retires it
				}
				prev = name
			}
		}
	}
}

// flip cycles strategy/parallelism pragmas — live rewires under load.
func flip(eng *datacell.Engine, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	i := 0
	for {
		select {
		case <-stop:
			// Park the engine back on the default wiring so the next phase
			// starts from a known state.
			eng.Exec(`set strategy = 'separate'`) //nolint:errcheck
			eng.Exec(`set parallelism = 1`)       //nolint:errcheck
			return
		case <-t.C:
			eng.Exec(flipCycle[i%len(flipCycle)]) //nolint:errcheck // invalid combos are part of the stress
			i++
		}
	}
}

// ramp steps the senders' offered rate through the phase's linear ramp.
func ramp(senders []*ingest.PacedSender, ph Phase, stop <-chan struct{}) {
	step := ph.Duration / rampSteps
	t := time.NewTicker(step)
	defer t.Stop()
	for i := 1; i < rampSteps; i++ {
		select {
		case <-stop:
			return
		case <-t.C:
			per := ph.rateAt(i) / float64(len(senders))
			for _, s := range senders {
				s.SetRate(per)
			}
		}
	}
}

func ingestedTuples(l *datacell.IngestListener) int64 {
	var n int64
	for _, st := range l.Stats() {
		n += st.Tuples
	}
	return n
}

// awaitIngested polls until the listener has delivered at least want
// tuples into the kernel.
func awaitIngested(l *datacell.IngestListener, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if got := ingestedTuples(l); got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("receptors stalled at %d/%d tuples", ingestedTuples(l), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func usQuantile(h *histo.H, q float64) float64 {
	return float64(h.Quantile(q)) / 1e3
}
