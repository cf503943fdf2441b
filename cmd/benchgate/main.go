// Command benchgate is the CI benchmark-regression gate. It compares the
// allocation profile of the current build against the committed baseline
// in BENCH_kernel.json and exits non-zero when the hot path regressed.
//
// Allocation counts are the gated metric because they are stable on
// shared CI runners; ns/op and events/s are reported by the same files
// but vary with the machine, so they are mostly not gated here (the
// committed trajectory in BENCH_kernel.json is measured on a fixed box).
// The one throughput gate is the ingest figure: with -ingest-baseline,
// every (protocol, shards, batch) row of the regenerated
// BENCH_ingest.json must reach at least committed/1.5 events/s — a
// floor generous enough for runner variance but tight enough to catch
// an accidentally serialized decode path or a backpressure stall storm.
//
// Usage, as wired in .github/workflows/ci.yml:
//
//	cp BENCH_kernel.json /tmp/BENCH_kernel.committed.json
//	go test -run xxx -bench '…' -benchmem -benchtime 100x . | tee bench-smoke.txt
//	go run ./cmd/microbench -fig kernel -json          # rewrites the this_pr row
//	go run ./cmd/benchgate -baseline /tmp/BENCH_kernel.committed.json \
//	    -current BENCH_kernel.json -bench bench-smoke.txt
//
// A measurement fails the gate when it exceeds committed*(1+slack)+abs;
// the slack absorbs run-to-run jitter (sync.Pool refills after a GC),
// the absolute headroom keeps tiny baselines from gating on ±1 alloc.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"datacell/internal/provenance"
)

// warnProvenance compares a baseline file's capture environment against
// this host and prints a non-fatal warning when they differ: throughput
// floors and latency SLOs measured on another box are advisory at best.
// Missing or unstamped files warn too — the gate still runs either way.
func warnProvenance(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return // the loader will report this fatally
	}
	var doc struct {
		Provenance provenance.Info `json:"provenance"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return
	}
	if diffs := provenance.Diff(doc.Provenance, provenance.Capture()); len(diffs) > 0 {
		fmt.Printf("benchgate: WARNING: baseline %s was captured in a different environment (%s); throughput/latency comparisons are advisory\n",
			path, strings.Join(diffs, ", "))
	}
}

// kernelDoc mirrors the BENCH_kernel.json layout.
type kernelDoc struct {
	Rows []kernelRow `json:"rows"`
}

// kernelRow is one trajectory entry: either the microbench kernel figure
// (no Benchmark field) or a go-test benchmark row.
type kernelRow struct {
	Phase           string   `json:"phase"`
	Benchmark       string   `json:"benchmark"`
	AllocsPerFiring *float64 `json:"allocs_per_firing"`
	AllocsPerOp     *float64 `json:"allocs_per_op"`
}

// measurement is one gated metric: a name, the committed budget and the
// current value.
type measurement struct {
	name      string
	committed float64
	current   float64
}

// regressed reports whether the measurement exceeds its budget under the
// gate's slack policy.
func (m measurement) regressed(slack, abs float64) bool {
	return m.current > m.committed*(1+slack)+abs
}

// belowFloor reports whether the measurement fell under its committed
// throughput floor (committed/div) — the ingest events/s policy.
func (m measurement) belowFloor(div float64) bool {
	return m.current < m.committed/div
}

func loadKernel(path string) (kernelDoc, error) {
	var doc kernelDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// latestAllocs extracts the trajectory's current-build alloc metrics from
// one file: the kernel figure's allocs/firing and each benchmark row's
// allocs/op, keyed by metric name. Only "this_pr" rows qualify — baseline
// rows record history, not the build under test.
func latestAllocs(doc kernelDoc) map[string]float64 {
	out := map[string]float64{}
	for _, r := range doc.Rows {
		if r.Phase != "this_pr" {
			continue
		}
		switch {
		case r.Benchmark == "" && r.AllocsPerFiring != nil:
			out["kernel allocs/firing"] = *r.AllocsPerFiring
		case r.Benchmark != "" && r.AllocsPerOp != nil:
			out[r.Benchmark+" allocs/op"] = *r.AllocsPerOp
		}
	}
	return out
}

// ingestDoc mirrors the BENCH_ingest.json layout.
type ingestDoc struct {
	Rows []ingestRow `json:"rows"`
}

// ingestRow is one ingest sweep point, keyed by (protocol, shards,
// batch).
type ingestRow struct {
	Protocol     string  `json:"protocol"`
	Shards       int     `json:"shards"`
	Batch        int     `json:"batch"`
	EventsPerSec float64 `json:"events_per_second"`
}

func (r ingestRow) key() string {
	return fmt.Sprintf("ingest %s shards=%d batch=%d events/s", r.Protocol, r.Shards, r.Batch)
}

func loadIngest(path string) (map[string]float64, error) {
	var doc ingestDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, r := range doc.Rows {
		out[r.key()] = r.EventsPerSec
	}
	return out, nil
}

// gateIngest compares current ingest throughput against committed
// floors: a row regresses when it falls below committed/div. Rows
// missing on either side are skipped.
func gateIngest(committed, current map[string]float64, div float64) (checked, bad []measurement) {
	for name, base := range committed {
		cur, ok := current[name]
		if !ok {
			continue
		}
		m := measurement{name: name, committed: base, current: cur}
		checked = append(checked, m)
		if m.belowFloor(div) {
			bad = append(bad, m)
		}
	}
	return checked, bad
}

// aggDoc mirrors the BENCH_agg.json layout.
type aggDoc struct {
	Rows []aggRow `json:"rows"`
}

// aggRow is one two-phase aggregation sweep point, keyed by (strategy,
// parallelism).
type aggRow struct {
	Strategy     string  `json:"strategy"`
	Parallelism  int     `json:"parallelism"`
	EventsPerSec float64 `json:"events_per_second"`
}

func (r aggRow) key() string {
	return fmt.Sprintf("agg %s P=%d events/s", r.Strategy, r.Parallelism)
}

func loadAgg(path string) (map[string]float64, error) {
	var doc aggDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, r := range doc.Rows {
		out[r.key()] = r.EventsPerSec
	}
	return out, nil
}

// walDoc mirrors the BENCH_wal.json layout.
type walDoc struct {
	Rows []walRow `json:"rows"`
}

// walRow is one durability sweep point, keyed by (wal, sync interval,
// shards, batch); protocol is always binary.
type walRow struct {
	WAL            string  `json:"wal"`
	SyncIntervalMS float64 `json:"sync_interval_ms"`
	Protocol       string  `json:"protocol"`
	Shards         int     `json:"shards"`
	Batch          int     `json:"batch"`
	EventsPerSec   float64 `json:"events_per_second"`
}

func (r walRow) key() string {
	return fmt.Sprintf("wal %s sync=%gms shards=%d batch=%d events/s",
		r.WAL, r.SyncIntervalMS, r.Shards, r.Batch)
}

func loadWAL(path string) ([]walRow, map[string]float64, error) {
	var doc walDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, r := range doc.Rows {
		out[r.key()] = r.EventsPerSec
	}
	return doc.Rows, out, nil
}

// walOverhead is the fraction of undurable throughput a WAL-on run must
// keep: the tee, CRC and group commit may not cost more than 30% before
// the gate's divisor slack even starts to apply.
const walOverhead = 0.7

// gateWALOverhead enforces the durability tax within the current run:
// every WAL-on row must reach at least walOverhead× the WAL-off row of
// the same (shards, batch), measured on the same box in the same job —
// a regression in the tee or the group-commit path cannot hide behind a
// slow runner.
func gateWALOverhead(rows []walRow, div float64) (checked, bad []measurement) {
	off := map[string]float64{}
	for _, r := range rows {
		if r.WAL == "off" {
			off[fmt.Sprintf("shards=%d batch=%d", r.Shards, r.Batch)] = r.EventsPerSec
		}
	}
	for _, r := range rows {
		if r.WAL != "on" {
			continue
		}
		base, ok := off[fmt.Sprintf("shards=%d batch=%d", r.Shards, r.Batch)]
		if !ok || base == 0 {
			continue
		}
		m := measurement{
			name:      fmt.Sprintf("wal on sync=%gms vs off shards=%d batch=%d", r.SyncIntervalMS, r.Shards, r.Batch),
			committed: walOverhead * base,
			current:   r.EventsPerSec,
		}
		checked = append(checked, m)
		if m.belowFloor(div) {
			bad = append(bad, m)
		}
	}
	return checked, bad
}

// gateWALVsIngest is the cross-file durability floor the issue pins:
// every current WAL-on row must reach walOverhead× the committed
// BENCH_ingest.json binary row of the same (shards, batch), divided by
// the gate's slack — the WAL may not cost the repo its committed ingest
// trajectory.
func gateWALVsIngest(rows []walRow, ingest map[string]float64, div float64) (checked, bad []measurement) {
	for _, r := range rows {
		if r.WAL != "on" {
			continue
		}
		base, ok := ingest[fmt.Sprintf("ingest binary shards=%d batch=%d events/s", r.Shards, r.Batch)]
		if !ok || base == 0 {
			continue
		}
		m := measurement{
			name:      fmt.Sprintf("wal on sync=%gms vs committed ingest shards=%d batch=%d", r.SyncIntervalMS, r.Shards, r.Batch),
			committed: walOverhead * base,
			current:   r.EventsPerSec,
		}
		checked = append(checked, m)
		if m.belowFloor(div) {
			bad = append(bad, m)
		}
	}
	return checked, bad
}

// latencyDoc mirrors the BENCH_latency.json layout datacellbench writes.
type latencyDoc struct {
	Rows []latencyRow `json:"rows"`
}

// latencyRow is one scenario phase of the open-loop latency harness,
// keyed by phase name.
type latencyRow struct {
	Phase       string  `json:"phase"`
	AchievedEPS float64 `json:"achieved_eps"`
	P99us       float64 `json:"p99_us"`
}

func loadLatency(path string) ([]latencyRow, error) {
	var doc latencyDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Rows, nil
}

// gateLatency enforces the latency SLO trajectory: per phase, the current
// p99 ingest-to-emit latency must stay within committed×mult plus an
// absolute headroom (microseconds — sub-millisecond baselines would
// otherwise gate on scheduler noise), and the achieved events/s must hold
// the committed/div floor so a run cannot pass by shedding its offered
// load. Phases missing on either side are skipped.
func gateLatency(committed, current []latencyRow, mult, absUs, div float64) (checked, bad []measurement) {
	cur := map[string]latencyRow{}
	for _, r := range current {
		cur[r.Phase] = r
	}
	for _, c := range committed {
		r, ok := cur[c.Phase]
		if !ok {
			continue
		}
		p99 := measurement{
			name:      fmt.Sprintf("latency %s p99 µs", c.Phase),
			committed: c.P99us,
			current:   r.P99us,
		}
		checked = append(checked, p99)
		if p99.regressed(mult-1, absUs) {
			bad = append(bad, p99)
		}
		if c.AchievedEPS > 0 {
			eps := measurement{
				name:      fmt.Sprintf("latency %s achieved events/s", c.Phase),
				committed: c.AchievedEPS,
				current:   r.AchievedEPS,
			}
			checked = append(checked, eps)
			if eps.belowFloor(div) {
				bad = append(bad, eps)
			}
		}
	}
	return checked, bad
}

// benchLine matches `go test -bench -benchmem` output rows, e.g.
// "BenchmarkSQLQueryFiring-8  100  723510 ns/op  18720 B/op  45 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+[\d.]+ ns/op(?:\s+[\d.]+ [A-Za-z]+/s)?\s+[\d.]+ B/op\s+([\d.]+) allocs/op`)

// parseBenchAllocs extracts allocs/op per benchmark from go-test bench
// output. Sub-benchmarks keep their full slash name.
func parseBenchAllocs(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]+" allocs/op"] = v
	}
	return out, sc.Err()
}

// gate compares current metrics against committed budgets, returning the
// comparisons made and the subset that regressed. Metrics missing on
// either side are skipped: the gate guards committed budgets, it does not
// demand new ones.
func gate(committed, current map[string]float64, slack, abs float64) (checked, bad []measurement) {
	for name, base := range committed {
		cur, ok := current[name]
		if !ok {
			continue
		}
		m := measurement{name: name, committed: base, current: cur}
		checked = append(checked, m)
		if m.regressed(slack, abs) {
			bad = append(bad, m)
		}
	}
	return checked, bad
}

func main() {
	baseline := flag.String("baseline", "", "committed BENCH_kernel.json (the budget)")
	current := flag.String("current", "BENCH_kernel.json", "regenerated BENCH_kernel.json (the build under test)")
	bench := flag.String("bench", "", "go test -bench -benchmem output to gate as well (optional)")
	slack := flag.Float64("slack", 0.5, "relative headroom before a regression trips")
	abs := flag.Float64("abs", 8, "absolute alloc headroom on top of the slack")
	ingestBase := flag.String("ingest-baseline", "", "committed BENCH_ingest.json (events/s floors; optional)")
	ingestCur := flag.String("ingest-current", "BENCH_ingest.json", "regenerated BENCH_ingest.json")
	ingestDiv := flag.Float64("ingest-div", 1.5, "ingest floor divisor: current must reach committed/div")
	aggBase := flag.String("agg-baseline", "", "committed BENCH_agg.json (events/s floors; optional)")
	aggCur := flag.String("agg-current", "BENCH_agg.json", "regenerated BENCH_agg.json")
	aggDiv := flag.Float64("agg-div", 1.5, "agg floor divisor: current must reach committed/div")
	walBase := flag.String("wal-baseline", "", "committed BENCH_wal.json (events/s floors; optional)")
	walCur := flag.String("wal-current", "BENCH_wal.json", "regenerated BENCH_wal.json")
	walDiv := flag.Float64("wal-div", 2.0, "wal floor divisor: per-row floors plus the WAL-on ≥ 0.7×WAL-off and 0.7×committed-ingest gates (fsync-bound runs jitter more than plain ingest)")
	latBase := flag.String("latency-baseline", "", "committed BENCH_latency.json (p99 SLOs per phase; optional)")
	latCur := flag.String("latency-current", "BENCH_latency.json", "regenerated BENCH_latency.json")
	latMult := flag.Float64("latency-mult", 1.5, "latency ceiling multiplier: per-phase p99 must stay under committed*mult (+abs headroom)")
	latAbsUs := flag.Float64("latency-abs-us", 2000, "absolute p99 headroom in µs on top of the multiplier (sub-ms baselines jitter by a scheduler hiccup per run; regressions of interest are tens of ms)")
	latDiv := flag.Float64("latency-div", 2.0, "achieved-rate floor divisor for latency phases: a run cannot pass its SLO by shedding offered load")
	flag.Parse()
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}
	for _, p := range []string{*baseline, *ingestBase, *aggBase, *walBase, *latBase} {
		if p != "" {
			warnProvenance(p)
		}
	}
	base, err := loadKernel(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	committed := latestAllocs(base)
	if len(committed) == 0 {
		fmt.Println("benchgate: baseline carries no alloc budgets; nothing to gate")
		return
	}
	cur, err := loadKernel(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	measured := latestAllocs(cur)
	if *bench != "" {
		fromBench, err := parseBenchAllocs(*bench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		// Fresh go-test numbers win over whatever the JSON carries.
		for k, v := range fromBench {
			measured[k] = v
		}
	}
	checked, bad := gate(committed, measured, *slack, *abs)
	for _, m := range checked {
		status := "ok"
		if m.regressed(*slack, *abs) {
			status = "REGRESSED"
		}
		fmt.Printf("benchgate: %-40s committed %.1f, current %.1f  [%s]\n", m.name, m.committed, m.current, status)
	}
	if len(checked) == 0 {
		fmt.Println("benchgate: no committed alloc metric was measured; nothing gated")
	} else {
		fmt.Printf("benchgate: %d allocation budget(s) checked\n", len(checked))
	}

	var ingestBad []measurement
	if *ingestBase != "" {
		base, err := loadIngest(*ingestBase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadIngest(*ingestCur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		var ingestChecked []measurement
		ingestChecked, ingestBad = gateIngest(base, cur, *ingestDiv)
		for _, m := range ingestChecked {
			status := "ok"
			if m.belowFloor(*ingestDiv) {
				status = "REGRESSED"
			}
			fmt.Printf("benchgate: %-40s committed %.0f, current %.0f, floor %.0f  [%s]\n",
				m.name, m.committed, m.current, m.committed / *ingestDiv, status)
		}
		if len(ingestChecked) == 0 {
			fmt.Println("benchgate: no committed ingest row was measured; ingest not gated")
		} else {
			fmt.Printf("benchgate: %d ingest floor(s) checked\n", len(ingestChecked))
		}
	}

	var aggBad []measurement
	if *aggBase != "" {
		base, err := loadAgg(*aggBase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadAgg(*aggCur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		var aggChecked []measurement
		aggChecked, aggBad = gateIngest(base, cur, *aggDiv)
		for _, m := range aggChecked {
			status := "ok"
			if m.belowFloor(*aggDiv) {
				status = "REGRESSED"
			}
			fmt.Printf("benchgate: %-40s committed %.0f, current %.0f, floor %.0f  [%s]\n",
				m.name, m.committed, m.current, m.committed / *aggDiv, status)
		}
		if len(aggChecked) == 0 {
			fmt.Println("benchgate: no committed agg row was measured; agg not gated")
		} else {
			fmt.Printf("benchgate: %d agg floor(s) checked\n", len(aggChecked))
		}
	}

	var walBad []measurement
	if *walBase != "" {
		_, base, err := loadWAL(*walBase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		curRows, cur, err := loadWAL(*walCur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		walChecked, walRowBad := gateIngest(base, cur, *walDiv)
		walBad = walRowBad
		// Same-file consistency: the durability tax measured against the
		// WAL-off rows from the same job.
		ovChecked, ovBad := gateWALOverhead(curRows, *walDiv)
		walChecked = append(walChecked, ovChecked...)
		walBad = append(walBad, ovBad...)
		// Cross-file: WAL-on throughput against the committed ingest binary
		// trajectory, when the committed ingest baseline is at hand.
		if *ingestBase != "" {
			ingestCommitted, err := loadIngest(*ingestBase)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
				os.Exit(2)
			}
			xChecked, xBad := gateWALVsIngest(curRows, ingestCommitted, *walDiv)
			walChecked = append(walChecked, xChecked...)
			walBad = append(walBad, xBad...)
		}
		for _, m := range walChecked {
			status := "ok"
			if m.belowFloor(*walDiv) {
				status = "REGRESSED"
			}
			fmt.Printf("benchgate: %-56s committed %.0f, current %.0f, floor %.0f  [%s]\n",
				m.name, m.committed, m.current, m.committed / *walDiv, status)
		}
		if len(walChecked) == 0 {
			fmt.Println("benchgate: no committed wal row was measured; wal not gated")
		} else {
			fmt.Printf("benchgate: %d wal floor(s) checked\n", len(walChecked))
		}
	}

	var latBad []measurement
	if *latBase != "" {
		base, err := loadLatency(*latBase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadLatency(*latCur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		latChecked, latAllBad := gateLatency(base, cur, *latMult, *latAbsUs, *latDiv)
		latBad = latAllBad
		isBad := map[string]bool{}
		for _, m := range latBad {
			isBad[m.name] = true
		}
		for _, m := range latChecked {
			status := "ok"
			if isBad[m.name] {
				status = "REGRESSED"
			}
			if strings.Contains(m.name, "p99") {
				fmt.Printf("benchgate: %-40s committed %.0f, current %.0f, ceiling %.0f  [%s]\n",
					m.name, m.committed, m.current, m.committed**latMult+*latAbsUs, status)
			} else {
				fmt.Printf("benchgate: %-40s committed %.0f, current %.0f, floor %.0f  [%s]\n",
					m.name, m.committed, m.current, m.committed / *latDiv, status)
			}
		}
		if len(latChecked) == 0 {
			fmt.Println("benchgate: no committed latency phase was measured; latency not gated")
		} else {
			fmt.Printf("benchgate: %d latency SLO(s) checked\n", len(latChecked))
		}
	}

	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d allocation budget(s) regressed past committed*(1+%.2f)+%.0f\n",
			len(bad), *slack, *abs)
	}
	if len(ingestBad) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d ingest floor(s) fell below committed/%.2f\n",
			len(ingestBad), *ingestDiv)
	}
	if len(aggBad) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d agg floor(s) fell below committed/%.2f\n",
			len(aggBad), *aggDiv)
	}
	if len(walBad) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d wal floor(s) fell below committed/%.2f\n",
			len(walBad), *walDiv)
	}
	if len(latBad) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d latency SLO(s) broken (p99 past committed*%.2f+%.0fµs, or achieved rate below committed/%.2f)\n",
			len(latBad), *latMult, *latAbsUs, *latDiv)
	}
	if len(bad) > 0 || len(ingestBad) > 0 || len(aggBad) > 0 || len(walBad) > 0 || len(latBad) > 0 {
		os.Exit(1)
	}
}
