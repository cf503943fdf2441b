package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// plan is how one run spends its time.
type plan struct {
	setups      int           // set-ups timed; the last one is measured on
	warm        time.Duration // paced, discarded
	paced       time.Duration // open loop at the workload's rate
	blast       time.Duration // closed loop
	window      time.Duration // percentile / rate window
	traceFrames int           // frames of the stepped traced replay
}

// planFor splits a run of the given measured length (the driver's
// --seconds) 60:40 between the paced and the blast segment, with a
// tenth more of paced warm-up in front.
func planFor(seconds float64) plan {
	s := time.Duration(seconds * float64(time.Second))
	return plan{
		setups:      11,
		warm:        s / 10,
		paced:       s * 6 / 10,
		blast:       s * 4 / 10,
		window:      min(time.Second, s/10),
		traceFrames: 1000,
	}
}

// result is everything one run of one workload reports.
type result struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	RateEPS     float64 `json:"rate_eps"`
	InputSHA256 string  `json:"input_sha256"`
	Correct     bool    `json:"correct"`
	Verdict     string  `json:"verdict"`
	Attempted   int64   `json:"attempted"`
	Failed      int64   `json:"failed"`

	LatWindows      int   `json:"latency_windows"`
	LatSamples      int64 `json:"latency_samples"`
	LatMinPerWindow int   `json:"latency_min_samples_per_window"`
	CapacityWindows int   `json:"capacity_windows"`
	SetupRuns       int   `json:"setup_runs"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
}

// errGeneratorLate marks a run whose paced generator fell behind its
// schedule: its numbers would measure this process's scheduling, not
// the engine, so none are reported.
var errGeneratorLate = errors.New("paced generator ran late")

// checkGenerator is the generator-lag guard over one paced segment of n
// frames.
func checkGenerator(gen sendStats, n int) error {
	if frac := ratio(float64(gen.late), float64(n)); frac > maxLateFrac {
		return fmt.Errorf("%w: %.1f%% of %d frames went out more than %v after they could have (worst %v); limit %.0f%%",
			errGeneratorLate, 100*frac, n, lateAfter, gen.maxLag, 100*maxLateFrac)
	}
	return nil
}

// runWorkload sets the workload up, runs warm-up, the paced and the
// blast segment, verifies the outputs and, when traced, adds the
// stepped replay's span metrics to the per-layer table.
func runWorkload(w *workload, seed int64, p plan, traced bool) (*result, error) {
	pacer, err := startSender()
	if err != nil {
		return nil, fmt.Errorf("sender process: %w", err)
	}
	defer pacer.stop()
	var setups []float64
	var r *rig
	for i := 0; i < p.setups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		if r, err = setup(w, seed, ringSlots, pacer); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()

	if _, _, err := r.paced(p.warm, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p0 := r.counters()
	gen, seg, err := r.paced(p.paced, p.window)
	if err != nil {
		return nil, fmt.Errorf("paced segment: %w", err)
	}
	p1 := r.counters()
	if err := checkGenerator(gen, seg.sched.n); err != nil {
		return nil, err
	}
	bst, rates, err := r.blast(p.blast, p.window)
	if err != nil {
		return nil, fmt.Errorf("blast segment: %w", err)
	}
	b1 := r.counters()

	lat := summarize(seg.logs, int(p.paced/p.window))
	v := r.verify()
	offered := int64(seg.sched.n+bst.frames) * frameTuples
	var late, orphans int64
	for i := range seg.logs {
		late += seg.logs[i].late
		orphans += seg.logs[i].orphans
	}
	walGap := int64(0)
	if w.wal {
		walGap = max(int64(b1.walFrames)-b1.frames, b1.frames-int64(b1.walFrames))
	}
	failed := int64(gen.overdue)*frameTuples + // offered but not sent on schedule
		(b1.invalid+b1.walErrs+walGap)*frameTuples + b1.dropped + // rejected on the way in
		late + orphans + v.mismatch + v.bad // results late, unaccounted, missing or wrong
	failed = min(failed, offered)

	res := &result{
		Workload: w.name, Seed: seed, RateEPS: w.rateEPS, InputSHA256: r.ring.sha,
		Correct: failed == 0, Attempted: offered, Failed: failed,
		LatWindows: lat.windows, LatSamples: lat.samples, LatMinPerWindow: lat.minWindow,
		CapacityWindows: len(rates), SetupRuns: len(setups),
	}
	res.Verdict = fmt.Sprintf("%d fold keys match", v.keys)
	if !res.Correct {
		res.Verdict = fmt.Sprintf("FAILED: overdue frames %d, invalid %d, wal errors %d, wal/ingest frame gap %d, dropped %d, late rows %d, orphan rows %d, bad rows %d, fold mismatch %d %s",
			gen.overdue, b1.invalid, b1.walErrs, walGap, b1.dropped, late, orphans, v.bad, v.mismatch, v.detail)
	}
	res.EndToEnd = map[string]float64{
		"setup_s":      median(setups),
		"capacity_eps": median(rates),
		"lat_p50_ms":   lat.p50ms,
		"lat_p99_ms":   lat.p99ms,
	}
	res.PerLayer = layerMetrics(w, p0, p1, b1, gen, seg.sched.n, lat)
	res.PerLayer["verify.failed_frac"] = ratio(float64(failed), float64(offered))
	if traced {
		tm, err := tracedRun(w, seed, p.traceFrames)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for k, val := range tm {
			res.PerLayer[k] = val
		}
	}
	return res, nil
}
