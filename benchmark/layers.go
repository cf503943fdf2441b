package main

import (
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric. bound applies to end-to-end
// metrics only: the share of the baseline by which the metric may get
// worse before -compare calls it a regression. BENCHMARK.json repeats
// these tables; a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"capacity_eps", "events/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.20},
	{"lat_p99_ms", "ms", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "verify.failed_frac", unit: "ratio", better: "lower"},
	{name: "gen.max_lag_ms", unit: "ms", better: "lower"},
	{name: "gen.write_stall_s", unit: "s", better: "lower"},
	{name: "gen.late_frac", unit: "ratio", better: "lower"},
	{name: "ingest.frames", unit: "count", better: "higher"},
	{name: "ingest.tuples", unit: "count", better: "higher"},
	{name: "ingest.invalid", unit: "count", better: "lower"},
	{name: "ingest.route_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "ingest.stalls", unit: "count", better: "lower"},
	{name: "ingest.stall_s", unit: "s", better: "lower"},
	{name: "ingest.blast_stall_frac", unit: "ratio", better: "lower"},
	{name: "wal.frames", unit: "count", better: "higher"},
	{name: "wal.bytes", unit: "bytes", better: "lower"},
	{name: "wal.syncs", unit: "count", better: "lower"},
	{name: "wal.frames_per_sync", unit: "frames", better: "higher"},
	{name: "basket.highwater", unit: "tuples", better: "lower"},
	{name: "basket.resident_end", unit: "tuples", better: "lower"},
	{name: "basket.dropped", unit: "count", better: "lower"},
	{name: "router.routed", unit: "count", better: "higher"},
	{name: "router.pruned", unit: "count", better: "higher"},
	{name: "core.fires", unit: "count", better: "lower"},
	{name: "core.busy_s", unit: "s", better: "lower"},
	{name: "core.tuples_per_fire", unit: "tuples", better: "higher"},
	{name: "core.errors", unit: "count", better: "lower"},
	{name: "merge.waits", unit: "count", better: "lower"},
	{name: "merge.wait_s", unit: "s", better: "lower"},
	{name: "adapt.rewires", unit: "count", better: "lower"},
	{name: "emit.busy_s", unit: "s", better: "lower"},
	{name: "emit.rows", unit: "count", better: "higher"},
	{name: "emit.batches", unit: "count", better: "lower"},
	{name: "engine.lat_p50_ms", unit: "ms", better: "lower"},
	{name: "engine.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "engine.lat_gap_frac", unit: "ratio", better: "lower"},
	{name: "proc.cpu_us_per_event", unit: "us", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.allocs_per_event", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.goroutines", unit: "count", better: "lower"},
	{name: "trace.sql.parse_us", unit: "us", better: "lower"},
	{name: "trace.engine.register_us", unit: "us", better: "lower"},
	{name: "trace.ingest.encode_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "trace.ingest.decode_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "trace.wal.log_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "trace.wal.sync_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "trace.ingest.recv_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "trace.core.fire_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "trace.emit.deliver_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "trace.sub.callback_us_per_ktuple", unit: "us/ktuple", better: "lower"},
	{name: "trace.p1_eps", unit: "events/s", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// counters is the flat view of one Engine.Snapshot plus the process
// counters the per-layer table is built from. All fields except the
// gauges (highWater, resident, engine latencies, goroutines, rss) are
// cumulative, so a segment's share is a difference of two counters.
type counters struct {
	at time.Time

	frames, tuples, invalid, walErrs, stalls int64
	stallT, routeT                           time.Duration

	walFrames, walBytes, walSyncs uint64

	highWater, dropped int64
	resident           int
	routed, pruned     int64
	rewires            int64

	fires, errors, mergeWaits int64
	busy, mergeWait, emitBusy time.Duration
	engP50, engP99            time.Duration // latency-count-weighted mean over queries

	recRows, recBatches int64

	cpu        time.Duration // user+sys
	rssKB      int64
	mallocs    uint64
	gcPause    time.Duration
	goroutines int
}

func (r *rig) counters() counters {
	s := r.eng.Snapshot()
	c := counters{at: time.Now(), goroutines: runtime.NumGoroutine()}
	for _, in := range s.Ingest {
		c.frames += in.Frames
		c.tuples += in.Tuples
		c.invalid += in.Invalid
		c.walErrs += in.WALErrors
		c.stalls += in.Stalls
		c.stallT += in.StallTime
		c.routeT += in.RouteTime
	}
	for _, w := range s.WAL {
		c.walFrames += w.Frames
		c.walBytes += w.Bytes
		c.walSyncs += w.Syncs
	}
	for _, b := range s.Baskets {
		c.highWater = max(c.highWater, b.HighWater)
		c.resident += b.Resident
		c.dropped += b.Dropped
	}
	for _, g := range s.Groups {
		c.routed += g.RoutedParts
		c.pruned += g.Pruned
		c.rewires += g.Rewires
	}
	var latN int64
	var p50, p99 float64
	for _, q := range s.Queries {
		c.fires += q.Fires
		c.errors += q.Errors
		c.busy += q.Busy
		c.mergeWaits += q.MergeWaits
		c.mergeWait += q.MergeWait
		c.emitBusy += q.EmitBusy
		latN += q.LatCount
		p50 += float64(q.LatP50) * float64(q.LatCount)
		p99 += float64(q.LatP99) * float64(q.LatCount)
	}
	if latN > 0 {
		c.engP50 = time.Duration(p50 / float64(latN))
		c.engP99 = time.Duration(p99 / float64(latN))
	}
	c.recRows, c.recBatches = r.rec.totals()

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.rssKB = int64(ru.Maxrss)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.gcPause = time.Duration(ms.PauseTotalNs)
	return c
}

// totals sums rows and batches over queries. Call only when no delivery
// is in flight (after settle).
func (r *recorder) totals() (rows, batches int64) {
	for i := range r.q {
		rows += r.q[i].rows
		batches += r.q[i].batches
	}
	return rows, batches
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics builds the per-layer table from the counters before the
// paced segment (p0), between it and the blast (p1) and after the blast
// (b1).
func layerMetrics(w *workload, p0, p1, b1 counters, gen sendStats, offered int, lat latSummary) map[string]float64 {
	tuples := float64(p1.tuples - p0.tuples)
	fires := float64(p1.fires - p0.fires)
	syncs := float64(p1.walSyncs - p0.walSyncs)
	engP50 := p1.engP50.Seconds() * 1e3
	return map[string]float64{
		"gen.max_lag_ms":    gen.maxLag.Seconds() * 1e3,
		"gen.write_stall_s": gen.stall.Seconds(),
		"gen.late_frac":     ratio(float64(gen.late), float64(offered)),

		"ingest.frames":              float64(p1.frames - p0.frames),
		"ingest.tuples":              tuples,
		"ingest.invalid":             float64(p1.invalid - p0.invalid),
		"ingest.route_us_per_ktuple": ratio((p1.routeT-p0.routeT).Seconds()*1e6, tuples/1e3),
		"ingest.stalls":              float64(p1.stalls - p0.stalls),
		"ingest.stall_s":             (p1.stallT - p0.stallT).Seconds(),
		"ingest.blast_stall_frac":    ratio((b1.stallT - p1.stallT).Seconds(), senders*b1.at.Sub(p1.at).Seconds()),

		"wal.frames":          float64(p1.walFrames - p0.walFrames),
		"wal.bytes":           float64(p1.walBytes - p0.walBytes),
		"wal.syncs":           syncs,
		"wal.frames_per_sync": ratio(float64(p1.walFrames-p0.walFrames), syncs),

		"basket.highwater":    float64(p1.highWater),
		"basket.resident_end": float64(p1.resident),
		"basket.dropped":      float64(p1.dropped - p0.dropped),
		"router.routed":       float64(p1.routed - p0.routed),
		"router.pruned":       float64(p1.pruned - p0.pruned),

		"core.fires":           fires,
		"core.busy_s":          (p1.busy - p0.busy).Seconds(),
		"core.tuples_per_fire": ratio(tuples*float64(len(w.queries)), fires),
		"core.errors":          float64(p1.errors - p0.errors),
		"merge.waits":          float64(p1.mergeWaits - p0.mergeWaits),
		"merge.wait_s":         (p1.mergeWait - p0.mergeWait).Seconds(),
		"adapt.rewires":        float64(p1.rewires - p0.rewires),

		"emit.busy_s":  (p1.emitBusy - p0.emitBusy).Seconds(),
		"emit.rows":    float64(p1.recRows - p0.recRows),
		"emit.batches": float64(p1.recBatches - p0.recBatches),

		"engine.lat_p50_ms":   engP50,
		"engine.lat_p99_ms":   p1.engP99.Seconds() * 1e3,
		"engine.lat_gap_frac": ratio(lat.p50ms-engP50, lat.p50ms),

		"proc.cpu_us_per_event": ratio((p1.cpu-p0.cpu).Seconds()*1e6, tuples),
		"proc.peak_rss_mb":      float64(b1.rssKB) / 1024,
		"proc.allocs_per_event": ratio(float64(p1.mallocs-p0.mallocs), tuples),
		"proc.gc_pause_ms":      (p1.gcPause - p0.gcPause).Seconds() * 1e3,
		"proc.goroutines":       float64(p1.goroutines),
	}
}
