// Command microbench regenerates the paper's §6.1 micro-benchmark figures
// and the repository's scaling sweep:
//
//	microbench -fig 4a      elapsed time vs #queries, with/without kernel
//	microbench -fig 4b      throughput vs #queries, with/without kernel
//	microbench -fig 5a      latency vs batch size for 10/100/1000 queries
//	microbench -fig 5b      strategy comparison vs #queries (kernel-wired)
//	microbench -fig 5be     strategy comparison vs #queries (public engine)
//	microbench -fig scale   throughput vs parallelism, per strategy
//	microbench -fig prune   per-clone tuple counts vs selectivity × parallelism
//	microbench -fig agg     two-phase aggregation events/s vs parallelism, per strategy
//	microbench -fig adapt   ramp workload: adaptive controller vs static parallelism
//	microbench -fig ingest  loopback ingest events/s: protocol × batch × shards
//	microbench -fig wal     loopback binary ingest events/s: WAL off/on × fsync interval
//	microbench -fig kernel  pure kernel events/second
//	microbench -fig all     everything
//
// Use -tuples to scale the stream (the paper uses 10^5). With -json, each
// figure additionally writes its data points to BENCH_<fig>.json so the
// performance trajectory is machine-readable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	datacell "datacell"
	"datacell/internal/microbench"
	"datacell/internal/provenance"
)

// writeJSON dumps one figure's data points to BENCH_<fig>.json, stamped
// with the capturing environment so benchgate can flag cross-host
// comparisons.
func writeJSON(enabled bool, fig string, rows any) error {
	if !enabled {
		return nil
	}
	payload := map[string]any{"fig": fig, "rows": rows, "provenance": provenance.Capture()}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+fig+".json", append(data, '\n'), 0o644)
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4a, 4b, 5a, 5b, 5be, scale, prune, agg, adapt, ingest, wal, kernel, all")
	tuples := flag.Int("tuples", 100_000, "tuples per run (paper: 1e5)")
	seed := flag.Int64("seed", 1, "workload seed")
	jsonOut := flag.Bool("json", false, "also write each figure's data to BENCH_<fig>.json")
	flag.Parse()

	run := func(name string, f func() error) {
		switch *fig {
		case name, "all":
			if err := f(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}
	run("4a", func() error { return fig4(*tuples, true, *jsonOut) })
	run("4b", func() error { return fig4(*tuples, false, *jsonOut) })
	run("5a", func() error { return fig5a(*tuples, *seed, *jsonOut) })
	run("5b", func() error { return fig5b(*tuples, *seed, *jsonOut) })
	run("5be", func() error { return fig5bEngine(*tuples, *seed, *jsonOut) })
	run("scale", func() error { return figScale(*tuples, *seed, *jsonOut) })
	run("prune", func() error { return figPrune(*tuples, *seed, *jsonOut) })
	run("agg", func() error { return figAgg(*tuples, *seed, *jsonOut) })
	run("adapt", func() error { return figAdapt(*tuples, *seed, *jsonOut) })
	run("ingest", func() error { return figIngest(*tuples, *jsonOut) })
	run("wal", func() error { return figWAL(*tuples, *jsonOut) })
	run("kernel", func() error { return kernel(*tuples, *seed, *jsonOut) })
	switch *fig {
	case "4a", "4b", "5a", "5b", "5be", "scale", "prune", "agg", "adapt", "ingest", "wal", "kernel", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

// fig4 runs the communication pipeline for 8..64 chained queries, with and
// without the kernel in the loop. elapsed=true prints Figure 4a (elapsed
// ms), else Figure 4b (throughput).
func fig4(tuples int, elapsed, jsonOut bool) error {
	type row struct {
		Queries         int     `json:"queries"`
		WithKernelMs    float64 `json:"with_kernel_ms"`
		WithoutKernelMs float64 `json:"without_kernel_ms"`
		WithKernelTps   float64 `json:"with_kernel_tps"`
		WithoutKernTps  float64 `json:"without_kernel_tps"`
	}
	name := "4b"
	if elapsed {
		name = "4a"
		fmt.Println("# Figure 4a: elapsed time (ms) vs number of queries")
		fmt.Println("queries\twith_kernel_ms\twithout_kernel_ms")
	} else {
		fmt.Println("# Figure 4b: throughput (10^3 tuples/s) vs number of queries")
		fmt.Println("queries\twith_kernel\twithout_kernel")
	}
	var rows []row
	for _, q := range []int{8, 16, 32, 64} {
		with, err := microbench.RunCommPipeline(q, tuples, true)
		if err != nil {
			return err
		}
		without, err := microbench.RunCommPipeline(q, tuples, false)
		if err != nil {
			return err
		}
		r := row{
			Queries:         q,
			WithKernelMs:    float64(with.Elapsed.Microseconds()) / 1000,
			WithoutKernelMs: float64(without.Elapsed.Microseconds()) / 1000,
			WithKernelTps:   with.Throughput,
			WithoutKernTps:  without.Throughput,
		}
		rows = append(rows, r)
		if elapsed {
			fmt.Printf("%d\t%.1f\t%.1f\n", q, r.WithKernelMs, r.WithoutKernelMs)
		} else {
			fmt.Printf("%d\t%.2f\t%.2f\n", q, r.WithKernelTps/1000, r.WithoutKernTps/1000)
		}
	}
	return writeJSON(jsonOut, name, rows)
}

// fig5a sweeps the batch size for 10, 100 and 1000 installed queries.
func fig5a(tuples int, seed int64, jsonOut bool) error {
	type row struct {
		Batch     int     `json:"batch"`
		Queries   int     `json:"queries"`
		LatencyUs float64 `json:"latency_us"`
	}
	fmt.Println("# Figure 5a: avg latency per tuple (µs) vs batch size")
	fmt.Println("batch\tq10\tq100\tq1000")
	var rows []row
	for _, batch := range []int{1, 10, 100, 1_000, 10_000, 100_000} {
		if batch > tuples {
			break
		}
		fmt.Printf("%d", batch)
		for _, q := range []int{10, 100, 1_000} {
			total := tuples
			if batch == 1 && total > 20_000 {
				total = 20_000 // tuple-at-a-time at 1e5 takes minutes; scale down
			}
			res, err := microbench.RunBatchSweep(q, total, batch, 2_000, seed)
			if err != nil {
				return err
			}
			lat := float64(res.LatencyPer.Nanoseconds()) / 1000
			rows = append(rows, row{Batch: batch, Queries: q, LatencyUs: lat})
			fmt.Printf("\t%.1f", lat)
		}
		fmt.Println()
	}
	return writeJSON(jsonOut, "5a", rows)
}

// fig5b compares the three processing strategies while varying the number
// of queries, at a fixed batch of `tuples`.
func fig5b(tuples int, seed int64, jsonOut bool) error {
	type row struct {
		Queries  int     `json:"queries"`
		Strategy string  `json:"strategy"`
		Seconds  float64 `json:"seconds"`
		Results  int     `json:"results"`
	}
	fmt.Println("# Figure 5b: elapsed seconds vs number of queries, per strategy")
	fmt.Println("queries\tseparate\tshared\tpartial")
	var rows []row
	for _, q := range []int{2, 8, 32, 128, 256, 1024} {
		fmt.Printf("%d", q)
		for _, s := range []microbench.Strategy{
			microbench.StrategySeparate, microbench.StrategyShared, microbench.StrategyPartial,
		} {
			res, err := microbench.RunStrategySweep(s, q, tuples, seed)
			if err != nil {
				return err
			}
			rows = append(rows, row{Queries: q, Strategy: s.String(), Seconds: res.Elapsed.Seconds(), Results: res.Results})
			fmt.Printf("\t%.3f", res.Elapsed.Seconds())
		}
		fmt.Println()
	}
	return writeJSON(jsonOut, "5b", rows)
}

// fig5bEngine is the Figure 5b experiment driven through the public
// engine API: SQL queries, engine-level strategy selection, per-stream
// query groups. The replicas column shows the separate strategy copying
// every tuple once per query while shared and partial ingest it once.
func fig5bEngine(tuples int, seed int64, jsonOut bool) error {
	type row struct {
		Queries         int     `json:"queries"`
		Strategy        string  `json:"strategy"`
		Seconds         float64 `json:"seconds"`
		Results         int     `json:"results"`
		ReplicaAppended int64   `json:"replica_appended"`
	}
	fmt.Println("# Figure 5b (public engine): elapsed seconds vs number of queries, per strategy")
	fmt.Println("queries\tseparate\tshared\tpartial\treplicas_separate")
	var rows []row
	for _, q := range []int{2, 8, 32, 128, 256, 1024} {
		fmt.Printf("%d", q)
		var repl int64
		for _, s := range []datacell.Strategy{
			datacell.StrategySeparate, datacell.StrategyShared, datacell.StrategyPartial,
		} {
			res, err := datacell.RunFig5b(s, q, tuples, seed)
			if err != nil {
				return err
			}
			if s == datacell.StrategySeparate {
				repl = res.ReplicaAppended
			}
			rows = append(rows, row{
				Queries: q, Strategy: string(s),
				Seconds: res.Elapsed.Seconds(), Results: res.Results,
				ReplicaAppended: res.ReplicaAppended,
			})
			fmt.Printf("\t%.3f", res.Elapsed.Seconds())
		}
		fmt.Printf("\t%d\n", repl)
	}
	return writeJSON(jsonOut, "5be", rows)
}

// figScale sweeps the engine parallelism per strategy: one stream, 8
// disjoint predicate-window queries, threaded execution end to end. With
// hardware cores available, the partitioned wirings scale toward
// min(P, cores)×; the GOMAXPROCS column header records what this machine
// offers so the numbers can be read in context.
func figScale(tuples int, seed int64, jsonOut bool) error {
	type row struct {
		Parallelism int     `json:"parallelism"`
		Strategy    string  `json:"strategy"`
		Seconds     float64 `json:"seconds"`
		ThroughputK float64 `json:"throughput_ktps"`
		Results     int     `json:"results"`
		Partitions  int     `json:"partitions"`
	}
	const q = 8
	batch := tuples / 20
	fmt.Printf("# Scale: throughput (10^3 tuples/s) vs parallelism; %d queries, batches of %d, GOMAXPROCS=%d\n",
		q, batch, runtime.GOMAXPROCS(0))
	fmt.Println("parallelism\tseparate\tshared\tpartial")
	var rows []row
	for _, p := range []int{1, 2, 4, 8} {
		fmt.Printf("%d", p)
		for _, s := range []datacell.Strategy{
			datacell.StrategySeparate, datacell.StrategyShared, datacell.StrategyPartial,
		} {
			res, err := datacell.RunScale(s, p, q, tuples, batch, seed)
			if err != nil {
				return err
			}
			rows = append(rows, row{
				Parallelism: p, Strategy: string(s),
				Seconds: res.Elapsed.Seconds(), ThroughputK: res.Throughput / 1000,
				Results: res.Results, Partitions: res.Partitions,
			})
			fmt.Printf("\t%.1f", res.Throughput/1000)
		}
		fmt.Println()
	}
	return writeJSON(jsonOut, "scale", rows)
}

// figPrune sweeps selectivity × parallelism over a sargable range-query
// workload and reports the tuples each partition clone actually receives.
// Under blind round-robin a clone sees tuples/P regardless of the
// predicate (placement); under range routing it sees ≈ selectivity ×
// tuples/P, with the rest short-circuited to the catch-all (pruning) —
// per-clone input shrinks with P *and* with selectivity.
func figPrune(tuples int, seed int64, jsonOut bool) error {
	type row struct {
		Strategy          string  `json:"strategy"`
		Selectivity       float64 `json:"selectivity"`
		Parallelism       int     `json:"parallelism"`
		Partitions        int     `json:"partitions"`
		Routing           string  `json:"routing"`
		PerClone          float64 `json:"per_clone_tuples"`
		PlacementPerClone float64 `json:"placement_per_clone_tuples"`
		Pruned            int64   `json:"pruned_tuples"`
		Results           int     `json:"results"`
		Seconds           float64 `json:"seconds"`
		ThroughputK       float64 `json:"throughput_ktps"`
	}
	const q = 8
	batch := tuples / 20
	fmt.Printf("# Prune: avg tuples per clone vs selectivity and parallelism; %d range queries, batches of %d, GOMAXPROCS=%d\n",
		q, batch, runtime.GOMAXPROCS(0))
	fmt.Println("strategy\tselectivity\tP\trouting\tper_clone\tplacement_per_clone\tpruned\tresults")
	var rows []row
	for _, s := range []datacell.Strategy{datacell.StrategySeparate, datacell.StrategyShared} {
		for _, sel := range []float64{0.1, 0.5, 1.0} {
			for _, p := range []int{1, 2, 4, 8} {
				res, err := datacell.RunPrune(s, p, q, tuples, sel, batch, seed)
				if err != nil {
					return err
				}
				rows = append(rows, row{
					Strategy: string(s), Selectivity: sel,
					Parallelism: p, Partitions: res.Partitions, Routing: res.Routing,
					PerClone: res.PerClone, PlacementPerClone: res.PlacementPerClone,
					Pruned: res.Pruned, Results: res.Results,
					Seconds: res.Elapsed.Seconds(), ThroughputK: res.Throughput / 1000,
				})
				fmt.Printf("%s\t%.2f\t%d\t%s\t%.0f\t%.0f\t%d\t%d\n",
					s, sel, p, res.Routing, res.PerClone, res.PlacementPerClone, res.Pruned, res.Results)
			}
		}
	}
	return writeJSON(jsonOut, "prune", rows)
}

// figAgg sweeps two-phase partitioned aggregation: grouped and global
// aggregate queries at P ∈ {1, 2, 4, 8} per sharing strategy. At P>1 the
// hash-routed grouped queries concatenate their final per-partition groups
// and the global aggregate is folded by a combining merge emitter (see
// RunAgg); the events/s floor of the best column is what the CI gate
// guards in BENCH_agg.json.
func figAgg(tuples int, seed int64, jsonOut bool) error {
	type row struct {
		Strategy     string  `json:"strategy"`
		Parallelism  int     `json:"parallelism"`
		Partitions   int     `json:"partitions"`
		Routing      string  `json:"routing"`
		Queries      int     `json:"queries"`
		Tuples       int     `json:"tuples"`
		EventsPerSec float64 `json:"events_per_second"`
		Results      int     `json:"results"`
		Seconds      float64 `json:"seconds"`
	}
	const q = 8
	batch := tuples / 20
	fmt.Printf("# Agg: two-phase aggregation events/s (10^3) vs parallelism; %d queries, batches of %d, GOMAXPROCS=%d\n",
		q, batch, runtime.GOMAXPROCS(0))
	fmt.Println("parallelism\tseparate\tshared\tpartial")
	var rows []row
	for _, p := range []int{1, 2, 4, 8} {
		fmt.Printf("%d", p)
		for _, s := range []datacell.Strategy{
			datacell.StrategySeparate, datacell.StrategyShared, datacell.StrategyPartial,
		} {
			res, err := datacell.RunAgg(s, p, q, tuples, batch, seed)
			if err != nil {
				return err
			}
			rows = append(rows, row{
				Strategy: string(s), Parallelism: p,
				Partitions: res.Partitions, Routing: res.Routing,
				Queries: res.Queries, Tuples: res.Tuples,
				EventsPerSec: res.Throughput, Results: res.Results,
				Seconds: res.Elapsed.Seconds(),
			})
			fmt.Printf("\t%.1f", res.Throughput/1000)
		}
		fmt.Println()
	}
	return writeJSON(jsonOut, "agg", rows)
}

// figAdapt races the adaptive controller against static parallelism on a
// stepped load profile (trickle → burst → trickle → burst). The
// interesting column is auto: it must land within the benchgate's floor
// of the best static setting (committed in BENCH_adapt.json) while never
// falling below P=1 — on a one-core box the controller simply refuses to
// scale up, so auto ≈ static-1 by construction.
func figAdapt(tuples int, seed int64, jsonOut bool) error {
	type row struct {
		Mode         string  `json:"mode"`
		Strategy     string  `json:"strategy"`
		Tuples       int     `json:"tuples"`
		EventsPerSec float64 `json:"events_per_second"`
		Results      int     `json:"results"`
		Rewires      int64   `json:"rewires"`
		FinalP       int     `json:"final_p"`
		MaxP         int     `json:"max_p"`
		Seconds      float64 `json:"seconds"`
	}
	fmt.Printf("# Adapt: ramp workload (trickle/burst steps) events/s (10^3); GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	fmt.Println("mode\tevents_per_sec\trewires\tmax_p\tfinal_p")
	var rows []row
	for _, mode := range []string{"static-1", "static-4", "auto"} {
		res, err := datacell.RunAdapt(mode, tuples, seed)
		if err != nil {
			return err
		}
		rows = append(rows, row{
			Mode: res.Mode, Strategy: string(res.Strategy), Tuples: res.Tuples,
			EventsPerSec: res.Throughput, Results: res.Results,
			Rewires: res.Rewires, FinalP: res.FinalP, MaxP: res.MaxP,
			Seconds: res.Elapsed.Seconds(),
		})
		fmt.Printf("%s\t%.1f\t%d\t%d\t%d\n", res.Mode, res.Throughput/1000, res.Rewires, res.MaxP, res.FinalP)
	}
	return writeJSON(jsonOut, "adapt", rows)
}

// figIngest sweeps the ingest periphery over loopback TCP: textual vs
// binary wire protocol × batch size × receptor shard count, reporting
// end-to-end events/second (first dial to kernel quiescence). It is the
// Figure 4 experiment with the communication pipeline itself as the
// swept variable; the headline ratio — binary sharded vs textual
// single-socket — is what the CI gate guards in BENCH_ingest.json.
func figIngest(tuples int, jsonOut bool) error {
	type row struct {
		Protocol     string  `json:"protocol"`
		Shards       int     `json:"shards"`
		Batch        int     `json:"batch"`
		Tuples       int     `json:"tuples"`
		EventsPerSec float64 `json:"events_per_second"`
		Frames       int64   `json:"frames"`
		Stalls       int64   `json:"stalls"`
	}
	fmt.Printf("# Ingest: events/s (10^6) over loopback TCP; protocol × batch × shards, GOMAXPROCS=%d\n",
		runtime.GOMAXPROCS(0))
	fmt.Println("protocol\tbatch\tshards\tevents_per_sec")
	var rows []row
	baseline := 0.0 // textual single-socket at the largest batch
	best := 0.0     // best binary sharded setting
	for _, binary := range []bool{false, true} {
		for _, batch := range []int{64, 1024} {
			for _, shards := range []int{1, 4} {
				res, err := datacell.RunIngest(binary, shards, batch, tuples)
				if err != nil {
					return err
				}
				proto := "text"
				if binary {
					proto = "binary"
				}
				rows = append(rows, row{
					Protocol: proto, Shards: shards, Batch: batch, Tuples: tuples,
					EventsPerSec: res.EventsPerSec, Frames: res.Frames, Stalls: res.Stalls,
				})
				fmt.Printf("%s\t%d\t%d\t%.2fM\n", proto, batch, shards, res.EventsPerSec/1e6)
				if !binary && shards == 1 && res.EventsPerSec > baseline {
					baseline = res.EventsPerSec
				}
				if binary && shards > 1 && res.EventsPerSec > best {
					best = res.EventsPerSec
				}
			}
		}
	}
	if baseline > 0 {
		fmt.Printf("# binary sharded vs textual single-socket: %.2fx\n", best/baseline)
	}
	return writeJSON(jsonOut, "ingest", rows)
}

// figWAL sweeps the durability tax: binary loopback ingest with the WAL
// off and on at two group-commit intervals, over the same shards × batch
// grid the ingest figure uses for its binary rows. benchgate's
// -wal-baseline holds the WAL-on rows to a fraction of both their own
// committed floors and the committed WAL-off ingest numbers.
func figWAL(tuples int, jsonOut bool) error {
	type row struct {
		WAL            string  `json:"wal"`
		SyncIntervalMS float64 `json:"sync_interval_ms"`
		Protocol       string  `json:"protocol"`
		Shards         int     `json:"shards"`
		Batch          int     `json:"batch"`
		Tuples         int     `json:"tuples"`
		EventsPerSec   float64 `json:"events_per_second"`
		Frames         int64   `json:"frames"`
		WALBytes       int64   `json:"wal_bytes"`
	}
	fmt.Printf("# WAL: binary ingest events/s (10^6) over loopback TCP; wal off/on × fsync interval, GOMAXPROCS=%d\n",
		runtime.GOMAXPROCS(0))
	fmt.Println("wal\tsync_ms\tbatch\tshards\tevents_per_sec")
	type mode struct {
		on   bool
		sync time.Duration
	}
	modes := []mode{{false, 0}, {true, 2 * time.Millisecond}, {true, 10 * time.Millisecond}}
	var rows []row
	off := map[[2]int]float64{} // (shards,batch) → WAL-off events/s
	worst := 1.0
	for _, m := range modes {
		for _, batch := range []int{64, 1024} {
			for _, shards := range []int{1, 4} {
				res, err := datacell.RunIngestWAL(m.on, m.sync, shards, batch, tuples)
				if err != nil {
					return err
				}
				walCol := "off"
				if m.on {
					walCol = "on"
				}
				rows = append(rows, row{
					WAL: walCol, SyncIntervalMS: float64(m.sync) / float64(time.Millisecond),
					Protocol: "binary", Shards: shards, Batch: batch, Tuples: tuples,
					EventsPerSec: res.EventsPerSec, Frames: res.Frames, WALBytes: res.WALBytes,
				})
				fmt.Printf("%s\t%g\t%d\t%d\t%.2fM\n",
					walCol, float64(m.sync)/float64(time.Millisecond), batch, shards, res.EventsPerSec/1e6)
				key := [2]int{shards, batch}
				if !m.on {
					off[key] = res.EventsPerSec
				} else if base := off[key]; base > 0 {
					if r := res.EventsPerSec / base; r < worst {
						worst = r
					}
				}
			}
		}
	}
	fmt.Printf("# worst WAL-on / WAL-off ratio: %.2fx\n", worst)
	return writeJSON(jsonOut, "wal", rows)
}

// kernel measures pure kernel activity and the firing path's allocation
// profile: allocs/firing and bytes/firing cover one Append+fire+drain
// round (including the amortised warm-up growth of the fresh baskets; the
// steady-state firing itself is allocation free).
func kernel(tuples int, seed int64, jsonOut bool) error {
	const rounds = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rate, err := microbench.KernelThroughput(tuples, rounds, seed)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / rounds
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	fmt.Printf("# Pure kernel activity (no communication): %.2fM events/s per factory, %.1f allocs/firing, %.0f B/firing\n",
		rate/1e6, allocs, bytes)
	if !jsonOut {
		return nil
	}
	return mergeKernelJSON(map[string]any{
		"phase":             "this_pr",
		"events_per_second": rate,
		"allocs_per_firing": allocs,
		"bytes_per_firing":  bytes,
	})
}

// mergeKernelJSON updates BENCH_kernel.json in place: the file carries
// the performance trajectory (baseline rows, go-test benchmark rows),
// so only the tool's own current-measurement row is replaced — a
// regeneration must never destroy the committed baseline record.
func mergeKernelJSON(row map[string]any) error {
	doc := map[string]any{}
	if data, err := os.ReadFile("BENCH_kernel.json"); err == nil {
		// A corrupt file starts the trajectory over rather than erroring.
		_ = json.Unmarshal(data, &doc)
	}
	var rows []any
	if prev, ok := doc["rows"].([]any); ok {
		for _, r := range prev {
			if m, ok := r.(map[string]any); ok && m["phase"] == "this_pr" && m["benchmark"] == nil {
				continue // the row this measurement replaces
			}
			rows = append(rows, r)
		}
	}
	doc["fig"] = "kernel"
	doc["rows"] = append(rows, row)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_kernel.json", append(data, '\n'), 0o644)
}
