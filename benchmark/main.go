// Command benchmark is the repository's one pipeline benchmark. It drives
// the engine through its real front door — loopback binary wire, sharded
// ingest listeners, (WAL,) router, baskets, firing, merge, emitters,
// subscription callbacks — on four workloads that load different layers,
// checks every output against a generator-side reference, and reports
// the end-to-end metrics BENCHMARK.json declares plus a per-layer table
// measured from outside the engine. README.md defines every metric.
//
//	go run . [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file]
//	go run . -compare base.json[,base2.json...] new.json[,new2.json...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"datacell/internal/provenance"
)

// document is what -out writes and -compare reads.
type document struct {
	Provenance provenance.Info `json:"provenance"`
	Seconds    float64         `json:"seconds"`
	Results    []*result       `json:"results"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func line(res *result, defs []metricDef, values map[string]float64) resultLine {
	l := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return l
}

func printTable(title string, defs []metricDef, values map[string]float64) {
	fmt.Println(title)
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Printf("  %-36s %16.6g %s\n", d.name, v, d.unit)
		}
	}
}

func printResult(res *result) {
	fmt.Printf("workload %s  seed %d  rate_eps %.0f  input_sha256 %s\n", res.Workload, res.Seed, res.RateEPS, res.InputSHA256)
	printTable("end to end:", endToEnd, res.EndToEnd)
	fmt.Printf("  samples: %d latencies in %d windows (fewest in one window %d); %d capacity windows; %d set-ups\n",
		res.LatSamples, res.LatWindows, res.LatMinPerWindow, res.CapacityWindows, res.SetupRuns)
	printTable("per layer:", perLayer, res.PerLayer)
	fmt.Printf("verification: %s; failed %d of %d tuples offered\n", res.Verdict, res.Failed, res.Attempted)
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == senderArg {
		if err := senderMain(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per workload (paced + blast)")
	trace := flag.Int("trace", 0, "1: also make the stepped traced replay, write out/trace-<workload>.json, and end with the per-layer metrics")
	out := flag.String("out", "", "write every result to this JSON file, for -compare")
	compare := flag.Bool("compare", false, "compare two sets of -out files by their medians: go run . -compare base1.json,base2.json new1.json,new2.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two sets of result files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	var run []*workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	doc := document{Provenance: provenance.Capture(), Seconds: *seconds}
	fmt.Printf("provenance: %+v\n", doc.Provenance)
	for _, w := range run {
		res, err := runWorkload(w, *seed, planFor(*seconds), *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("workload %s: %w", w.name, err))
		}
		doc.Results = append(doc.Results, res)
		printResult(res)
		defs, values := endToEnd, res.EndToEnd
		if *trace == 1 {
			defs, values = perLayer, res.PerLayer
		}
		data, err := json.Marshal(line(res, defs, values))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
