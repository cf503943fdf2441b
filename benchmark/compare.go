package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"datacell/internal/provenance"
)

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// worsening is by how much of base the metric got worse in cur
// (negative: it improved).
func worsening(d metricDef, base, cur float64) float64 {
	if d.better == "higher" {
		return ratio(base-cur, base)
	}
	return ratio(cur-base, base)
}

// runSet is one side of a comparison: every run of every file of a set,
// by workload.
type runSet struct {
	doc  document // the first file's stamp and run length
	runs map[string][]*result
}

// readSet reads a comma-separated list of -out files.
func readSet(paths string) (*runSet, error) {
	set := &runSet{runs: map[string][]*result{}}
	for i, path := range strings.Split(paths, ",") {
		d, err := readDocument(path)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			set.doc = *d
		}
		for _, r := range d.Results {
			set.runs[r.Workload] = append(set.runs[r.Workload], r)
		}
	}
	return set, nil
}

// over returns the median of an end-to-end metric over a workload's
// runs, and the tuples they failed and attempted.
func over(runs []*result, metric string) (med float64, failed, attempted int64) {
	var vs []float64
	for _, r := range runs {
		vs = append(vs, r.EndToEnd[metric])
		failed += r.Failed
		attempted += r.Attempted
	}
	return median(vs), failed, attempted
}

// compareFiles prints, for every workload both sets hold and every
// end-to-end metric, how much worse cur's median is than base's against
// the metric's bound, and returns the exit code: 1 when a bound is
// broken or cur fails a larger share of its tuples than base. Each side
// is a comma-separated list of -out files; one run a side is a quick
// look, ten a side is what a claim needs.
func compareFiles(w io.Writer, basePaths, curPaths string) int {
	base, err := readSet(basePaths)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	cur, err := readSet(curPaths)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	for _, d := range provenance.Diff(base.doc.Provenance, cur.doc.Provenance) {
		fmt.Fprintf(w, "warning: environments differ: %s\n", d)
	}
	if base.doc.Seconds != cur.doc.Seconds {
		fmt.Fprintf(w, "warning: run lengths differ: %gs vs %gs\n", base.doc.Seconds, cur.doc.Seconds)
	}
	code, compared := 0, 0
	fmt.Fprintf(w, "%-12s %-14s %5s %14s %14s %9s %7s\n", "workload", "metric", "runs", "base median", "new median", "worse by", "bound")
	for _, wl := range workloads() {
		b, c := base.runs[wl.name], cur.runs[wl.name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		compared++
		for _, d := range endToEnd {
			bm, _, _ := over(b, d.name)
			cm, _, _ := over(c, d.name)
			worse := worsening(d, bm, cm)
			mark := ""
			if worse > d.bound {
				mark, code = "  REGRESSION", 1
			}
			fmt.Fprintf(w, "%-12s %-14s %2d/%-2d %14.6g %14.6g %8.1f%% %6.0f%%%s\n",
				wl.name, d.name, len(b), len(c), bm, cm, 100*worse, 100*d.bound, mark)
		}
		_, bf, ba := over(b, "")
		_, cf, ca := over(c, "")
		if ratio(float64(cf), float64(ca)) > ratio(float64(bf), float64(ba)) {
			code = 1
			fmt.Fprintf(w, "%-12s failed %d of %d tuples (base %d of %d)  REGRESSION\n", wl.name, cf, ca, bf, ba)
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "the two sets share no workload")
		return 2
	}
	return code
}
