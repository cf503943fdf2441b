package main

import (
	"slices"
	"time"
)

// quantile returns the q-quantile (nearest rank) of sorted values.
func quantile[T any](sorted []T, q float64) T {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of vs (mean of the middle two when even), 0
// when empty. vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// latLog holds one query's latency samples of one paced segment, in emit
// order, with the offset at which each window starts. Only the query's
// emitter thread appends; the main goroutine reads after deliveries end.
type latLog struct {
	ns      []uint32 // latency, ns, saturating (anything beyond failAfter is late anyway)
	starts  []int    // starts[w] = len(ns) when window w opened
	late    int64    // samples beyond failAfter
	orphans int64    // rows no frame of the segment accounts for
	near    int      // latest segment frame a row has named so far
}

// open makes window w (and any skipped before it) current.
func (l *latLog) open(w int) {
	for len(l.starts) <= w {
		l.starts = append(l.starts, len(l.ns))
	}
}

func (l *latLog) add(d time.Duration) {
	if d > failAfter {
		l.late++
	}
	l.ns = append(l.ns, uint32(min(max(d, 0), 1<<32-1)))
}

// window returns the samples of window w.
func (l *latLog) window(w int) []uint32 {
	if w >= len(l.starts) {
		return nil
	}
	end := len(l.ns)
	if w+1 < len(l.starts) {
		end = l.starts[w+1]
	}
	return l.ns[l.starts[w]:end]
}

// latSummary is the paced segment's latency report: percentiles are
// taken per window over all queries' samples, and the reported value is
// the lower quartile over windows. What disturbs a window on a shared
// two-core box (a neighbour, a GC cycle that lands on more than 1% of a
// second) only ever makes it slower, and on passthru disturbs about half
// of them: over ten seeds the median of window p99s spread by 35% of
// itself, the lower quartile by 4%.
type latSummary struct {
	p50ms, p99ms float64
	windows      int   // full windows
	samples      int64 // samples in them
	minWindow    int   // fewest samples in one window
}

func summarize(logs []latLog, windows int) latSummary {
	s := latSummary{windows: windows}
	var p50s, p99s []float64
	var all []uint32
	for w := 0; w < windows; w++ {
		all = all[:0]
		for i := range logs {
			all = append(all, logs[i].window(w)...)
		}
		if w == 0 || len(all) < s.minWindow {
			s.minWindow = len(all)
		}
		if len(all) == 0 {
			continue
		}
		s.samples += int64(len(all))
		slices.Sort(all)
		p50s = append(p50s, float64(quantile(all, 0.50))/1e6)
		p99s = append(p99s, float64(quantile(all, 0.99))/1e6)
	}
	slices.Sort(p50s)
	slices.Sort(p99s)
	if len(p50s) > 0 {
		s.p50ms, s.p99ms = quantile(p50s, 0.25), quantile(p99s, 0.25)
	}
	return s
}
