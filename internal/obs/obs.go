// Package obs is the engine's self-monitoring layer: a dependency-free
// metrics registry (atomic counters, gauges and log-bucketed histograms
// with zero allocation on the record path) plus a bounded ring-buffer
// event trace (trace.go). The paper argues that running streams through a
// relational kernel inherits the DBMS's mature machinery; a DBMS you
// cannot ask where time goes is not mature machinery, so every subsystem
// registers its counters here and the admin server renders them in the
// Prometheus text exposition format.
//
// Hot-path discipline: a metric handle is obtained once, at wiring time;
// recording through it is a couple of atomic operations and never
// allocates (pinned by AllocsPerRun tests). Collection — WritePrometheus,
// Samples — walks the registry under its mutex and may allocate freely;
// it runs at scrape rate, not at tuple rate.
//
// Unit convention: a series whose name ends in "_seconds" or
// "_seconds_total" stores nanoseconds internally; the writers convert to
// floating-point seconds on the way out. Everything else is exported as
// the raw integer.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/histo"
)

// Counter is a monotonically increasing metric. The zero value is ready;
// Add and Inc are single atomic adds.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; they are not checked on
// the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records a distribution of int64 samples (nanoseconds by
// convention) into fixed log-spaced buckets — a thin named wrapper over
// internal/histo. Recording is lock-free and allocation-free; it is
// exported as a Prometheus summary with p50/p99/p99.9 quantiles plus
// _count and _max companions.
type Histogram struct{ H histo.H }

// Record adds one duration sample.
func (h *Histogram) Record(d time.Duration) { h.H.Record(d) }

// RecordValue adds one raw sample.
func (h *Histogram) RecordValue(v int64) { h.H.RecordValue(v) }

// kind discriminates the series types a Registry holds.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
)

func (k kind) prom() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "summary"
	}
	return "gauge"
}

// series is one registered time series: a metric family name plus one
// label set and the handle holding (or computing) its value.
type series struct {
	labels  string // pre-rendered {k="v",…}, "" for unlabelled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64
}

// family groups the series of one metric name, so HELP/TYPE render once.
type family struct {
	name   string
	help   string
	typ    kind
	series []*series
}

// Registry is an ordered collection of metric families. All registration
// methods are safe for concurrent use; handles are typically created at
// wiring time and recorded through for the component's lifetime.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Labels renders an ordered key/value list into the Prometheus label
// form: Labels("query", "q1") → `{query="q1"}`. Values are escaped.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		v := kv[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) add(name, help string, typ kind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series. labels is a pre-rendered
// label set from Labels (or "").
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.add(name, help, kindCounter, &series{labels: labels, counter: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	g := &Gauge{}
	r.add(name, help, kindGauge, &series{labels: labels, gauge: g})
	return g
}

// Histogram registers and returns a histogram series, exported as a
// summary (quantiles 0.5, 0.99, 0.999 plus _count and _max).
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	h := &Histogram{}
	r.add(name, help, kindHistogram, &series{labels: labels, hist: h})
	return h
}

// CounterFunc registers a counter whose value is computed at collection
// time — the bridge for components that already keep their own atomics.
// fn runs under no registry lock ordering guarantees and must not call
// back into the registry.
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	r.add(name, help, kindCounterFunc, &series{labels: labels, fn: fn})
}

// Unregister removes every series of the family that records through the
// given handle (a *Counter, *Gauge or *Histogram previously returned by
// this registry). Families left empty disappear from the output. It is
// how per-query series leave the registry when their query is removed.
func (r *Registry) Unregister(handle any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for fi := 0; fi < len(r.families); fi++ {
		f := r.families[fi]
		kept := f.series[:0]
		for _, s := range f.series {
			if s.counter == handle || s.gauge == handle || s.hist == handle {
				continue
			}
			kept = append(kept, s)
		}
		f.series = kept
		if len(f.series) == 0 {
			delete(r.byName, f.name)
			r.families = append(r.families[:fi], r.families[fi+1:]...)
			fi--
		}
	}
}

// secondsScaled reports whether the family name carries the seconds unit
// convention (values stored as nanoseconds).
func secondsScaled(name string) bool {
	return strings.HasSuffix(name, "_seconds") || strings.HasSuffix(name, "_seconds_total")
}

func formatValue(name string, v int64) string {
	if secondsScaled(name) {
		return strconv.FormatFloat(float64(v)/1e9, 'g', -1, 64)
	}
	return strconv.FormatInt(v, 10)
}

// quantiles exported for every histogram series.
var histQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.5}, {"0.99", 0.99}, {"0.999", 0.999}}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name for stable diffs.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ.prom())
		r.mu.Lock()
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		r.mu.Unlock()
		for _, s := range ss {
			switch f.typ {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(f.name, s.counter.Value()))
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(f.name, s.gauge.Value()))
			case kindCounterFunc:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(f.name, s.fn()))
			case kindHistogram:
				WriteSummary(w, f.name, s.labels, &s.hist.H)
			}
		}
	}
}

// WriteSummary renders one histogram as a Prometheus summary under the
// registry's unit convention. Exported so the engine can render per-query
// histograms it manages outside a registry with identical formatting.
func WriteSummary(w io.Writer, name, labels string, h *histo.H) {
	for _, hq := range histQuantiles {
		l := mergeLabels(labels, `quantile="`+hq.label+`"`)
		fmt.Fprintf(w, "%s%s %s\n", name, l, formatValue(name, int64(h.Quantile(hq.q))))
	}
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	fmt.Fprintf(w, "%s_max%s %s\n", name, labels, formatValue(name, int64(h.Max())))
}

// WriteFamilyHeader renders the HELP/TYPE preamble of one metric family.
// Exported for writers that render dynamic per-entity series (per-query,
// per-stream) outside a registry with identical formatting.
func WriteFamilyHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// WriteSample renders one sample line under the registry's unit
// convention (…_seconds names store nanoseconds, exported as seconds).
func WriteSample(w io.Writer, name, labels string, v int64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(name, v))
}

// mergeLabels splices extra into a pre-rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// Sample is one collected value, the JSON-friendly form of a series that
// Samples returns. (/snapshot and the CLI's \stats read engine snapshots,
// not Samples.)
type Sample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Samples collects every series (histograms expand to quantile samples),
// sorted by name then labels.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var out []Sample
	for _, f := range fams {
		r.mu.Lock()
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		r.mu.Unlock()
		for _, s := range ss {
			switch f.typ {
			case kindCounter:
				out = append(out, sampleOf(f.name, s.labels, s.counter.Value()))
			case kindGauge:
				out = append(out, sampleOf(f.name, s.labels, s.gauge.Value()))
			case kindCounterFunc:
				out = append(out, sampleOf(f.name, s.labels, s.fn()))
			case kindHistogram:
				for _, hq := range histQuantiles {
					out = append(out, sampleOf(f.name, mergeLabels(s.labels, `quantile="`+hq.label+`"`), int64(s.hist.H.Quantile(hq.q))))
				}
				out = append(out, sampleOf(f.name+"_count", s.labels, s.hist.H.Count()))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

func sampleOf(name, labels string, v int64) Sample {
	if secondsScaled(name) {
		return Sample{Name: name, Labels: labels, Value: float64(v) / 1e9}
	}
	return Sample{Name: name, Labels: labels, Value: float64(v)}
}
