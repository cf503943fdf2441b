// Package obs is the engine's self-monitoring layer: a dependency-free
// metrics registry (atomic counters with zero allocation on the record
// path, plus counters computed at collection time), the Prometheus text
// writers the engine renders its snapshot-derived families and
// log-bucketed latency histograms with, and a bounded ring-buffer event
// trace (trace.go). The paper argues that running streams through a
// relational kernel inherits the DBMS's mature machinery; a DBMS you
// cannot ask where time goes is not mature machinery, so every subsystem
// registers its counters here and the admin server renders them in the
// Prometheus text exposition format.
//
// Hot-path discipline: a metric handle is obtained once, at wiring time;
// recording through it is a couple of atomic operations and never
// allocates (pinned by AllocsPerRun tests). Collection — WritePrometheus —
// walks the registry under its mutex and may allocate freely; it runs at
// scrape rate, not at tuple rate.
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

// series is one registered time series: a metric family name plus one
// label set and the handle holding (or computing) its value.
type series struct {
	labels  string // pre-rendered {k="v",…}, "" for unlabelled
	counter *Counter
	fn      func() int64 // set instead of counter by CounterFunc
}

func (s *series) value() int64 {
	if s.fn != nil {
		return s.fn()
	}
	return s.counter.Value()
}

// family groups the series of one metric name, so HELP/TYPE render once.
type family struct {
	name   string
	help   string
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

func (r *Registry) add(name, help string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series. labels is a pre-rendered
// label set from Labels (or "").
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.add(name, help, &series{labels: labels, counter: c})
	return c
}

// CounterFunc registers a counter whose value is computed at collection
// time — the bridge for components that already keep their own atomics.
// fn runs under no registry lock ordering guarantees and must not call
// back into the registry.
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	r.add(name, help, &series{labels: labels, fn: fn})
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

// quantiles exported for every summary.
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
		WriteFamilyHeader(w, f.name, f.help, "counter")
		r.mu.Lock()
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		r.mu.Unlock()
		for _, s := range ss {
			WriteSample(w, f.name, s.labels, s.value())
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
