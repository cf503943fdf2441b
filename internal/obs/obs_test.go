package obs

import (
	"strings"
	"testing"
	"time"

	"datacell/internal/histo"
)

// TestRecordPathAllocs pins the hot-path contract: recording through a
// counter handle allocates nothing. These handles sit on control paths
// that the engine's AllocsPerRun budgets also cover.
func TestRecordPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("datacell_test_total", "t", "")
	if a := testing.AllocsPerRun(1000, func() { c.Add(3); c.Inc() }); a != 0 {
		t.Fatalf("Counter record path allocates %.1f per run, want 0", a)
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "")
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
}

// TestWritePrometheus checks the text exposition: HELP/TYPE once per
// family, label sets rendered, the seconds unit convention applied, and
// histograms rendered as summaries by WriteSummary.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("datacell_frames_total", "frames accepted", Labels("stream", "s")).Add(41)
	r.Counter("datacell_frames_total", "frames accepted", Labels("stream", "t")).Add(1)
	r.Counter("datacell_busy_seconds_total", "busy time", "").Add(int64(1500 * time.Millisecond))
	r.CounterFunc("datacell_events_total", "events", "", func() int64 { return 3 })
	var h histo.H
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	WriteFamilyHeader(&b, "datacell_latency_seconds", "ingest-to-emit", "summary")
	WriteSummary(&b, "datacell_latency_seconds", Labels("query", "q1"), &h)
	out := b.String()
	for _, want := range []string{
		"# TYPE datacell_frames_total counter",
		`datacell_frames_total{stream="s"} 41`,
		`datacell_frames_total{stream="t"} 1`,
		"datacell_busy_seconds_total 1.5",
		"# TYPE datacell_events_total counter",
		"datacell_events_total 3",
		"# TYPE datacell_latency_seconds summary",
		`datacell_latency_seconds{query="q1",quantile="0.5"} 0.001`,
		`datacell_latency_seconds_count{query="q1"} 100`,
		`datacell_latency_seconds_max{query="q1"} 0.001`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE datacell_frames_total") != 1 {
		t.Fatalf("TYPE emitted more than once per family:\n%s", out)
	}
}

// TestTraceRing checks ring-buffer semantics: bounded retention, oldest
// overwritten first, monotone Seq, and Total counting shed history.
func TestTraceRing(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Add(Event{Subsystem: "engine", Kind: "rewire", Name: string(rune('a' + i))})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if evs[0].Name != "g" || evs[3].Name != "j" {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
}

func TestTraceAddAllocs(t *testing.T) {
	// The trace is control-plane rate, but a full ring must still append
	// without growing: only the (amortised-zero) struct copy remains.
	tr := NewTrace(8)
	ev := Event{Subsystem: "engine", Kind: "rewire", Name: "s", Reason: "parallelism pinned to 2"}
	for i := 0; i < 16; i++ {
		tr.Add(ev)
	}
	if a := testing.AllocsPerRun(1000, func() { tr.Add(ev) }); a != 0 {
		t.Fatalf("Trace.Add on a full ring allocates %.1f per run, want 0", a)
	}
}

func TestLabelsEscaping(t *testing.T) {
	if got := Labels("q", `a"b\c`); got != `{q="a\"b\\c"}` {
		t.Fatalf("Labels escaping wrong: %s", got)
	}
	if Labels() != "" {
		t.Fatalf("empty Labels should render empty")
	}
}
