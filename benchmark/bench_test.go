package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"datacell"
	"datacell/internal/bat"
)

// The benchmark starts its paced sender as a child of its own binary;
// under go test that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == senderArg {
		if err := senderMain(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func TestInputIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a, err := buildRing(w, 7, 32)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildRing(w, 7, 32)
		c, _ := buildRing(w, 8, 32)
		if a.sha != b.sha {
			t.Errorf("%s: seed 7 gave %s then %s", w.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 7 and 8 gave the same input %s", w.name, a.sha)
		}
	}
}

func TestWindowMedianPercentiles(t *testing.T) {
	// Two queries, five windows. Window w holds the latencies
	// (w+1)*1..(w+1)*100 µs split between the queries, so its p50 is
	// (w+1)*50 µs and its p99 (w+1)*99 µs; the lower quartiles over the
	// four full windows are those of window 0. The fifth, disturbed window
	// must not count: it is beyond the full windows asked for.
	logs := make([]latLog, 2)
	for w := 0; w < 5; w++ {
		for q := range logs {
			logs[q].open(w)
		}
		for i := 1; i <= 100; i++ {
			d := time.Duration((w+1)*i) * time.Microsecond
			if w == 4 {
				d = 3 * time.Second
			}
			logs[i%2].add(d)
		}
	}
	s := summarize(logs, 4)
	if s.p50ms != 0.050 || s.p99ms != 0.099 {
		t.Errorf("p50 %v ms, p99 %v ms; want 0.05 and 0.099", s.p50ms, s.p99ms)
	}
	if s.samples != 400 || s.minWindow != 100 || s.windows != 4 {
		t.Errorf("samples %d, fewest %d, windows %d; want 400, 100, 4", s.samples, s.minWindow, s.windows)
	}
	if late := logs[0].late + logs[1].late; late != 100 {
		t.Errorf("%d samples beyond the lateness limit, want the 100 of the disturbed window", late)
	}
	if got := quantile([]int{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %d, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestDueTimeLookupAcrossRingLaps(t *testing.T) {
	// An 8-slot ring; the segment starts at global frame 13 (slot 5) and
	// has 30 frames, so slot 5 carries segment frames 0, 8, 16, 24 and
	// slot 4 carries 7, 15, 23 only.
	s := schedule{t0: time.Unix(100, 0), interval: time.Millisecond, first: 13, n: 30, slots: 8}
	end := s.due(s.n) // an emit time by which every frame was due
	for _, c := range []struct {
		slot, near, want int
		emit             time.Time
		ok               bool
	}{
		{5, 0, 0, end, true},
		{5, 3, 0, end, true},
		{5, 5, 8, end, true},   // nearer the second lap
		{5, 17, 16, end, true}, // third lap
		{5, 29, 24, end, true},
		{4, 0, 7, end, true},
		{4, 29, 23, end, true}, // the fourth lap's slot 4 would be frame 31: not sent
		{2, 29, 29, end, true},
		{3, 2, 6, end, true},
		{5, 14, 8, s.due(12), true}, // frame 16 is nearer but was not due yet at emit time
		{5, 0, 0, s.due(0), true},
		{4, 0, 0, s.due(3), false}, // no frame on slot 4 was due by then
	} {
		got, ok := s.frameOf(c.slot, c.near, c.emit)
		if ok != c.ok || ok && got != c.want {
			t.Errorf("frameOf(slot %d, near %d, emit +%v) = %d, %v; want %d, %v", c.slot, c.near, c.emit.Sub(s.t0), got, ok, c.want, c.ok)
		}
	}
	if got := s.due(16); !got.Equal(time.Unix(100, 16e6)) {
		t.Errorf("due(16) = %v", got)
	}
	// A segment shorter than the ring never sends the slots beyond it.
	short := schedule{t0: s.t0, interval: s.interval, first: 0, n: 3, slots: 8}
	if _, ok := short.frameOf(6, 2, end); ok {
		t.Error("a frame was found on a slot the segment never sent")
	}
}

// feed delivers, to the recorder of a rig that "sent" every slot once,
// the rows passthru must emit, after edit has had its way with them.
func feed(t *testing.T, edit func(rows []datacell.Row) []datacell.Row) verdict {
	t.Helper()
	w := passthru()
	const slots = 4
	ring, err := buildRing(w, 1, slots)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{w: w, ring: ring, rec: newRecorder(w), sends: make([]int64, slots)}
	fill := w.newFill(1)
	rel := bat.NewEmptyRelation(w.cols, w.types())
	var rows []datacell.Row
	for s := 0; s < slots; s++ {
		r.sends[s] = 1
		rel.Clear()
		fill(rel, int64(s)*frameTuples, frameTuples)
		for i := 0; i < rel.Len(); i++ {
			row := datacell.Row{}
			for c := range w.cols {
				row = append(row, rel.Col(c).Ints()[i])
			}
			rows = append(rows, row)
		}
	}
	r.rec.onEmit(0)(datacell.Emit{Query: "all", Table: datacell.Table{Cols: w.cols, Rows: edit(rows)}, EmitTime: time.Now()})
	return r.verify()
}

func TestVerificationTripsOnBadOutput(t *testing.T) {
	if v := feed(t, func(rows []datacell.Row) []datacell.Row { return rows }); !v.ok() {
		t.Fatalf("faithful output fails verification: %+v", v)
	}
	for name, edit := range map[string]func([]datacell.Row) []datacell.Row{
		"missing row":    func(rows []datacell.Row) []datacell.Row { return rows[1:] },
		"duplicated row": func(rows []datacell.Row) []datacell.Row { return append(rows, rows[0]) },
		"corrupted k": func(rows []datacell.Row) []datacell.Row {
			rows[5] = datacell.Row{rows[5][0].(int64) + 1, rows[5][1], rows[5][2], rows[5][3]}
			return rows
		},
		"malformed row": func(rows []datacell.Row) []datacell.Row {
			rows[5] = datacell.Row{"k", rows[5][1], rows[5][2], rows[5][3]}
			return rows
		},
	} {
		if v := feed(t, edit); v.ok() {
			t.Errorf("%s passes verification", name)
		}
	}
}

func TestAggregateObserverRejectsInconsistentRow(t *testing.T) {
	good := datacell.Row{int64(1), int64(0), int64(42), int64(3), 60.0, int64(120), int64(2), int64(99)}
	if e, ok := observeLR(0, good); !ok || e.a != 2 || e.b != 120 {
		t.Errorf("consistent row: %+v %v", e, ok)
	}
	bad := slices.Clone(good)
	bad[4] = 61.0 // avg that is not sum/count
	if _, ok := observeLR(0, bad); ok {
		t.Error("a row whose avg is not sum/count passes")
	}
}

func TestGeneratorLagGuard(t *testing.T) {
	w := passthru()
	ring, err := buildRing(w, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go io.Copy(io.Discard, server)
	defer client.Close()
	// A schedule that began 100 ms ago: every frame starts late.
	late := schedule{t0: time.Now().Add(-100 * time.Millisecond), interval: time.Microsecond, n: 8, slots: 8}
	st := sendPaced(client, ring, late, 0, 1)
	if st.frames != 8 || st.late != 8 || st.maxLag < 90*time.Millisecond {
		t.Fatalf("late schedule: %d frames, %d late, worst %v", st.frames, st.late, st.maxLag)
	}
	if err := checkGenerator(st, late.n); !errors.Is(err, errGeneratorLate) {
		t.Errorf("a generator late on every frame passes the guard: %v", err)
	}
	// A schedule in the future is kept.
	onTime := schedule{t0: time.Now().Add(5 * time.Millisecond), interval: 100 * time.Microsecond, n: 8, slots: 8}
	st = sendPaced(client, ring, onTime, 0, 1)
	if err := checkGenerator(st, onTime.n); err != nil {
		t.Errorf("an on-time generator trips the guard: %v (worst lag %v)", err, st.maxLag)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "frame", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, Name: "b", StartNs: 30, EndNs: 60},   // overlaps a
		{ID: 3, Parent: 2, Name: "c", StartNs: 50, EndNs: 80},   // sticks out of b
		{ID: 4, Parent: 0, Name: "a", StartNs: 90, EndNs: 1000}, // sticks out of frame
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"frame": 40, "a": 30 + 910, "b": 20, "c": 30} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
}

func TestCompare(t *testing.T) {
	doc := func(capacity, p99 float64, failed int64) document {
		return document{Seconds: 1, Results: []*result{{
			Workload: "passthru", Correct: failed == 0, Attempted: 1000, Failed: failed,
			EndToEnd: map[string]float64{"setup_s": 1, "capacity_eps": capacity, "lat_p50_ms": 1, "lat_p99_ms": p99},
		}}}
	}
	write := func(name string, d document) string {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", doc(1000, 10, 0))
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.json", doc(990, 10.5, 0))); code != 0 {
		t.Errorf("a change within every bound exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, write("slow.json", doc(700, 10, 0))); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("capacity down by three tenths exits %d:\n%s", code, out.String())
	}
	if code := compareFiles(io.Discard, base, write("fast.json", doc(2000, 5, 0))); code != 0 {
		t.Errorf("an improvement exits %d", code)
	}
	if code := compareFiles(io.Discard, base, write("wrong.json", doc(1000, 10, 3))); code != 1 {
		t.Errorf("failed tuples exit %d", code)
	}
	// Sets compare by their medians: one slow run among three is no regression.
	three := strings.Join([]string{write("a.json", doc(1000, 10, 0)), write("b.json", doc(600, 30, 0)), write("c.json", doc(990, 10, 0))}, ",")
	if code := compareFiles(&out, base, three); code != 0 {
		t.Errorf("a set whose median is within every bound exits %d:\n%s", code, out.String())
	}
}

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestSmokeMatchesManifest runs every workload through the real pipeline
// with shortened segments, traced, and holds the names the program
// printed, the tables in layers.go and BENCHMARK.json to one another.
func TestSmokeMatchesManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, ms []manifestMetric) []string {
		var names []string
		for _, d := range defs {
			names = append(names, d.name)
		}
		if len(defs) != len(ms) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", what, len(defs), len(ms))
		}
		for i, d := range defs {
			if got := (manifestMetric{d.name, d.unit, d.better, d.bound}); got != ms[i] {
				t.Errorf("%s: program has %+v, BENCHMARK.json %+v", what, got, ms[i])
			}
		}
		sort.Strings(names)
		return names
	}
	e2e := same("end_to_end", endToEnd, m.EndToEnd)
	layers := same("per_layer", perLayer, m.PerLayer)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %v, the -seconds default %v", m.RunSeconds, defaultSeconds)
	}

	ws := workloads()
	if len(ws) != len(m.Workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(ws), len(m.Workloads))
	}
	short := plan{setups: 1, warm: 100 * time.Millisecond, paced: 500 * time.Millisecond,
		blast: 300 * time.Millisecond, window: 100 * time.Millisecond, traceFrames: 16}
	for i, w := range ws {
		if w.name != m.Workloads[i].Name || w.why != m.Workloads[i].Why {
			t.Errorf("workload %d: program has %q (%s), BENCHMARK.json %q (%s)", i, w.name, w.why, m.Workloads[i].Name, m.Workloads[i].Why)
		}
		res, err := runWorkload(w, 1, short, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %s (failed %d of %d)", w.name, res.Verdict, res.Failed, res.Attempted)
		}
		if got := keys(res.EndToEnd); !slices.Equal(got, e2e) {
			t.Errorf("%s reported end-to-end metrics %v, declared %v", w.name, got, e2e)
		}
		if got := keys(res.PerLayer); !slices.Equal(got, layers) {
			t.Errorf("%s reported per-layer metrics %v, declared %v", w.name, got, layers)
		}
		for _, d := range endToEnd {
			if res.EndToEnd[d.name] <= 0 {
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", w.name, d.name, res.EndToEnd[d.name])
			}
		}
		if res.LatWindows != 5 || res.LatMinPerWindow == 0 {
			t.Errorf("%s: %d latency windows, fewest samples %d", w.name, res.LatWindows, res.LatMinPerWindow)
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
		if w.wal != (res.PerLayer["wal.frames"] > 0) {
			t.Errorf("%s: wal.frames = %v", w.name, res.PerLayer["wal.frames"])
		}
	}
}
