// Engine-level observability tests: the /metrics surface, the event
// trace, explain analyze, live latency histograms, the admin HTTP server
// and snapshot consistency under wiring churn.
package datacell

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell/internal/bat"
)

// obsTestEngine builds an engine with a WAL, an ingest listener, a
// partitioned two-phase query and a plain query, feeds it and drains it —
// touching every instrumented subsystem.
func obsTestEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(WALOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	// agg is a global aggregate: it keeps the two-phase merge barrier
	// under any split, where a hash-grouped query concatenates.
	if err := eng.RegisterQuery("agg", `select count(*) as n, sum(t.v) as s from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("flt", `select t.v from [select * from s] t where t.v < 50`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SubscribeQuery("flt", SubscribeOptions{OnEmit: func(Emit) {}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		fmt.Fprintf(conn, "%d|%d\n", i%4, i)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := eng.Snapshot()
		var tuples int64
		for _, is := range st.Ingest {
			tuples += is.Tuples
		}
		if tuples >= 200 && eng.Drain(time.Second) {
			return eng
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("ingest did not deliver 200 tuples in time")
	return nil
}

// TestWriteMetricsCoversSubsystems asserts the exposition covers all
// six instrumented subsystems: ingest, wal, basket, kernel (query),
// merge and engine events — including the per-query latency summary
// quantiles.
func TestWriteMetricsCoversSubsystems(t *testing.T) {
	eng := obsTestEngine(t)
	var b strings.Builder
	eng.WriteMetrics(&b)
	text := b.String()
	for _, want := range []string{
		`datacell_ingest_tuples_total{stream="s"}`,
		`datacell_ingest_route_seconds_total{stream="s"}`,
		`datacell_wal_frames_total{stream="s"}`,
		`datacell_wal_commit_batches_total{stream="s"}`,
		`datacell_basket_highwater{stream="s"}`,
		`datacell_query_fires_total{query="agg"}`,
		`datacell_query_busy_seconds_total{query="flt"}`,
		`datacell_merge_barrier_waits_total{query="agg"}`,
		`datacell_query_latency_seconds{query="agg",quantile="0.99"}`,
		`datacell_query_latency_seconds_count{query="flt"}`,
		"datacell_engine_rewires_total",
		"datacell_engine_events_total",
		"datacell_engine_queries 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full output:\n%s", text)
	}
}

// TestLatencyHistogramRecords asserts the in-engine ingest-to-emit
// histograms fill from receptor-stamped tuples and surface through
// Stats/QueryStats.
func TestLatencyHistogramRecords(t *testing.T) {
	eng := obsTestEngine(t)
	for _, q := range eng.Stats() {
		if q.LatCount == 0 {
			t.Errorf("query %s: no latency samples recorded", q.Name)
			continue
		}
		if q.LatP50 <= 0 || q.LatMax < q.LatP50 {
			t.Errorf("query %s: implausible quantiles p50=%v max=%v", q.Name, q.LatP50, q.LatMax)
		}
	}
}

// TestExplainAnalyzeStages drives the SQL surface end to end: `explain
// analyze <query>` returns the stage-timing breakdown in QueryInfo.Text.
func TestExplainAnalyzeStages(t *testing.T) {
	eng := obsTestEngine(t)
	infos, err := eng.Exec(`explain analyze agg`)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("got %d infos, want 1", len(infos))
	}
	text := infos[0].Text
	for _, want := range []string{"stage route:", "stage fire:", "stage merge:", "stage emit:", "latency (ingest to emit):"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain analyze output missing %q in:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "barrier waits") {
		t.Errorf("two-phase query should report merge barrier activity:\n%s", text)
	}
	if strings.Contains(text, "no samples yet") {
		t.Errorf("explain analyze should see latency samples:\n%s", text)
	}
	if _, err := eng.Exec(`explain analyze nosuch`); err == nil {
		t.Error("explain analyze of unknown query should fail")
	}
	// The plain form still works through SQL and reports wiring.
	infos, err = eng.Exec(`explain select t.v from [select * from s] t where t.v < 9`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(infos[0].Text, "wiring:") {
		t.Errorf("plain explain missing wiring section:\n%s", infos[0].Text)
	}
}

// TestEventTrace asserts registrations, rewires and removals land in the
// trace ring with reasons, and that Snapshot.EventsTotal tracks it.
func TestEventTrace(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v from [select * from s] t where t.v > 1`); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStrategy(StrategyShared); err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveQuery("q"); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	var strategyRewire bool
	for _, ev := range eng.Events() {
		kinds[ev.Subsystem+"/"+ev.Kind]++
		if ev.Kind == "rewire" && strings.Contains(ev.Reason, "strategy switched to shared") {
			strategyRewire = true
		}
	}
	for _, want := range []string{"engine/register", "engine/rewire", "engine/remove"} {
		if kinds[want] == 0 {
			t.Errorf("trace missing %s events (have %v)", want, kinds)
		}
	}
	if !strategyRewire {
		t.Error("strategy-switch rewire should carry its reason")
	}
	if got := eng.Snapshot().EventsTotal; got < uint64(len(eng.Events())) {
		t.Errorf("EventsTotal %d < retained events %d", got, len(eng.Events()))
	}
}

// TestAdminEndpoints starts the admin server and exercises every route.
func TestAdminEndpoints(t *testing.T) {
	eng := obsTestEngine(t)
	a, err := eng.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + a.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "datacell_query_fires_total") {
		t.Errorf("/metrics: code %d, body %.200s", code, body)
	}
	if code, body := get("/snapshot"); code != 200 || !strings.Contains(body, `"Queries"`) {
		t.Errorf("/snapshot: code %d, body %.200s", code, body)
	} else {
		var s map[string]any
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Errorf("/snapshot is not valid JSON: %v", err)
		}
	}
	if code, body := get("/events"); code != 200 || !strings.Contains(body, `"rewire"`) {
		t.Errorf("/events: code %d, body %.200s", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d, body %.200s", code, body)
	}
	if _, err := eng.ServeAdmin("127.0.0.1:0"); err == nil {
		t.Error("second ServeAdmin should refuse")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the engine accepts a fresh admin server; Stop closes it.
	b, err := eng.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_ = b
}

// TestSnapshotConsistentUnderChurn encodes snapshots while strategy and
// parallelism switches and appends churn the wiring: every snapshot must
// be internally consistent (both queries present, valid strategy and
// parallelism, monotonic EventsTotal) and JSON-encodable.
func TestSnapshotConsistentUnderChurn(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"a", "b"} {
		if err := eng.RegisterQuery(q, `select t.k, sum(t.v) from [select * from s] t group by t.k`); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // ingest load, so every rewire migrates tuples in flight
		defer wg.Done()
		rows := make([]Row, 64)
		for i := range rows {
			rows[i] = Row{int64(i % 8), int64(i)}
		}
		for {
			select {
			case <-stop:
				return
			default:
				eng.Append("s", rows...) //nolint:errcheck
			}
		}
	}()
	go func() { // wiring churn: alternate strategy and parallelism switches
		defer wg.Done()
		strats := []Strategy{StrategyShared, StrategySeparate}
		ps := []int{2, 1, 4}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				eng.SetStrategy(strats[i%len(strats)]) //nolint:errcheck
				eng.SetParallelism(ps[i%len(ps)])      //nolint:errcheck
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	var lastTotal uint64
	var prev []byte
	for i := 0; i < 50; i++ {
		s := eng.Snapshot()
		if len(s.Queries) != 2 {
			t.Fatalf("snapshot %d: %d queries, want 2", i, len(s.Queries))
		}
		switch s.Strategy {
		case StrategySeparate, StrategyShared, StrategyPartial:
		default:
			t.Fatalf("snapshot %d: invalid strategy %q", i, s.Strategy)
		}
		if s.Parallelism < 1 || s.Parallelism > 4 {
			t.Fatalf("snapshot %d: parallelism %d outside the churned range", i, s.Parallelism)
		}
		if s.EventsTotal < lastTotal {
			t.Fatalf("snapshot %d: EventsTotal went backwards (%d < %d)", i, s.EventsTotal, lastTotal)
		}
		lastTotal = s.EventsTotal
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("snapshot %d: encode: %v", i, err)
		}
		// Two consecutive encodes must both be complete documents; a torn
		// snapshot would show up as sections disagreeing about the wiring.
		if i > 0 && len(prev) == 0 {
			t.Fatalf("snapshot %d: empty encoding", i)
		}
		prev = enc
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestFiringWithMetricsStaysInBudget re-asserts the firing-cycle
// allocation budget with the latency instrumentation demonstrably live:
// the histogram must have recorded during the measured cycles.
func TestFiringWithMetricsStaysInBudget(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int, w int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v, t.w from [select * from s] t where t.v < 100`); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{int64(i % 200), int64(i)}
	}
	var spare *bat.Relation
	cycle := func() {
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
		out.Lock()
		spare = out.ExchangeLocked(spare)
		out.Unlock()
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	before := int64(0)
	for _, q := range eng.Stats() {
		before = q.LatCount
	}
	allocs := testing.AllocsPerRun(100, cycle)
	after := int64(0)
	for _, q := range eng.Stats() {
		after = q.LatCount
	}
	if after <= before {
		t.Fatalf("latency histogram did not record during measured cycles (%d -> %d)", before, after)
	}
	if allocs > 150 {
		t.Fatalf("firing cycle with metrics allocates %.1f per run, budget 150", allocs)
	}
}
