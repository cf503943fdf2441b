package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLatestAllocsSelectsThisPRRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kernel.json")
	doc := `{
	  "fig": "kernel",
	  "rows": [
	    {"phase": "pre_pr_baseline", "allocs_per_firing": 51.3},
	    {"phase": "this_pr", "allocs_per_firing": 7.5},
	    {"phase": "pre_pr_baseline", "benchmark": "BenchmarkSQLQueryFiring", "allocs_per_op": 10246},
	    {"phase": "this_pr", "benchmark": "BenchmarkSQLQueryFiring", "allocs_per_op": 45},
	    {"phase": "this_pr", "benchmark": "BenchmarkSingleQueryFiring", "allocs_per_op": 34}
	  ]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadKernel(path)
	if err != nil {
		t.Fatal(err)
	}
	got := latestAllocs(loaded)
	want := map[string]float64{
		"kernel allocs/firing":                 7.5,
		"BenchmarkSQLQueryFiring allocs/op":    45,
		"BenchmarkSingleQueryFiring allocs/op": 34,
	}
	if len(got) != len(want) {
		t.Fatalf("latestAllocs = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("latestAllocs[%q] = %g, want %g", k, got[k], v)
		}
	}
}

func TestParseBenchAllocs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	out := `goos: linux
goarch: amd64
pkg: datacell
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSingleQueryFiring-8   	     100	     57329 ns/op	     776 B/op	      34 allocs/op
BenchmarkSQLQueryFiring-8      	     100	    723510 ns/op	   18720 B/op	      45 allocs/op
BenchmarkKernelThroughput/q=1-8	     100	    1200.5 ns/op	 345.67 MB/s	     128 B/op	       2 allocs/op
PASS
ok  	datacell	2.153s
`
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseBenchAllocs(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkSingleQueryFiring allocs/op":    34,
		"BenchmarkSQLQueryFiring allocs/op":       45,
		"BenchmarkKernelThroughput/q=1 allocs/op": 2,
	}
	if len(got) != len(want) {
		t.Fatalf("parseBenchAllocs = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("parseBenchAllocs[%q] = %g, want %g", k, got[k], v)
		}
	}
}

func TestGatePolicy(t *testing.T) {
	committed := map[string]float64{
		"kernel allocs/firing":              7.5,
		"BenchmarkSQLQueryFiring allocs/op": 45,
		"only-in-baseline allocs/op":        10,
	}
	current := map[string]float64{
		"kernel allocs/firing":              18,  // 7.5*1.5+8 = 19.25: inside
		"BenchmarkSQLQueryFiring allocs/op": 90,  // 45*1.5+8 = 75.5: regressed
		"only-in-current allocs/op":         999, // unbudgeted: ignored
	}
	checked, bad := gate(committed, current, 0.5, 8)
	if len(checked) != 2 {
		t.Fatalf("checked %d metrics, want 2: %v", len(checked), checked)
	}
	if len(bad) != 1 || bad[0].name != "BenchmarkSQLQueryFiring allocs/op" {
		t.Fatalf("regressions = %v, want exactly the SQL firing budget", bad)
	}
	// Dropping below budget is never a failure.
	if _, bad := gate(committed, map[string]float64{"kernel allocs/firing": 0}, 0.5, 8); len(bad) != 0 {
		t.Fatalf("improvement flagged as regression: %v", bad)
	}
}

func TestIngestFloorPolicy(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	basePath := write("base.json", `{
	  "fig": "ingest",
	  "rows": [
	    {"protocol": "binary", "shards": 4, "batch": 1024, "events_per_second": 6000000},
	    {"protocol": "text", "shards": 1, "batch": 1024, "events_per_second": 3000000},
	    {"protocol": "text", "shards": 4, "batch": 64, "events_per_second": 2500000}
	  ]
	}`)
	curPath := write("cur.json", `{
	  "fig": "ingest",
	  "rows": [
	    {"protocol": "binary", "shards": 4, "batch": 1024, "events_per_second": 4100000},
	    {"protocol": "text", "shards": 1, "batch": 1024, "events_per_second": 1900000}
	  ]
	}`)
	base, err := loadIngest(basePath)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := loadIngest(curPath)
	if err != nil {
		t.Fatal(err)
	}
	checked, bad := gateIngest(base, cur, 1.5)
	// The text shards=4 row is missing from current: skipped, not failed.
	if len(checked) != 2 {
		t.Fatalf("checked %d rows, want 2: %v", len(checked), checked)
	}
	// binary: 4.1M >= 6M/1.5 = 4M, ok. text: 1.9M < 3M/1.5 = 2M, regressed.
	if len(bad) != 1 || bad[0].name != "ingest text shards=1 batch=1024 events/s" {
		t.Fatalf("regressions = %v, want exactly the textual single-socket floor", bad)
	}
}

func TestWALOverheadGate(t *testing.T) {
	rows := []walRow{
		{WAL: "off", Shards: 1, Batch: 64, EventsPerSec: 5000000},
		{WAL: "off", Shards: 4, Batch: 1024, EventsPerSec: 6000000},
		{WAL: "on", SyncIntervalMS: 2, Shards: 1, Batch: 64, EventsPerSec: 4000000},
		{WAL: "on", SyncIntervalMS: 2, Shards: 4, Batch: 1024, EventsPerSec: 1500000},
		{WAL: "on", SyncIntervalMS: 10, Shards: 8, Batch: 64, EventsPerSec: 100}, // no off sibling: skipped
	}
	checked, bad := gateWALOverhead(rows, 2.0)
	if len(checked) != 2 {
		t.Fatalf("checked %d rows, want 2: %v", len(checked), checked)
	}
	// shards=1: 4M >= 0.7*5M/2 = 1.75M, ok. shards=4: 1.5M < 0.7*6M/2 = 2.1M, regressed.
	if len(bad) != 1 || bad[0].name != "wal on sync=2ms vs off shards=4 batch=1024" {
		t.Fatalf("regressions = %v, want exactly the shards=4 overhead floor", bad)
	}
}

func TestWALVsIngestGate(t *testing.T) {
	rows := []walRow{
		{WAL: "off", Shards: 1, Batch: 64, EventsPerSec: 5000000}, // off rows never gated here
		{WAL: "on", SyncIntervalMS: 2, Shards: 1, Batch: 64, EventsPerSec: 3000000},
		{WAL: "on", SyncIntervalMS: 2, Shards: 4, Batch: 1024, EventsPerSec: 2000000},
		{WAL: "on", SyncIntervalMS: 2, Shards: 8, Batch: 64, EventsPerSec: 100}, // no committed row: skipped
	}
	ingest := map[string]float64{
		"ingest binary shards=1 batch=64 events/s":   7000000,
		"ingest binary shards=4 batch=1024 events/s": 7000000,
	}
	checked, bad := gateWALVsIngest(rows, ingest, 2.0)
	if len(checked) != 2 {
		t.Fatalf("checked %d rows, want 2: %v", len(checked), checked)
	}
	// floor = 0.7*7M/2 = 2.45M: 3M ok, 2M regressed.
	if len(bad) != 1 || bad[0].name != "wal on sync=2ms vs committed ingest shards=4 batch=1024" {
		t.Fatalf("regressions = %v, want exactly the shards=4 cross-file floor", bad)
	}
}

func TestWALFloorLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.json")
	doc := `{
	  "fig": "wal",
	  "rows": [
	    {"wal": "off", "sync_interval_ms": 0, "protocol": "binary", "shards": 1, "batch": 64, "events_per_second": 5000000},
	    {"wal": "on", "sync_interval_ms": 2, "protocol": "binary", "shards": 1, "batch": 64, "events_per_second": 4000000}
	  ]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, keyed, err := loadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || keyed["wal on sync=2ms shards=1 batch=64 events/s"] != 4000000 {
		t.Fatalf("loadWAL parsed %v / %v", rows, keyed)
	}
}

func TestLatencyGatePolicy(t *testing.T) {
	committed := []latencyRow{
		{Phase: "warm", AchievedEPS: 20000, P99us: 800},
		{Phase: "churn", AchievedEPS: 20000, P99us: 700},
		{Phase: "gone", AchievedEPS: 20000, P99us: 700}, // absent in current: skipped
	}
	current := []latencyRow{
		{Phase: "warm", AchievedEPS: 21000, P99us: 1600},  // ceiling 800*1.5+500=1700: ok
		{Phase: "churn", AchievedEPS: 8000, P99us: 1600},  // p99 past 1550; rate below 20000/2
		{Phase: "extra", AchievedEPS: 20000, P99us: 9000}, // no committed row: skipped
	}
	checked, bad := gateLatency(committed, current, 1.5, 500, 2.0)
	if len(checked) != 4 {
		t.Fatalf("checked %d measurements, want 4: %v", len(checked), checked)
	}
	if len(bad) != 2 {
		t.Fatalf("regressions = %v, want churn p99 and churn rate", bad)
	}
	for _, m := range bad {
		if m.name != "latency churn p99 µs" && m.name != "latency churn achieved events/s" {
			t.Errorf("unexpected regression %q", m.name)
		}
	}
}

func TestLatencyLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "latency.json")
	doc := `{
	  "fig": "latency",
	  "scenario": "smoke",
	  "rows": [
	    {"phase": "warm", "achieved_eps": 20211.4, "p50_us": 290.8, "p99_us": 811.0}
	  ]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := loadLatency(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Phase != "warm" || rows[0].P99us != 811.0 || rows[0].AchievedEPS != 20211.4 {
		t.Fatalf("loadLatency parsed %+v", rows)
	}
}
