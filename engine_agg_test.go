package datacell

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"datacell/internal/lroad"
	"datacell/internal/plan"
	"datacell/internal/sql"
)

// aggWorkload feeds a randomized stream through an aggregation-heavy
// query mix at the given strategy and parallelism, draining synchronously
// after every batch, and returns each query's full output as a sorted row
// multiset. The mix covers every two-phase shape: hash-routed grouped
// aggregates (sum/count, avg/min/max, having), round-robin global
// aggregates, an expression-keyed group, and a top-N over an outer ORDER
// BY on a unique key (unique so the cut-off is deterministic under any
// partition split).
func aggWorkload(t *testing.T, strategy Strategy, parallelism int, seed int64) map[string][]string {
	t.Helper()
	eng := New()
	if err := eng.SetStrategy(strategy); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetParallelism(parallelism); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int, u int)`); err != nil {
		t.Fatal(err)
	}
	// Window predicates are disjoint so that the partial-deletes residue
	// chain leaves every query a non-empty slice of the stream.
	queries := []NamedQuery{
		{Name: "g_sum", SQL: `select t.k, count(*) as n, sum(t.v) as total from [select * from s where v < 200] t group by t.k`},
		{Name: "g_avg", SQL: `select t.k, avg(t.v) as a, min(t.v) as mn, max(t.v) as mx from [select * from s where v >= 200 and v < 400] t group by t.k`},
		{Name: "g_expr", SQL: `select t.k + 1 as k1, sum(t.v) as sv from [select * from s where v >= 400 and v < 550] t group by t.k + 1`},
		{Name: "g_hav", SQL: `select t.k, count(*) as n from [select * from s where v >= 550 and v < 700] t group by t.k having n > 2`},
		{Name: "glob", SQL: `select count(*) as n, sum(t.v) as total, avg(t.v) as a from [select * from s where v >= 700 and v < 850] t`},
		{Name: "ord", SQL: `select top 8 t.k, t.v, t.u from [select * from s where v >= 850] t order by t.u desc`},
	}
	if err := eng.RegisterQueries(queries); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	uid := int64(0)
	for batch := 0; batch < 10; batch++ {
		n := 30 + rng.Intn(50)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{rng.Int63n(12), rng.Int63n(1000), uid}
			uid++
		}
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]string{}
	for _, q := range queries {
		out, err := eng.Out(q.Name)
		if err != nil {
			t.Fatal(err)
		}
		tbl := tableOf(out.Snapshot())
		rows := make([]string, 0, len(tbl.Rows))
		for _, r := range tbl.Rows {
			parts := make([]string, len(r))
			for i, c := range r {
				parts[i] = fmt.Sprint(c)
			}
			rows = append(rows, strings.Join(parts, "|"))
		}
		sort.Strings(rows)
		got[q.Name] = rows
	}
	return got
}

// TestAggregationDifferential asserts the two-phase decomposition is
// exact: for every sharing strategy, the aggregation mix yields an output
// multiset at P=2 and P=4 identical — including float AVG bit patterns,
// rendered through the same formatting — to the single-partition run.
func TestAggregationDifferential(t *testing.T) {
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			base := aggWorkload(t, strategy, 1, 7)
			for _, p := range []int{2, 4} {
				part := aggWorkload(t, strategy, p, 7)
				for name, want := range base {
					gotRows := part[name]
					if len(gotRows) != len(want) {
						t.Errorf("%s: P=%d produced %d rows, P=1 produced %d", name, p, len(gotRows), len(want))
						continue
					}
					for i := range want {
						if gotRows[i] != want[i] {
							t.Errorf("%s: row %d differs: P=%d %q vs P=1 %q", name, i, p, gotRows[i], want[i])
							break
						}
					}
					if len(want) == 0 {
						t.Errorf("%s: workload produced no rows; differential is vacuous", name)
					}
				}
			}
		})
	}
}

// TestFloatKeyHashDifferential asserts hash routing co-locates every
// float key that grouping counts as one: all NaN payloads form one group,
// and so do -0 and +0. A hash-routed GROUP BY with no ORDER BY or TOP
// concatenates its partitions' groups, so a NaN payload routed apart from
// another would surface as a second NaN group at P>1.
func TestFloatKeyHashDifferential(t *testing.T) {
	keys := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, math.Inf(1)}
	for p := uint64(2); p < 10; p++ {
		keys = append(keys, math.Float64frombits(0x7ff8000000000000|p))
	}
	run := func(strategy Strategy, parallelism int) []string {
		eng := New()
		if err := eng.SetStrategy(strategy); err != nil {
			t.Fatal(err)
		}
		if err := eng.SetParallelism(parallelism); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Exec(`create basket s (f float, v int)`); err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterQuery("q", `select t.f, count(*) as n, sum(t.v) as sv from [select * from s] t group by t.f`); err != nil {
			t.Fatal(err)
		}
		var rows []Row
		for i := 0; i < 3; i++ {
			for j, f := range keys {
				rows = append(rows, Row{f, int64(10*i + j)})
			}
		}
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
		out, err := eng.Out("q")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range tableOf(out.Snapshot()).Rows {
			got = append(got, fmt.Sprint(r...))
		}
		sort.Strings(got)
		return got
	}
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		want := run(strategy, 1)
		if len(want) != 4 {
			t.Fatalf("%s: P=1 produced %d groups %q, want 4 (NaN, 0, 1.5, +Inf)", strategy, len(want), want)
		}
		for _, p := range []int{2, 4} {
			if got := run(strategy, p); !slices.Equal(got, want) {
				t.Errorf("%s: P=%d groups %q, P=1 groups %q", strategy, p, got, want)
			}
		}
	}
}

// TestHashPruneRouting asserts a grouped plan with a sargable side
// predicate wires hash routing with a prune catch-all: tuples failing the
// necessary condition divert before any partial-aggregate clone copies
// them, the counter surfaces in Groups, and the aggregate stays exact.
func TestHashPruneRouting(t *testing.T) {
	eng := New()
	if err := eng.SetStrategy(StrategySeparate); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.k, sum(t.v) as total from [select * from s where v < 100] t group by t.k`); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 0, 80)
	want := map[int64]int64{}
	for i := 0; i < 50; i++ { // matching: v in [0,100)
		k, v := int64(i%4), int64(i*2%100)
		rows = append(rows, Row{k, v})
		want[k] += v
	}
	for i := 0; i < 30; i++ { // prunable: v >= 100, unreachable by the query
		rows = append(rows, Row{int64(i % 4), int64(100 + i)})
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	gs := eng.Groups()
	if len(gs) != 1 {
		t.Fatalf("groups: %+v", gs)
	}
	if gs[0].Routing != "hash(k)+prune(v)" {
		t.Fatalf("routing = %q, want hash(k)+prune(v)", gs[0].Routing)
	}
	if gs[0].Pruned != 30 {
		t.Fatalf("pruned = %d, want the 30 tuples outside v < 100", gs[0].Pruned)
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range tableOf(out.Snapshot()).Rows {
		got[r[0].(int64)] += r[1].(int64)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("group %d: sum = %d, want %d", k, got[k], w)
		}
	}
}

// TestExplainTwoPhase asserts explain surfaces the two-phase shape: the
// partial/combine split, the combining merge emitter in the wiring line,
// and the prune column of a hash-pruned verdict.
func TestExplainTwoPhase(t *testing.T) {
	eng := New()
	if err := eng.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql    string
		want   []string
		absent []string
	}{
		{
			// Hash routing co-locates each group: per-partition results
			// are final and concatenate.
			`select t.k, avg(t.v) as a from [select * from s where v < 100] t group by t.k`,
			[]string{
				"partitionable: hash(k)",
				"concatenating merge: each group lives on one partition",
				"(splitter, 4 clones, merge emitter)",
				"prune: v in",
			},
			[]string{"two-phase", "combining merge"},
		},
		{
			// An ORDER BY over the groups still needs the combining merge.
			`select t.k, sum(t.v) as n from [select * from s] t group by t.k order by t.k`,
			[]string{
				"partitionable: hash(k)",
				"two-phase: partial aggregate per partition + combining merge",
				"combining merge emitter",
			},
			nil,
		},
		{
			`select count(*) as n from [select * from s] t`,
			[]string{
				"partitioning round-robin across 4 partitions",
				"two-phase: partial aggregate per partition + combining merge",
				"combining merge emitter",
			},
			nil,
		},
		{
			`select top 5 t.v from [select * from s] t order by t.v`,
			[]string{
				"two-phase: partial sort per partition + k-way combining merge",
				"combining merge emitter",
			},
			nil,
		},
	}
	for i, c := range cases {
		got, err := eng.Explain(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s:\nexplain lacks %q:\n%s", c.sql, w, got)
			}
		}
		for _, w := range c.absent {
			if strings.Contains(got, w) {
				t.Errorf("%s:\nexplain has %q:\n%s", c.sql, w, got)
			}
		}
		stmt, err := sql.ParseOne(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		a, err := plan.Analyze(eng.cat, stmt, fmt.Sprintf("probe%d", i))
		if err != nil {
			t.Fatal(err)
		}
		wired := a.Scan.Combine != nil
		if tp := plan.TwoPhase(eng.cat, stmt); tp != wired || wired != (len(c.absent) == 0) {
			t.Errorf("%s: plan.TwoPhase = %v, wired Combine = %v, explain two-phase = %v", c.sql, tp, wired, len(c.absent) == 0)
		}
	}
}

// lroadBatches records the Linear Road generator's stream as one row
// batch per benchmark second. Recording once and replaying into every
// engine matters: the generator iterates its car map, so two generator
// instances emit the same traffic in different tuple orders (and schedule
// accidents onto different cars) — only a recorded stream gives P=1 and
// P=4 identical input.
func lroadBatches() [][]Row {
	gen := lroad.NewGenerator(lroad.GenConfig{SF: 0.4, Duration: 150, Seed: 3, XWays: 4})
	var batches [][]Row
	for !gen.Done() {
		tuples := gen.Tick()
		if len(tuples) == 0 {
			continue
		}
		rows := make([]Row, len(tuples))
		for i, tu := range tuples {
			rows[i] = Row{tu.Typ, tu.Time, tu.VID, tu.Spd, tu.XWay, tu.Lane, tu.Dir, tu.Seg, tu.Pos, tu.QID, tu.Day}
		}
		batches = append(batches, rows)
	}
	return batches
}

// lroadWorkload replays a recorded Linear Road position stream through
// segstats-style continuous aggregation on the public engine: per
// (xway, dir, seg, minute) average velocity and car count — the input of
// the benchmark's toll rule — plus a global count of balance requests.
// Returns each query's output as a sorted row multiset.
func lroadWorkload(t *testing.T, parallelism int, batches [][]Row) map[string][]string {
	t.Helper()
	eng := New()
	if err := eng.SetParallelism(parallelism); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket pos (typ int, time int, vid int, spd int, xway int, lane int, dir int, seg int, pos int, qid int, day int)`); err != nil {
		t.Fatal(err)
	}
	queries := []NamedQuery{
		{Name: "segstats", SQL: `select t.xway, t.dir, t.seg, t.time / 60 as minute, avg(t.spd) as lav, count(*) as cars
			from [select * from pos where typ = 0] t
			group by t.xway, t.dir, t.seg, t.time / 60`},
		{Name: "balreq", SQL: `select count(*) as n from [select * from pos where typ = 2] t`},
	}
	if err := eng.RegisterQueries(queries); err != nil {
		t.Fatal(err)
	}
	for _, rows := range batches {
		if err := eng.Append("pos", rows...); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]string{}
	for _, q := range queries {
		out, err := eng.Out(q.Name)
		if err != nil {
			t.Fatal(err)
		}
		tbl := tableOf(out.Snapshot())
		rows := make([]string, 0, len(tbl.Rows))
		for _, r := range tbl.Rows {
			parts := make([]string, len(r))
			for i, c := range r {
				parts[i] = fmt.Sprint(c)
			}
			rows = append(rows, strings.Join(parts, "|"))
		}
		sort.Strings(rows)
		got[q.Name] = rows
	}
	return got
}

// TestLinearRoadStyleDifferential asserts that partitioned two-phase
// aggregation over the Linear Road position stream is byte-identical to
// single-partition execution: segstats hash-partitions on xway with a
// combining merge folding (sum, count) partials into the exact per-segment
// lav, and the balance-request count round-robins with a combining merge.
func TestLinearRoadStyleDifferential(t *testing.T) {
	batches := lroadBatches()
	base := lroadWorkload(t, 1, batches)
	part := lroadWorkload(t, 4, batches)
	for name, want := range base {
		gotRows := part[name]
		if len(gotRows) != len(want) {
			t.Fatalf("%s: P=4 produced %d rows, P=1 produced %d", name, len(gotRows), len(want))
		}
		for i := range want {
			if gotRows[i] != want[i] {
				t.Fatalf("%s: row %d differs: P=4 %q vs P=1 %q", name, i, gotRows[i], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: workload produced no rows; differential is vacuous", name)
		}
	}
}
