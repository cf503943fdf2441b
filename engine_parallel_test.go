package datacell

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parallelQueries is the mix of the static differential: two range
// filters and a grouped count/sum.
var parallelQueries = []NamedQuery{
	{Name: "rr1", SQL: `select t.v from [select * from s where v < 400] t`},
	{Name: "rr2", SQL: `select t.k, t.v from [select * from s where v >= 300 and v < 700] t where t.v % 2 = 0`},
	{Name: "agg", SQL: `select t.k, count(*) as n, sum(t.v) as total from [select * from s where v >= 100] t group by t.k`},
}

// trajectoryQueries is the mix of the trajectory differential: a range
// query whose verdict routes with a catch-all, and a grouped avg query
// whose partitioned wiring stages partial aggregates and merges them
// with the combining merge (two-phase aggregation).
var trajectoryQueries = []NamedQuery{
	{Name: "rng", SQL: `select t.v from [select * from s where v >= 200 and v < 600] t`},
	{Name: "agg", SQL: `select t.k, avg(t.v) as a, count(*) as n from [select * from s where v < 800] t group by t.k`},
}

// topQuery is a TOP-window member whose verdict is "none": under the
// separate strategy it exercises partitioned and unpartitioned members
// coexisting in one group; under shared/partial it would pin the whole
// group to one partition, defeating the differentials, so they add it
// under separate only.
var topQuery = NamedQuery{Name: "np", SQL: `select t.v from [select top 5 * from s] t`}

// midCycleQueries pairs a range filter with a grouped count and sum over
// an overlapping range. Under the shared strategy a tuple in the overlap
// is covered by whichever reader fires first, so a cycle cut between the
// two readers holds tuples one member has seen and the other has not.
var midCycleQueries = []NamedQuery{
	{Name: "rng", SQL: `select t.v from [select * from s where v >= 200 and v < 600] t`},
	{Name: "agg", SQL: `select t.k, count(*) as n, sum(t.v) as total from [select * from s where v < 800] t group by t.k`},
}

// parallelWorkload feeds a randomized stream through queries at the
// given strategy, draining synchronously after every batch, and returns
// each query's full output as a sorted row multiset. The engine starts
// at parallelism ps[0]; each further entry is applied with
// SetParallelism in turn, with a batch still undrained, so the rewire
// must carry the in-flight tuples over to the new wiring. With fires > 0
// that many firings run first, so the rewire also cuts the old wiring
// mid-flight.
func parallelWorkload(t *testing.T, strategy Strategy, queries []NamedQuery, ps []int, seed int64, fires int) map[string][]string {
	t.Helper()
	eng := New()
	if err := eng.SetStrategy(strategy); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetParallelism(ps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(queries); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for batch := 0; batch < 12; batch++ {
		n := 20 + rng.Intn(60)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{rng.Int63n(16), rng.Int63n(1000)}
		}
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if step := 1 + batch/3; batch%3 == 1 && step < len(ps) {
			if fires > 0 {
				if _, err := eng.sch.RunUntilQuiescent(fires); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.SetParallelism(ps[step]); err != nil {
				t.Fatal(err)
			}
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

// sameOutputs fails t unless got holds, query by query, the same
// non-empty sorted row multisets as want.
func sameOutputs(t *testing.T, label string, want, got map[string][]string) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(w) == 0 {
			t.Errorf("%s: workload produced no rows; differential is vacuous", name)
			continue
		}
		if len(g) != len(w) {
			t.Errorf("%s: %s produced %d rows, P=1 produced %d", name, label, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s: row %d differs: %s %q vs P=1 %q", name, i, label, g[i], w[i])
				break
			}
		}
	}
}

// TestParallelDifferential asserts that partitioned execution is
// result-equivalent to single-partition execution: for every sharing
// strategy, the same randomized stream through the same query mix yields
// identical output multisets at P=1 and P=4.
func TestParallelDifferential(t *testing.T) {
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			queries := parallelQueries
			if strategy == StrategySeparate {
				queries = append(queries[:len(queries):len(queries)], topQuery)
			}
			base := parallelWorkload(t, strategy, queries, []int{1}, 42, 0)
			part := parallelWorkload(t, strategy, queries, []int{4}, 42, 0)
			sameOutputs(t, "P=4", base, part)
		})
	}
}

// TestParallelismTrajectoryDifferential rewires across partition counts
// mid-stream — widen, widen more, collapse, rewiden — each time with a
// batch still undrained, so tuples keep migrating across wirings of
// different width while results accumulate. For every sharing strategy
// the output must equal static P=1, including the range query's
// catch-all routing and the avg query's two-phase partial-aggregate
// merge.
func TestParallelismTrajectoryDifferential(t *testing.T) {
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			queries := trajectoryQueries
			if strategy == StrategySeparate {
				queries = append(queries[:len(queries):len(queries)], topQuery)
			}
			want := parallelWorkload(t, strategy, queries, []int{1}, 99, 0)
			got := parallelWorkload(t, strategy, queries, []int{1, 2, 4, 1, 3}, 99, 0)
			sameOutputs(t, "P trajectory 1→2→4→1→3", want, got)
		})
	}
}

// TestRewireMidCycleKeepsEveryTuple runs the P trajectory of the
// differential above, but fires the wiring a few times before each
// rewire, so the teardown catches it mid-flight: a shared cycle between
// its readers, tuples spread over the stream, partitions, delete chains
// and staging baskets. The firing boundaries then differ from the P=1
// run, and a grouped query may split one key of a batch over two rows,
// so the test compares what boundaries cannot change: the filter's rows,
// and each key's total count and sum.
func TestRewireMidCycleKeepsEveryTuple(t *testing.T) {
	totals := func(rows []string) map[string][2]int64 {
		m := map[string][2]int64{}
		for _, r := range rows {
			f := strings.Split(r, "|")
			n, _ := strconv.ParseInt(f[1], 10, 64)
			sum, _ := strconv.ParseInt(f[2], 10, 64)
			tot := m[f[0]]
			m[f[0]] = [2]int64{tot[0] + n, tot[1] + sum}
		}
		return m
	}
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			for fires := 1; fires <= 6; fires++ {
				seed := int64(fires)
				want := parallelWorkload(t, strategy, midCycleQueries, []int{1}, seed, 0)
				got := parallelWorkload(t, strategy, midCycleQueries, []int{1, 2, 4, 1, 3}, seed, fires)
				if !slices.Equal(got["rng"], want["rng"]) {
					t.Errorf("%d fires before each rewire: rng emitted %d rows, P=1 emitted %d", fires, len(got["rng"]), len(want["rng"]))
				}
				w, g := totals(want["agg"]), totals(got["agg"])
				if len(w) == 0 {
					t.Fatal("agg produced no rows; the test is vacuous")
				}
				if !maps.Equal(g, w) {
					t.Errorf("%d fires before each rewire: agg per-key [count sum] %v, P=1 %v", fires, g, w)
				}
			}
		})
	}
}

// TestParallelismAcrossGroupWiring asserts the group actually partitions:
// P=4 with partitionable members reports 4 partitions, and a
// non-partitionable member pins a shared group back to 1.
func TestParallelismAcrossGroupWiring(t *testing.T) {
	eng := New()
	if err := eng.SetStrategy(StrategyShared); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q0", `select t.v from [select * from s where v < 10] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	gs := eng.Groups()
	if len(gs) != 1 || gs[0].Partitions != 4 {
		t.Fatalf("partitionable shared group: %+v", gs)
	}
	// A TOP-window query must see the whole stream; the shared group falls
	// back to one partition.
	if err := eng.RegisterQuery("np", `select t.v from [select top 5 * from s] t`); err != nil {
		t.Fatal(err)
	}
	gs = eng.Groups()
	if len(gs) != 1 || gs[0].Partitions != 1 {
		t.Fatalf("group with non-partitionable member should fall back to P=1: %+v", gs)
	}
	if err := eng.RemoveQuery("np"); err != nil {
		t.Fatal(err)
	}
	gs = eng.Groups()
	if len(gs) != 1 || gs[0].Partitions != 4 {
		t.Fatalf("group should re-partition after removal: %+v", gs)
	}
}

// TestParallelismPragma drives SetParallelism through the SQL pragma and
// checks rejection of bad values.
func TestParallelismPragma(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	if got := eng.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}
	if _, err := eng.Exec(`set parallelism = 0`); err == nil {
		t.Fatal("set parallelism = 0 should be rejected")
	}
	if _, err := eng.Exec(`set parallelism = 'lots'`); err == nil {
		t.Fatal("set parallelism = 'lots' should be rejected")
	}
	if err := eng.SetParallelism(-3); err == nil {
		t.Fatal("SetParallelism(-3) should be rejected")
	}
}

// TestParallelismPragmas covers the SQL surface of parallelism: an
// integer literal rewires the groups, and every other form — the retired
// auto and default values, a string, a per-stream `on` suffix on either
// pragma — is rejected without touching the setting.
func TestParallelismPragmas(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(trajectoryQueries); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = 3`); err != nil {
		t.Fatal(err)
	}
	if got := eng.Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after `set parallelism = 3`, want 3", got)
	}
	if gs := eng.Groups(); len(gs) != 1 || gs[0].Partitions != 3 {
		t.Fatalf("after `set parallelism = 3`: %+v, want one group over 3 partitions", gs)
	}
	for _, bad := range []string{
		`set parallelism = auto`,
		`set parallelism = default`,
		`set parallelism = 'sideways'`,
		`set parallelism = 3 on s`,
		`set strategy = 'shared' on s`,
	} {
		if _, err := eng.Exec(bad); err == nil {
			t.Errorf("%s: expected an error", bad)
		}
		if got := eng.Parallelism(); got != 3 {
			t.Errorf("%s: Parallelism() = %d, want it left at 3", bad, got)
		}
	}
	if got := eng.Strategy(); got != StrategySeparate {
		t.Errorf("Strategy() = %s after the rejected `on s` pragma, want separate", got)
	}
}

// TestParallelismBound asserts a partition count above the bound is
// refused before any rewire, through every entry point: the setting
// stays and no wiring is rebuilt. (Nothing here wires at a large P: a
// wiring at P spawns one goroutine per clone.)
func TestParallelismBound(t *testing.T) {
	eng := New(WithParallelism(2))
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(trajectoryQueries); err != nil {
		t.Fatal(err)
	}
	rewires := func() (n int) {
		for _, ev := range eng.Events() {
			if ev.Kind == "rewire" {
				n++
			}
		}
		return n
	}
	before := rewires()
	if err := eng.SetParallelism(maxParallelism + 1); err == nil {
		t.Errorf("SetParallelism(%d) should be rejected", maxParallelism+1)
	}
	if _, err := eng.Exec(`set parallelism = 100000000`); err == nil {
		t.Error("set parallelism = 100000000 should be rejected")
	}
	if got := eng.Parallelism(); got != 2 {
		t.Errorf("Parallelism() = %d after rejected settings, want 2", got)
	}
	if after := rewires(); after != before {
		t.Errorf("rejected settings recorded %d rewire events", after-before)
	}
	if err := New(WithParallelism(maxParallelism + 1)).Err(); err == nil {
		t.Errorf("WithParallelism(%d) should fail construction", maxParallelism+1)
	}
}

// TestExplainShowsPartitioning checks the explain surface of the verdict.
func TestExplainShowsPartitioning(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql  string
		want string
	}{
		{`select t.v from [select * from s where v < 10] t`, "partitioning range(v) across 4 partitions"},
		{`select t.v from [select * from s where v % 2 = 0] t`, "partitioning round-robin across 4 partitions"},
		{`select t.k, count(*) as n from [select * from s] t group by t.k`, "partitioning hash(k) across 4 partitions"},
		{`select t.v from [select top 5 * from s] t`, "partitioning none"},
	} {
		out, err := eng.Explain(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("explain of %s missing %q:\n%s", tc.sql, tc.want, out)
		}
	}
	// Under shared wiring an installed non-partitionable member pins the
	// whole group; explain must describe the wiring the query would
	// actually get, not its private verdict.
	if err := eng.SetStrategy(StrategyShared); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("np", `select t.v from [select top 5 * from s] t`); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Explain(`select t.v from [select * from s where v < 10] t`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "group members pin the stream to one partition"; !strings.Contains(out, want) {
		t.Errorf("explain missing %q:\n%s", want, out)
	}
}

// TestParallelRegisterDeregisterRace registers and removes queries, and
// flips strategy and parallelism, while a feeder thread keeps the stream
// under load. It exists to run under -race: the group rewires must never
// race the splitter, clones or merge emitters.
func TestParallelRegisterDeregisterRace(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		rows := make([]Row, 16)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for j := range rows {
				rows[j] = Row{rng.Int63n(16), rng.Int63n(1000)}
			}
			if err := eng.Append("s", rows...); err != nil {
				return
			}
		}
	}()

	strategies := []Strategy{StrategySeparate, StrategyShared, StrategyPartial}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("rq%d", i)
		sql := fmt.Sprintf(`select t.v from [select * from s where v < %d] t`, 100+i*50)
		if i%5 == 4 {
			sql = `select t.k, count(*) as n from [select * from s] t group by t.k`
		}
		if err := eng.RegisterQuery(name, sql); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := eng.SetParallelism(1 + i%4); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			if err := eng.SetStrategy(strategies[(i/3)%len(strategies)]); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 4 {
			if err := eng.RemoveQuery(fmt.Sprintf("rq%d", i-4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if !eng.Drain(30 * time.Second) {
		t.Fatal("engine did not drain after register/deregister churn")
	}
}
