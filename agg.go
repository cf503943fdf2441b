package datacell

import (
	"fmt"
	"math/rand"
	"time"
)

// AggResult is one point of the two-phase aggregation sweep
// (`microbench -fig agg`): a grouped/global aggregation workload at one
// (strategy, parallelism) setting.
type AggResult struct {
	Strategy    Strategy
	Parallelism int
	Queries     int
	Tuples      int
	Batch       int
	Elapsed     time.Duration
	Throughput  float64 // stream tuples per second, feed to drain
	Results     int     // result tuples across all queries
	Partitions  int     // partitions the group wiring actually uses
	Routing     string  // installed routing ("hash(k)", "round-robin", …)
}

// RunAgg measures two-phase partitioned aggregation end to end: q grouped
// queries rotating through sum/avg/min/max/count over hash(k) wiring,
// plus one global aggregate that round-robins, all fed a uniform integer
// stream at the given strategy and parallelism. At P>1 the grouped
// queries' per-partition groups are final (hash co-location) and
// concatenate, while the global aggregate runs as per-partition partial
// aggregates folded by a combining merge emitter; the sweep's P=1 column
// is the single-pass baseline the differential tests hold the
// partitioned runs to.
func RunAgg(strategy Strategy, parallelism, q, tuples, batch int, seed int64) (AggResult, error) {
	if q < 1 {
		return AggResult{}, fmt.Errorf("datacell: agg run needs at least 1 query, got %d", q)
	}
	eng := New()
	defer eng.Stop()
	if err := eng.SetStrategy(strategy); err != nil {
		return AggResult{}, err
	}
	if err := eng.SetParallelism(parallelism); err != nil {
		return AggResult{}, err
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		return AggResult{}, err
	}
	aggs := []string{
		`count(*) as n, sum(t.v) as total`,
		`avg(t.v) as a`,
		`min(t.v) as mn, max(t.v) as mx`,
	}
	// Window predicates slice the value domain disjointly so the
	// partial-deletes residue chain leaves every query a share of the
	// stream (and the hash verdicts carry a prune range).
	const domain = int64(100_000)
	width := domain / int64(q)
	window := func(i int) string {
		lo := int64(i) * width
		hi := lo + width
		if i == q-1 {
			hi = domain
		}
		return fmt.Sprintf(`select * from s where v >= %d and v < %d`, lo, hi)
	}
	queries := make([]NamedQuery, 0, q)
	for i := 0; i < q-1; i++ {
		queries = append(queries, NamedQuery{
			Name: fmt.Sprintf("agg_%d", i),
			SQL:  fmt.Sprintf(`select t.k, %s from [%s] t group by t.k`, aggs[i%len(aggs)], window(i)),
		})
	}
	queries = append(queries, NamedQuery{
		Name: "agg_global",
		SQL:  fmt.Sprintf(`select count(*) as n, sum(t.v) as total from [%s] t`, window(q-1)),
	})
	if err := eng.RegisterQueries(queries); err != nil {
		return AggResult{}, err
	}
	if err := eng.Start(); err != nil {
		return AggResult{}, err
	}
	if batch < 1 {
		batch = tuples
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, 0, batch)
	start := time.Now()
	for fed := 0; fed < tuples; {
		n := min(batch, tuples-fed)
		rows = rows[:0]
		for i := 0; i < n; i++ {
			rows = append(rows, Row{rng.Int63n(256), rng.Int63n(100_000)})
		}
		if err := eng.Append("s", rows...); err != nil {
			return AggResult{}, err
		}
		fed += n
	}
	if !eng.Drain(120 * time.Second) {
		return AggResult{}, fmt.Errorf("datacell: agg run (%s, P=%d) did not drain", strategy, parallelism)
	}
	elapsed := time.Since(start)
	res := AggResult{
		Strategy:    strategy,
		Parallelism: parallelism,
		Queries:     q,
		Tuples:      tuples,
		Batch:       batch,
		Elapsed:     elapsed,
		Throughput:  float64(tuples) / elapsed.Seconds(),
		Partitions:  1,
	}
	for _, nq := range queries {
		out, err := eng.Out(nq.Name)
		if err != nil {
			return AggResult{}, err
		}
		res.Results += out.Len()
	}
	for _, g := range eng.Groups() {
		if g.Partitions > res.Partitions {
			res.Partitions = g.Partitions
		}
		res.Routing = g.Routing
	}
	return res, nil
}
