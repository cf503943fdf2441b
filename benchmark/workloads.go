package main

import (
	"fmt"
	"math/rand"

	"datacell"
	"datacell/internal/bat"
	"datacell/internal/lroad"
	"datacell/internal/vector"
)

// frameTuples is the number of tuples in every wire frame, and the ingest
// listeners' decode batch: one frame is one delivery into the kernel.
const frameTuples = 256

// entry is one unit of the reference fold. For a filter query a row folds
// to (query, 1, k); for an aggregate, a result row folds to (group key,
// count, sum). Folding is additive, so the fold of the engine's output
// does not depend on where the engine cut its firings or on P.
type entry struct{ key, a, b int64 }

// query is one registered continuous query. Every result row carries the
// stream sequence number of its (last) contributing tuple in column kcol.
type query struct {
	name string
	sql  string
	kcol int
}

// fillFunc appends n tuples to rel; the first carries sequence number k.
type fillFunc func(rel *bat.Relation, k int64, n int)

// workload is one set of inputs plus the queries that consume them and
// the reference the outputs are verified against.
type workload struct {
	name string
	why  string
	// rateEPS is the paced segment's offered rate: half of capacity_eps
	// as measured at the commit that added the benchmark, rounded to one
	// significant digit, and frozen. README.md records the sizing run.
	rateEPS float64

	stream  string
	cols    []string
	pragmas []string
	queries []query
	wal     bool

	// newFill returns the seeded input generator.
	newFill func(seed int64) fillFunc
	// expect appends the entries the queries must emit for one frame.
	expect func(rel *bat.Relation, out []entry) []entry
	// observe folds one emitted row of query qi; ok is false when the row
	// is malformed or internally inconsistent.
	observe func(qi int, row datacell.Row) (e entry, ok bool)
}

func (w *workload) ddl() string {
	s := "create basket " + w.stream + " ("
	for i, c := range w.cols {
		if i > 0 {
			s += ", "
		}
		s += c + " int"
	}
	return s + ")"
}

// named returns the queries in the form Engine.RegisterQueries takes.
func (w *workload) named() []datacell.NamedQuery {
	qs := make([]datacell.NamedQuery, len(w.queries))
	for i, q := range w.queries {
		qs[i] = datacell.NamedQuery{Name: q.name, SQL: q.sql}
	}
	return qs
}

func (w *workload) types() []vector.Type {
	ts := make([]vector.Type, len(w.cols))
	for i := range ts {
		ts[i] = vector.Int
	}
	return ts
}

// queryKey places a query's entries in their own key space.
func queryKey(qi int) int64 { return int64(qi) << 56 }

// vDomain is the value domain of column v on the synthetic stream; the
// filters below are cut from it.
const vDomain = 32000

var sCols = []string{"k", "v", "a", "b"}

// fillS generates the synthetic stream s(k, v, a, b): v uniform over
// vDomain selects each filter's slice, a and b are payload.
func fillS(seed int64) fillFunc {
	rng := rand.New(rand.NewSource(seed))
	return func(rel *bat.Relation, k int64, n int) {
		kc, vc, ac, bc := rel.Col(0), rel.Col(1), rel.Col(2), rel.Col(3)
		for i := 0; i < n; i++ {
			kc.AppendInt(k + int64(i))
			vc.AppendInt(rng.Int63n(vDomain))
			ac.AppendInt(rng.Int63())
			bc.AppendInt(rng.Int63n(1000))
		}
	}
}

// rangeFilters builds the reference of a set of filters over v: filter i
// passes lo[i] <= v < hi[i], and each passing tuple is one output row.
func rangeFilters(lo, hi []int64) func(*bat.Relation, []entry) []entry {
	return func(rel *bat.Relation, out []entry) []entry {
		ks, vs := rel.Col(0).Ints(), rel.Col(1).Ints()
		for qi := range lo {
			e := entry{key: queryKey(qi)}
			for i, v := range vs {
				if v >= lo[qi] && v < hi[qi] {
					e.a++
					e.b += ks[i]
				}
			}
			if e.a > 0 {
				out = append(out, e)
			}
		}
		return out
	}
}

// observeFilter folds a filter query's row to (query, 1, k).
func observeFilter(qi int, row datacell.Row) (entry, bool) {
	k, ok := row[0].(int64)
	return entry{key: queryKey(qi), a: 1, b: k}, ok
}

func filterQuery(name string, lo, hi int64) query {
	return query{name: name, kcol: 0, sql: fmt.Sprintf(
		`select t.k, t.v, t.a, t.b from [select * from s where v >= %d and v < %d] t`, lo, hi)}
}

func passthru() *workload {
	return &workload{
		name:    "passthru",
		why:     "every tuple in is a row out at P=1 without WAL: loads ingest decode/route, basket append and emission; kernel, merge and WAL idle",
		rateEPS: 500000,
		stream:  "s", cols: sCols,
		pragmas: []string{`set strategy = 'separate'`, `set parallelism = 1`},
		queries: []query{{name: "all", kcol: 0,
			sql: `select t.k, t.v, t.a, t.b from [select * from s] t where t.v >= 0`}},
		newFill: fillS,
		expect:  rangeFilters([]int64{0}, []int64{vDomain}),
		observe: observeFilter,
	}
}

// multiquery's filters cover the lower half of the value domain. The
// engine keeps tuples that no query of a shared group covers (a later
// query may still want them), so a 17th query, a global count, consumes
// the upper half: every tuple is consumed, half are emitted as rows.
func multiquery() *workload {
	const n = 16
	width := int64(vDomain / (2 * n))
	w := &workload{
		name:    "multiquery",
		why:     "16 disjoint range filters plus a count of the rest under the shared strategy (Fig. 5b): loads core strategies, scheduler and selection x17; half the tuples emitted over 16 emitters",
		rateEPS: 500000,
		stream:  "s", cols: sCols,
		pragmas: []string{`set strategy = 'shared'`, `set parallelism = 1`},
		newFill: fillS,
	}
	lo, hi := make([]int64, n), make([]int64, n)
	for i := range lo {
		lo[i] = int64(i) * width
		hi[i] = lo[i] + width
		w.queries = append(w.queries, filterQuery(fmt.Sprintf("q%02d", i), lo[i], hi[i]))
	}
	w.queries = append(w.queries, query{name: "rest", kcol: 1, sql: fmt.Sprintf(
		`select count(*) as n, max(t.k) as k from [select * from s where v >= %d] t`, n*width)})
	filters := rangeFilters(lo, hi)
	w.expect = func(rel *bat.Relation, out []entry) []entry {
		out = filters(rel, out)
		rest := entry{key: queryKey(n)}
		for _, v := range rel.Col(1).Ints() {
			if v >= n*width {
				rest.a++
			}
		}
		return append(out, rest)
	}
	w.observe = func(qi int, row datacell.Row) (entry, bool) {
		if qi < n {
			return observeFilter(qi, row)
		}
		cnt, ok := row[0].(int64)
		return entry{key: queryKey(n), a: cnt}, ok
	}
	return w
}

func durable() *workload {
	hi := int64(vDomain / 10)
	return &workload{
		name:    "durable",
		why:     "one 10%-selective filter with the WAL on at default group commit: every frame is logged and fsynced, so ingest write side and wal carry the run; emission light",
		rateEPS: 500000,
		stream:  "s", cols: sCols,
		pragmas: []string{`set strategy = 'separate'`, `set parallelism = 1`},
		// The predicate sits outside the basket expression: the query
		// consumes every tuple and keeps a tenth. Inside it, the other nine
		// tenths would stay in the query's replica basket and be rescanned
		// by every firing, and the run would slow down as it went.
		queries: []query{{name: "hot", kcol: 0, sql: fmt.Sprintf(
			`select t.k, t.v, t.a, t.b from [select * from s] t where t.v < %d`, hi)}},
		wal:     true,
		newFill: fillS,
		expect:  rangeFilters([]int64{0}, []int64{hi}),
		observe: observeFilter,
	}
}

// Linear Road stream: the benchmark's input schema behind the sequence
// column k.
var lrCols = []string{"k", "typ", "time", "vid", "spd", "xway", "lane", "dir", "seg", "pos"}

const (
	lrXWays = 4
	lrCars  = lroad.ReportEvery * 2048 // 2048 position reports per simulated second
)

type lrCar struct{ vid, xway, dir, lane, pos, spd int64 }

// lrGen is a deterministic re-statement of internal/lroad's traffic model
// (cars enter in the first quarter of an expressway, wander in speed,
// report every 30 s, leave at the end), position reports only.
// internal/lroad's own Generator iterates a Go map
// while drawing from its rng, so one seed gives a different stream every
// process; a benchmark input must be a function of the seed alone. Cars
// live in 30 report-phase buckets walked in order.
type lrGen struct {
	rng     *rand.Rand
	buckets [lroad.ReportEvery][]lrCar
	nextVID int64
	t       int64 // simulated second
	i       int   // next car of bucket t%30
}

func (g *lrGen) spawn(c *lrCar) {
	g.nextVID++
	*c = lrCar{
		vid:  g.nextVID,
		xway: g.rng.Int63n(lrXWays),
		dir:  g.rng.Int63n(2),
		lane: 1 + g.rng.Int63n(3),
		pos:  g.rng.Int63n(lroad.NumSegs * lroad.SegFeet / 4),
		spd:  40 + g.rng.Int63n(60),
	}
}

func fillLR(seed int64) fillFunc {
	g := &lrGen{rng: rand.New(rand.NewSource(seed))}
	for b := range g.buckets {
		g.buckets[b] = make([]lrCar, lrCars/lroad.ReportEvery)
		for i := range g.buckets[b] {
			c := &g.buckets[b][i]
			g.spawn(c)
			// Start mid-flow: cars already spread over the whole road.
			c.pos = g.rng.Int63n(lroad.NumSegs * lroad.SegFeet)
		}
	}
	return g.fill
}

func (g *lrGen) fill(rel *bat.Relation, k int64, n int) {
	put := func(i int, v int64) { rel.Col(i).AppendInt(v) }
	for done := 0; done < n; {
		b := g.buckets[g.t%lroad.ReportEvery]
		if g.i == len(b) {
			g.t++
			g.i = 0
			continue
		}
		c := &b[g.i]
		g.i++
		// 30 s of travel at a wandering speed: mph * 5280/3600 ft/s * 30 s.
		c.spd = min(100, max(30, c.spd+g.rng.Int63n(21)-10))
		c.pos += c.spd * lroad.SegFeet / 3600 * lroad.ReportEvery
		if c.pos >= lroad.NumSegs*lroad.SegFeet {
			g.spawn(c)
		}
		for i, v := range [...]int64{k + int64(done), lroad.TypePosition, g.t, c.vid, c.spd,
			c.xway, c.lane, c.dir, c.pos / lroad.SegFeet, c.pos} {
			put(i, v)
		}
		done++
	}
}

// segKey packs a segment-statistics group (xway, dir, seg, minute).
func segKey(xway, dir, seg, minute int64) int64 {
	return xway<<48 | dir<<40 | seg<<32 | minute
}

// expectLR returns the reference fold of the two Linear Road queries.
// The group index is kept between frames: a fresh map per frame was a
// third of set-up time.
func expectLR() func(rel *bat.Relation, out []entry) []entry {
	groups := map[int64]int{} // key -> index in out
	return func(rel *bat.Relation, out []entry) []entry {
		clear(groups)
		tm, spd := rel.Col(2).Ints(), rel.Col(4).Ints()
		xway, dir, seg := rel.Col(5).Ints(), rel.Col(7).Ints(), rel.Col(8).Ints()
		for i := range tm {
			key := queryKey(0) | segKey(xway[i], dir[i], seg[i], tm[i]/60)
			at, ok := groups[key]
			if !ok {
				at = len(out)
				groups[key] = at
				out = append(out, entry{key: key})
			}
			out[at].a++
			out[at].b += spd[i]
		}
		return append(out, entry{key: queryKey(1), a: int64(len(tm))})
	}
}

func observeLR(qi int, row datacell.Row) (entry, bool) {
	if qi == 1 { // balreq: n, k
		n, ok := row[0].(int64)
		return entry{key: queryKey(1), a: n}, ok
	}
	// segstats: xway, dir, seg, minute, avgspd, sumspd, cars, k
	var iv [4]int64
	for i := range iv {
		v, ok := row[i].(int64)
		if !ok {
			return entry{}, false
		}
		iv[i] = v
	}
	avg, ok1 := row[4].(float64)
	sum, ok2 := row[5].(int64)
	cars, ok3 := row[6].(int64)
	if !ok1 || !ok2 || !ok3 || cars <= 0 {
		return entry{}, false
	}
	if d := avg - float64(sum)/float64(cars); d > 1e-6 || d < -1e-6 {
		return entry{}, false
	}
	return entry{key: queryKey(0) | segKey(iv[0], iv[1], iv[2], iv[3]), a: cars, b: sum}, true
}

func segstatsP2() *workload {
	return &workload{
		name:    "segstats_p2",
		why:     "Linear Road segment statistics and a global report count at parallelism 2: loads hash routing, partial aggregation and the combining merge; output tiny, emission idle",
		rateEPS: 500000,
		stream:  "lr", cols: lrCols,
		pragmas: []string{`set strategy = 'separate'`, `set parallelism = 2`},
		queries: []query{
			{name: "segstats", kcol: 7, sql: `select p.xway, p.dir, p.seg, p.time / 60 as minute,
				avg(p.spd) as avgspd, sum(p.spd) as sumspd, count(*) as cars, max(p.k) as k
				from [select * from lr] p
				group by p.xway, p.dir, p.seg, p.time / 60`},
			{name: "balreq", kcol: 1, sql: `select count(*) as n, max(p.k) as k
				from [select * from lr] p`},
		},
		newFill: fillLR,
		expect:  expectLR(),
		observe: observeLR,
	}
}

// workloads returns the benchmark's workloads in the order they run.
func workloads() []*workload {
	return []*workload{passthru(), multiquery(), segstatsP2(), durable()}
}
