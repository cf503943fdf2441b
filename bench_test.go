// Benchmarks regenerating every figure of the paper's evaluation (§6).
// Each benchmark corresponds to one figure or reported number; the
// EXPERIMENTS.md file records the measured shapes against the paper's.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The cmd/microbench and cmd/linearroad binaries print the same series in
// tabular form for plotting.
package datacell

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/core"
	"datacell/internal/expr"
	"datacell/internal/lroad"
	"datacell/internal/microbench"
	"datacell/internal/relop"
	"datacell/internal/vector"
)

// BenchmarkFig4CommPipeline measures the full sensor→TCP→kernel→TCP→actuator
// pipeline of Figure 4 for 8..64 chained queries, with and without the
// kernel in the loop. Reported metrics: ms per batch (Fig 4a) and
// tuples/s (Fig 4b).
func BenchmarkFig4CommPipeline(b *testing.B) {
	const tuples = 20_000
	for _, q := range []int{8, 16, 32, 64} {
		for _, withKernel := range []bool{true, false} {
			name := fmt.Sprintf("queries=%d/kernel=%v", q, withKernel)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := microbench.RunCommPipeline(q, tuples, withKernel)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Elapsed.Microseconds())/1000, "ms/batch")
					b.ReportMetric(res.Throughput, "tuples/s")
				}
			})
		}
	}
}

// BenchmarkKernelThroughput is the §6.1 "pure kernel activity" number: the
// event rate of a single select factory with no communication in the loop
// (the paper reports ~7M events/s per factory). allocs/op covers 20
// firings plus the warm-up growth of the fresh baskets; the steady-state
// firing itself is allocation free.
func BenchmarkKernelThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rate, err := microbench.KernelThroughput(100_000, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rate/1e6, "Mevents/s")
	}
}

// BenchmarkFig5aBatchProcessing sweeps the batch size T for 10/100/1000
// installed queries (Figure 5a). Reported metric: average end-to-end
// latency per tuple in microseconds.
func BenchmarkFig5aBatchProcessing(b *testing.B) {
	const gap = 2 * time.Microsecond
	for _, q := range []int{10, 100, 1000} {
		for _, batch := range []int{1, 100, 10_000, 100_000} {
			total := 100_000
			if batch == 1 {
				total = 10_000 // tuple-at-a-time is ~1000x slower; bound the run
			}
			name := fmt.Sprintf("queries=%d/T=%d", q, batch)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := microbench.RunBatchSweep(q, total, batch, gap, 1)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.LatencyPer.Nanoseconds())/1000, "µs/tuple")
				}
			})
		}
	}
}

// BenchmarkFig5bStrategies compares the three processing strategies while
// varying the number of installed queries at a fixed batch of 10^5 tuples
// (Figure 5b), driven through the public engine API: the queries are
// registered as SQL continuous queries and the strategy is selected with
// Engine.SetStrategy, exactly as an application would. Expected ordering:
// shared < partial < separate, the gap widening with the query count; the
// replicas/tuple metric shows separate copying the stream once per query
// while shared and partial ingest each tuple exactly once.
// (internal/microbench.RunStrategySweep keeps the hand-wired kernel
// variant of this experiment.)
func BenchmarkFig5bStrategies(b *testing.B) {
	const tuples = 100_000
	for _, q := range []int{2, 8, 32, 256, 1024} {
		for _, s := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
			b.Run(fmt.Sprintf("queries=%d/%s", q, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunFig5b(s, q, tuples, 1)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Elapsed.Seconds(), "s/batch")
					b.ReportMetric(float64(res.ReplicaAppended)/float64(res.StreamAppended), "replicas/tuple")
				}
			})
		}
	}
}

// BenchmarkLinearRoad runs a shortened Linear Road benchmark (Figures 7-9)
// and reports the end-to-end input rate and the worst Q7 activation (the
// response-deadline headroom). cmd/linearroad runs the full three hours.
func BenchmarkLinearRoad(b *testing.B) {
	for _, sf := range []float64{0.5, 1} {
		b.Run(fmt.Sprintf("sf=%.1f", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := lroad.DefaultConfig(sf)
				cfg.Duration = 900 // 15 benchmark minutes per iteration
				res, err := lroad.Run(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				if v := lroad.Validate(res); !v.OK() {
					b.Fatalf("validation failed: %v", v.Errors[0])
				}
				b.ReportMetric(float64(res.TotalIn), "tuples")
				b.ReportMetric(float64(res.MaxProc["Q7"].Microseconds())/1000, "maxQ7ms")
			}
		})
	}
}

// --- Ablations for the design choices DESIGN.md calls out ---------------

// BenchmarkAblationDelete compares the dedicated one-pass shift-delete
// operator against composing generic operators (gather the complement into
// a fresh vector), the paper's reported 20-30% win from new kernel
// operators.
func BenchmarkAblationDelete(b *testing.B) {
	const n = 1 << 16
	del := make([]int32, 0, n/10)
	for i := int32(0); i < n; i += 10 {
		del = append(del, i)
	}
	base := make([]int64, n)
	for i := range base {
		base[i] = int64(i)
	}
	b.Run("shift-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := vector.FromInts(append([]int64(nil), base...))
			v.DeleteSorted(del)
		}
	})
	b.Run("gather-complement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := vector.FromInts(append([]int64(nil), base...))
			keep := relop.CandNot(del, n)
			_ = v.Gather(keep)
		}
	})
}

// BenchmarkAblationColumnBinding measures the column-store advantage the
// paper leans on: a query touching 2 of 8 stream attributes processes only
// the bound columns, versus a row-style engine dragging all 8 through the
// pipeline.
func BenchmarkAblationColumnBinding(b *testing.B) {
	const n = 100_000
	const k = 8
	names := make([]string, k)
	cols := make([]*vector.Vector, k)
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < k; c++ {
		names[c] = fmt.Sprintf("a%d", c)
		data := make([]int64, n)
		for i := range data {
			data[i] = rng.Int63n(10_000)
		}
		cols[c] = vector.FromInts(data)
	}
	full := bat.NewRelation(names, cols)

	run := func(b *testing.B, width int) {
		in := basket.New("bind.in", names[:width], typesOf(width))
		out := basket.New("bind.out", names[:width], typesOf(width))
		f, err := core.NewFactory("bind.q", []*basket.Basket{in}, []*basket.Basket{out},
			func(ctx *core.Context) error {
				rel := ctx.In(0).TakeAllLocked()
				sel := relop.SelectPred(rel.ColByName("a0"), relop.LT, vector.NewInt(100), nil)
				if len(sel) > 0 {
					if _, err := ctx.Out(0).AppendLocked(rel.Gather(sel)); err != nil {
						return err
					}
				}
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		sub, err := full.Project(names[:width]...)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.Append(sub); err != nil {
				b.Fatal(err)
			}
			if _, err := f.TryFire(); err != nil {
				b.Fatal(err)
			}
			out.TakeAll()
		}
		b.SetBytes(int64(width * n * 8))
	}
	b.Run("bound-2-of-8", func(b *testing.B) { run(b, 2) })
	b.Run("all-8", func(b *testing.B) { run(b, 8) })
}

func typesOf(k int) []vector.Type {
	ts := make([]vector.Type, k)
	for i := range ts {
		ts[i] = vector.Int
	}
	return ts
}

// BenchmarkAblationPredicatePushdown compares the candidate-list selection
// path (predicates pushed into kernel primitives) against materialising
// boolean vectors for the same predicate.
func BenchmarkAblationPredicatePushdown(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(2))
	data := make([]int64, n)
	for i := range data {
		data[i] = rng.Int63n(10_000)
	}
	rel := bat.NewRelation([]string{"x"}, []*vector.Vector{vector.FromInts(data)})
	pred := expr.NewBin(expr.And,
		expr.NewBin(expr.Ge, expr.NewCol("x"), expr.NewConst(vector.NewInt(100))),
		expr.NewBin(expr.Lt, expr.NewCol("x"), expr.NewConst(vector.NewInt(200))))
	b.Run("pushdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := expr.EvalSelectInto(pred, rel, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := pred.Eval(rel)
			if err != nil {
				b.Fatal(err)
			}
			relop.SelectBool(v, nil)
		}
	})
}

// BenchmarkSQLQueryFiring measures the end-to-end cost of one firing of a
// compiled SQL continuous query over a 10^4-tuple batch — the overhead the
// SQL layer adds on top of the hand-wired kernel path.
func BenchmarkSQLQueryFiring(b *testing.B) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int, w int)`); err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v, t.w from [select * from s] t where t.v < 100`); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rows := make([]Row, 10_000)
	for i := range rows {
		rows[i] = Row{rng.Int63n(10_000), rng.Int63()}
	}
	out, err := eng.Out("q")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Append("s", rows...); err != nil {
			b.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			b.Fatal(err)
		}
		out.TakeAll()
	}
	b.SetBytes(int64(len(rows) * 16))
}

// BenchmarkSingleQueryFiring isolates the steady-state cost of one firing
// cycle of a compiled continuous query — ingest of a pre-built columnar
// batch, one firing through the execution arena, result drain via
// relation ping-pong — with allocs/op as the headline metric. This is the
// benchmark the allocation-regression tests guard (the pre-arena engine
// sat at >10^4 allocs/op for the same cycle).
func BenchmarkSingleQueryFiring(b *testing.B) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int, w int)`); err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v, t.w from [select * from s] t where t.v < 100`); err != nil {
		b.Fatal(err)
	}
	out, err := eng.Out("q")
	if err != nil {
		b.Fatal(err)
	}
	const n = 10_000
	rng := rand.New(rand.NewSource(3))
	vs := make([]int64, n)
	ws := make([]int64, n)
	for i := range vs {
		vs[i], ws[i] = rng.Int63n(10_000), rng.Int63()
	}
	batch := bat.NewRelation([]string{"v", "w"}, []*vector.Vector{
		vector.FromInts(vs), vector.FromInts(ws),
	})
	st := eng.Catalog().Basket("s")
	var spare *bat.Relation
	cycle := func() error {
		if _, err := st.Append(batch); err != nil {
			return err
		}
		if err := eng.RunSync(); err != nil {
			return err
		}
		out.Lock()
		spare = out.ExchangeLocked(spare)
		out.Unlock()
		return nil
	}
	for i := 0; i < 3; i++ { // warm arena and ping-pong relations
		if err := cycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle(); err != nil {
			b.Fatal(err)
		}
	}
}
