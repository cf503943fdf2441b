package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"datacell"
)

const (
	senders = 2 // sender connections, one per ingest shard
	// ringSlots is the input ring's size in frames: half a million tuples.
	ringSlots = 2048
	// settleTimeout bounds each wait for the pipeline to empty after a
	// segment: receptors, kernel, then emitters. settlePoll is how often
	// the timed run looks.
	settleTimeout = 20 * time.Second
	settlePoll    = 200 * time.Microsecond
)

// outDir holds everything a run writes: span files and WAL scratch.
const outDir = "out"

// rig is one engine under test with its listeners, sender connections,
// input ring and output recorder — everything set-up builds.
type rig struct {
	w      *workload
	eng    *datacell.Engine
	lst    *datacell.IngestListener
	pacer  *senderProc // the process that sends paced segments; the run's, not the rig's
	conns  []net.Conn  // this process's own connections: blast and stepped replay
	ring   *ring
	rec    *recorder
	walDir string

	next  int          // global number of the next frame to send: frames sent so far
	sends []int64      // frames sent per ring slot, all segments
	sentA atomic.Int64 // result units the frames written so far must produce
}

// setup builds the rig: engine configured and started, queries registered
// and subscribed, listeners up, senders connected, input ring built. pacer
// is the sender process that will send the rig's paced segments; a rig
// that sends none (the stepped replay) has none.
func setup(w *workload, seed int64, slots int, pacer *senderProc) (_ *rig, err error) {
	r := &rig{w: w, pacer: pacer, sends: make([]int64, slots)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	var opts []datacell.Option
	if w.wal {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if r.walDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
			return nil, err
		}
		opts = append(opts, datacell.WithWAL(r.walDir))
	}
	r.eng = datacell.New(opts...)
	if err := r.eng.Err(); err != nil {
		return nil, err
	}
	for _, stmt := range append([]string{w.ddl()}, w.pragmas...) {
		if _, err := r.eng.Exec(stmt); err != nil {
			return nil, fmt.Errorf("%s: %w", stmt, err)
		}
	}
	if err := r.eng.RegisterQueries(w.named()); err != nil {
		return nil, err
	}
	r.rec = newRecorder(w)
	for qi, q := range w.queries {
		if _, err := r.eng.SubscribeQuery(q.name, datacell.SubscribeOptions{OnEmit: r.rec.onEmit(qi)}); err != nil {
			return nil, err
		}
	}
	r.lst, err = r.eng.ListenIngest(w.stream, "127.0.0.1:0",
		datacell.IngestOptions{Shards: senders, BatchSize: frameTuples})
	if err != nil {
		return nil, err
	}
	if err := r.eng.Start(); err != nil {
		return nil, err
	}
	if r.conns, err = dialAll(r.lst.Addrs()); err != nil {
		return nil, err
	}
	if r.ring, err = buildRing(w, seed, slots); err != nil {
		return nil, err
	}
	if pacer == nil {
		return r, nil
	}
	// The sender process builds its copy of the ring after this process
	// has built its own, not beside it: how long two busy processes take
	// side by side depends on where the kernel happens to run them.
	sha, err := pacer.configure(senderConfig{Workload: w.name, Seed: seed, Slots: slots, Addrs: r.lst.Addrs()})
	if err != nil {
		return nil, err
	}
	if sha != r.ring.sha {
		return nil, fmt.Errorf("sender process built input %s, this process %s: the generator is not a function of the seed", sha, r.ring.sha)
	}
	return r, nil
}

// close stops everything set-up started and removes its WAL scratch.
func (r *rig) close() {
	closeAll(r.conns)
	if r.eng != nil {
		r.eng.Stop()
	}
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

// recorder folds every emitted row into the observed side of the
// reference check and, during a paced segment, samples its latency.
type recorder struct {
	w   *workload
	q   []queryRec
	seg atomic.Pointer[segment] // non-nil while a paced segment is measured
	// seenA is the sum of entry.a over everything delivered so far: the
	// result units seen. What was sent says what it must reach (rig.sentA),
	// so it tells when delivery has finished; its atomic update also
	// publishes the emitter threads' plain writes below to the reader
	// that polls it.
	seenA atomic.Int64
	// hook, when set, is told the interval of every callback (the traced
	// run's sub.callback spans).
	hook atomic.Pointer[func(start, end time.Time)]
}

// queryRec is written by its query's emitter thread only.
type queryRec struct {
	fold    map[int64]*[2]int64
	rows    int64
	batches int64
	bad     int64 // rows observe rejected
}

// segment is the measurement state of one paced segment.
type segment struct {
	sched  schedule
	window time.Duration
	logs   []latLog // per query
}

func newRecorder(w *workload) *recorder {
	r := &recorder{w: w, q: make([]queryRec, len(w.queries))}
	for i := range r.q {
		r.q[i].fold = map[int64]*[2]int64{}
	}
	return r
}

func (r *recorder) onEmit(qi int) func(datacell.Emit) {
	q := &r.q[qi]
	kcol := r.w.queries[qi].kcol
	return func(em datacell.Emit) {
		hook := r.hook.Load()
		var start time.Time
		if hook != nil {
			start = time.Now()
		}
		var log *latLog
		seg := r.seg.Load()
		if seg != nil {
			log = &seg.logs[qi]
			log.open(max(0, int(em.EmitTime.Sub(seg.sched.t0)/seg.window)))
		}
		var (
			sumA    int64
			acc     *[2]int64
			accKey  int64
			slot    = -1
			lat     time.Duration
			matched bool
		)
		for _, row := range em.Table.Rows {
			e, ok := r.w.observe(qi, row)
			if !ok {
				q.bad++
				continue
			}
			if acc == nil || e.key != accKey {
				if acc = q.fold[e.key]; acc == nil {
					acc = new([2]int64)
					q.fold[e.key] = acc
				}
				accKey = e.key
			}
			acc[0] += e.a
			acc[1] += e.b
			sumA += e.a
			if log == nil {
				continue
			}
			k, ok := row[kcol].(int64)
			if !ok {
				continue // an aggregate over no tuples has no last contributor
			}
			if s := int(k / frameTuples); s != slot {
				slot = s
				var i int
				if i, matched = seg.sched.frameOf(slot, log.near, em.EmitTime); matched {
					log.near = max(log.near, i)
					lat = em.EmitTime.Sub(seg.sched.due(i))
				}
			}
			if matched {
				log.add(lat)
			} else {
				log.orphans++
			}
		}
		q.rows += int64(len(em.Table.Rows))
		q.batches++
		if hook != nil {
			(*hook)(start, time.Now())
		}
		r.seenA.Add(sumA)
	}
}

// ingested sums the tuples the receptors have delivered into the kernel.
func (r *rig) ingested() int64 {
	var n int64
	for _, st := range r.lst.Stats() {
		n += st.Tuples
	}
	return n
}

// poll waits for done, checking every so often (as fast as the scheduler
// allows when every is 0), and reports whether it came true in time.
func poll(timeout, every time.Duration, done func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !done() {
		if time.Now().After(deadline) {
			return false
		}
		if every > 0 {
			time.Sleep(every)
		} else {
			runtime.Gosched()
		}
	}
	return true
}

// settle waits until everything sent so far has left the pipeline:
// receptors have delivered it, the kernel is quiescent, and the emitters
// have handed every expected row to the recorder.
func (r *rig) settle() error {
	sent := int64(r.next) * frameTuples
	if !poll(settleTimeout, settlePoll, func() bool { return r.ingested() >= sent }) {
		return fmt.Errorf("receptors stalled at %d of %d tuples", r.ingested(), sent)
	}
	if !r.eng.Drain(settleTimeout) {
		return fmt.Errorf("kernel did not drain")
	}
	want := r.sentA.Load()
	if !poll(settleTimeout, settlePoll, func() bool { return r.rec.seenA.Load() >= want }) {
		return fmt.Errorf("emitters delivered %d of %d expected result units", r.rec.seenA.Load(), want)
	}
	return nil
}

// paced offers rate tuples/s for dur on the fixed schedule, then lets the
// pipeline settle. With window > 0 latencies are sampled into the
// returned segment; otherwise the segment is warm-up.
func (r *rig) paced(dur time.Duration, window time.Duration) (sendStats, *segment, error) {
	n := int(dur.Seconds() * r.w.rateEPS / frameTuples)
	seg := &segment{
		sched: schedule{
			interval: time.Duration(float64(time.Second) * frameTuples / r.w.rateEPS),
			first:    r.next, n: n, slots: len(r.ring.frames),
		},
		window: window,
		logs:   make([]latLog, len(r.w.queries)),
	}
	// Wall-clock time without a monotonic reading: the child compares it
	// with its own clock, and emit times are compared with it here.
	seg.sched.t0 = time.Unix(0, time.Now().Add(2*time.Millisecond).UnixNano())
	if window > 0 {
		r.rec.seg.Store(seg)
		defer r.rec.seg.Store(nil)
	}
	st, err := r.pacer.paced(seg.sched)
	if err == nil && st.frames != n {
		err = fmt.Errorf("sender process wrote %d of %d frames", st.frames, n)
	}
	if err != nil {
		return st, seg, err
	}
	// Every frame of the schedule went out once.
	for i := 0; i < n; i++ {
		slot := (r.next + i) % len(r.sends)
		r.sends[slot]++
		r.sentA.Add(r.ring.units[slot])
	}
	r.next += n
	return st, seg, r.settle()
}

// blast sends closed-loop for dur and returns the tuples ingested in
// each full window, as rates.
func (r *rig) blast(dur, window time.Duration) (sendStats, []float64, error) {
	var rates []float64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(window)
		defer tick.Stop()
		at, n := time.Now(), r.ingested()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				m := r.ingested()
				rates = append(rates, float64(m-n)/now.Sub(at).Seconds())
				at, n = now, m
			}
		}
	}()
	first, deadline := r.next, time.Now().Add(dur)
	var units int64
	for _, u := range r.ring.units {
		units += u
	}
	limit := max(1, blastWindow*units/int64(len(r.ring.units)))
	st, err := sendAll(r.conns, func(conn net.Conn, offset int) sendStats {
		return sendBlast(conn, r.ring, first, offset, len(r.conns), deadline, &r.sentA, &r.rec.seenA, limit)
	})
	close(stop)
	<-sampled
	if err != nil {
		return st, rates, err
	}
	// sendBlast already added the units to sentA (its window needs them
	// as it goes), so only the slot counts are booked here.
	for slot, n := range st.sends {
		r.sends[slot] += int64(n)
	}
	r.next += st.frames
	return st, rates, r.settle()
}

// verdict is the outcome of checking the recorder's fold against the
// reference fold of what was sent.
type verdict struct {
	keys     int   // distinct fold keys expected
	mismatch int64 // result units missing, surplus or carrying a wrong sum
	bad      int64 // rows the observer rejected
	detail   string
}

func (v verdict) ok() bool { return v.mismatch == 0 && v.bad == 0 }

// verify folds what was sent through the reference and compares it, key
// by key, with what the recorder folded from the engine's output. Call
// only after settle.
func (r *rig) verify() verdict {
	want := map[int64]*[2]int64{}
	for slot, n := range r.sends {
		if n == 0 {
			continue
		}
		for _, e := range r.ring.expect[slot] {
			acc := want[e.key]
			if acc == nil {
				acc = new([2]int64)
				want[e.key] = acc
			}
			acc[0] += n * e.a
			acc[1] += n * e.b
		}
	}
	v := verdict{keys: len(want)}
	got := map[int64]*[2]int64{}
	for i := range r.rec.q {
		v.bad += r.rec.q[i].bad
		for k, acc := range r.rec.q[i].fold {
			got[k] = acc
		}
	}
	note := func(key int64, w, g [2]int64) {
		if v.detail == "" {
			v.detail = fmt.Sprintf("key %#x: expected (n=%d, sum=%d), got (n=%d, sum=%d)", key, w[0], w[1], g[0], g[1])
		}
	}
	for k, w := range want {
		g := got[k]
		if g == nil {
			g = new([2]int64)
		}
		switch {
		case g[0] != w[0]:
			v.mismatch += max(g[0]-w[0], w[0]-g[0])
			note(k, *w, *g)
		case g[1] != w[1]:
			v.mismatch += w[0]
			note(k, *w, *g)
		}
	}
	for k, g := range got {
		if want[k] == nil {
			v.mismatch += g[0]
			note(k, [2]int64{}, *g)
		}
	}
	return v
}
