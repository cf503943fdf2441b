package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datacell"
	"datacell/internal/bat"
	"datacell/internal/ingest"
	"datacell/internal/sql"
	"datacell/internal/wal"
)

// span is one timed call the benchmark made into a layer. Spans of one
// frame share its frame number; set-up spans carry frame -1. Parent is
// the id of the span that caused this one, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Frame   int    `json:"frame"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the spans-off run the overhead is measured against.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // subscriber callbacks add spans from emitter threads
	spans []span
}

func (t *tracer) begin(name string, parent, frame int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Frame: frame, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent, frame int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Frame: frame, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (children are clipped to the
// parent and may overlap one another).
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered, at := int64(0), s.StartNs
		iv := kids[s.ID]
		// Children of one span begin in id order, which is start order.
		for _, k := range iv {
			lo := max(k[0], at)
			if k[1] > lo {
				covered += k[1] - lo
				at = k[1]
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// stepped replays the workload's first n frames one at a time through a
// fresh rig: a frame is encoded, decoded, (logged,) written to the wire,
// fired and delivered before the next one starts, and tr records a span
// around each of those calls. It returns the replay's wall time.
func stepped(w *workload, seed int64, n int, tr *tracer) (time.Duration, error) {
	id := tr.begin("sql.parse", -1, -1)
	for _, q := range w.queries {
		if _, err := sql.Parse(q.sql); err != nil {
			return 0, err
		}
	}
	tr.end(id)
	id = tr.begin("engine.register", -1, -1)
	eng := datacell.New()
	_, err := eng.Exec(w.ddl())
	if err == nil {
		err = eng.RegisterQueries(w.named())
	}
	tr.end(id)
	eng.Stop()
	if err != nil {
		return 0, err
	}

	r, err := setup(w, seed, n, nil)
	if err != nil {
		return 0, err
	}
	defer r.close()
	var scratch *wal.Log
	if w.wal {
		dir, err := os.MkdirTemp(outDir, "wal-trace-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		if scratch, _, err = wal.Open(dir, wal.Options{}); err != nil {
			return 0, err
		}
		defer scratch.Close()
	}

	// Subscriber callbacks become children of the frame's delivery span
	// once it is open, and of the frame itself before that (an emitter
	// may pick a batch up while the kernel is still firing).
	var cur struct {
		sync.Mutex
		frame, parent int
	}
	if tr != nil {
		hook := func(start, end time.Time) {
			cur.Lock()
			frame, parent := cur.frame, cur.parent
			cur.Unlock()
			tr.add("sub.callback", parent, frame, start, end)
		}
		r.rec.hook.Store(&hook)
	}
	setCur := func(frame, parent int) {
		cur.Lock()
		cur.frame, cur.parent = frame, parent
		cur.Unlock()
	}

	fill := w.newFill(seed)
	rel := bat.NewEmptyRelation(w.cols, w.types())
	decoded := bat.NewEmptyRelation(w.cols, w.types())
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	fr := ingest.NewFrameReader(br, w.types())
	var buf []byte
	var wantA int64
	start := time.Now()
	for f := 0; f < n; f++ {
		rel.Clear()
		fill(rel, int64(f)*frameTuples, frameTuples)
		root := tr.begin("frame", -1, f)
		setCur(f, root)

		id := tr.begin("ingest.encode", root, f)
		buf, err = ingest.AppendFrame(buf[:0], rel)
		tr.end(id)
		if err != nil {
			return 0, err
		}

		id = tr.begin("ingest.decode", root, f)
		rd.Reset(buf)
		br.Reset(rd)
		decoded.Clear()
		_, err = fr.DecodeFrameInto(decoded)
		tr.end(id)
		if err != nil {
			return 0, err
		}

		if scratch != nil {
			id = tr.begin("wal.log", root, f)
			_, err = scratch.LogBatch(rel)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			id = tr.begin("wal.sync", root, f)
			err = scratch.Sync()
			tr.end(id)
			if err != nil {
				return 0, err
			}
		}

		id = tr.begin("ingest.recv", root, f)
		_, err = r.conns[f%len(r.conns)].Write(buf)
		r.sends[f]++
		r.sentA.Add(r.ring.units[f])
		visible := err == nil && poll(settleTimeout, 0, func() bool { return r.ingested() >= int64(f+1)*frameTuples })
		tr.end(id)
		if err != nil {
			return 0, err
		}
		if !visible {
			return 0, fmt.Errorf("frame %d never became visible in the ingest counters", f)
		}

		id = tr.begin("core.fire", root, f)
		drained := r.eng.Drain(settleTimeout)
		tr.end(id)
		if !drained {
			return 0, fmt.Errorf("frame %d: kernel did not drain", f)
		}

		wantA += r.ring.units[f]
		id = tr.begin("emit.deliver", root, f)
		setCur(f, id)
		delivered := poll(settleTimeout, 0, func() bool { return r.rec.seenA.Load() >= wantA })
		tr.end(id)
		tr.end(root)
		if !delivered {
			return 0, fmt.Errorf("frame %d: %d of %d result units delivered", f, r.rec.seenA.Load(), wantA)
		}
	}
	elapsed := time.Since(start)
	if v := r.verify(); !v.ok() {
		return 0, fmt.Errorf("stepped outputs fail verification: %s", v.detail)
	}
	return elapsed, nil
}

// tracedRun makes the stepped replay twice, spans off then on, writes the
// span file and returns the trace.* metrics.
func tracedRun(w *workload, seed int64, frames int) (map[string]float64, error) {
	off, err := stepped(w, seed, frames, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	on, err := stepped(w, seed, frames, tr)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), data, 0o644); err != nil {
		return nil, err
	}

	self := selfTimes(tr.spans)
	ktuples := float64(frames*frameTuples) / 1e3
	m := map[string]float64{
		"trace.sql.parse_us":       self["sql.parse"].Seconds() * 1e6,
		"trace.engine.register_us": self["engine.register"].Seconds() * 1e6,
		"trace.p1_eps":             float64(frames*frameTuples) / off.Seconds(),
		"trace.overhead_frac":      (on - off).Seconds() / off.Seconds(),
	}
	for _, name := range []string{"ingest.encode", "ingest.decode", "wal.log", "wal.sync",
		"ingest.recv", "core.fire", "emit.deliver", "sub.callback"} {
		m["trace."+name+"_us_per_ktuple"] = self[name].Seconds() * 1e6 / ktuples
	}
	return m, nil
}
