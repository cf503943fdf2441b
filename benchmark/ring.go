package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"datacell/internal/bat"
	"datacell/internal/ingest"
)

// ring is the benchmark input: pre-encoded wire frames sent round and
// round, plus the reference fold of each. Tuple k lives in slot
// k/frameTuples, so an output row names the slot that produced it.
type ring struct {
	frames [][]byte  // frames[slot] is one encoded wire frame
	expect [][]entry // expect[slot] is what the queries must emit for it
	units  []int64   // units[slot] is the sum of expect[slot]'s a: the result units the frame produces
	sha    string    // SHA-256 of all frame bytes, in slot order
}

func buildRing(w *workload, seed int64, slots int) (*ring, error) {
	fill := w.newFill(seed)
	rel := bat.NewEmptyRelation(w.cols, w.types())
	r := &ring{frames: make([][]byte, slots), expect: make([][]entry, slots), units: make([]int64, slots)}
	var buf []byte
	offs := make([]int, slots+1)
	for s := 0; s < slots; s++ {
		rel.Clear()
		fill(rel, int64(s)*frameTuples, frameTuples)
		var err error
		if buf, err = ingest.AppendFrame(buf, rel); err != nil {
			return nil, fmt.Errorf("encode frame %d: %w", s, err)
		}
		if s == 0 {
			// Frames of one integer schema are all the same size: one
			// allocation instead of doubling a buffer of tens of megabytes.
			buf = slices.Grow(buf, (slots-1)*len(buf))
		}
		offs[s+1] = len(buf)
		r.expect[s] = w.expect(rel, nil)
		for _, e := range r.expect[s] {
			r.units[s] += e.a
		}
	}
	for s := range r.frames {
		r.frames[s] = buf[offs[s]:offs[s+1]:offs[s+1]]
	}
	sum := sha256.Sum256(buf)
	r.sha = hex.EncodeToString(sum[:])
	return r, nil
}

// schedule is the due-time side table of one paced segment: frame i of
// the segment (ring slot (first+i) mod slots) is due at t0 + i*interval.
// The table is arithmetic because the schedule is fixed before the
// segment starts.
type schedule struct {
	t0       time.Time
	interval time.Duration
	first    int // global number of the segment's frame 0
	n        int // frames in the segment
	slots    int // ring size
}

func (s schedule) due(i int) time.Time { return s.t0.Add(time.Duration(i) * s.interval) }

// frameOf returns which of the segment's frames an output row came
// from, given the ring slot its k names, the latest frame this query has
// reported so far and the row's emit time. The pipeline is first-in
// first-out up to the skew between the sender connections and the width
// of a firing, so the frame is the one on that slot nearest to near —
// or a lap earlier when that one was not yet due at emit time (after a
// stall the connections' backlogs can be most of a lap apart). ok is
// false when the segment has no such frame. Latencies stay unambiguous
// up to a ring lap less that skew, far beyond failAfter.
func (s schedule) frameOf(slot, near int, emit time.Time) (i int, ok bool) {
	i = ((slot-s.first)%s.slots + s.slots) % s.slots // first segment frame on this slot
	if near > i {
		i += (near - i + s.slots/2) / s.slots * s.slots
	}
	for i >= 0 && (i >= s.n || s.due(i).After(emit.Add(time.Millisecond))) {
		i -= s.slots
	}
	return i, i >= 0
}

// sendStats is what one sender connection reports for one segment.
type sendStats struct {
	frames  int           // frames written
	sends   []int32       // per ring slot (blast only: a paced segment sends its schedule)
	maxLag  time.Duration // worst generator lag (see sendPaced)
	late    int           // frames whose lag exceeded lateAfter
	overdue int           // frames whose write started more than failAfter past due: counted as failed
	stall   time.Duration // time inside conn.Write
	err     error
}

const (
	// lateAfter is the lag beyond which a paced frame counts as late. A
	// paced segment with more than maxLateFrac late frames measured the
	// generator's scheduling, not the engine, and is invalid.
	lateAfter   = 10 * time.Millisecond
	maxLateFrac = 0.01
	// failAfter is the latency (or generator lag) beyond which a tuple
	// counts as failed.
	failAfter = time.Second
)

// sendPaced writes this connection's share (every stride-th frame from
// offset) of a paced segment. Only prebuilt bytes are written; the clock
// reads are the pacing itself. A frame's lag is how long after an ideal
// generator it started: one that starts every frame when it is due, or
// as soon as the previous write has taken as long as it did. The wait a
// write held up by the engine's backpressure imposes on later frames is
// the system's, and latency measured from their due times counts it; lag
// is the generator's own lateness.
func sendPaced(conn net.Conn, r *ring, s schedule, offset, stride int) sendStats {
	var st sendStats
	var ready time.Time // when the ideal generator finished the previous write
	for i := offset; i < s.n; i += stride {
		due := s.due(i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		if start.Sub(due) > failAfter {
			st.overdue++
		}
		if ready.Before(due) {
			ready = due
		}
		lag := start.Sub(ready)
		st.maxLag = max(st.maxLag, lag)
		if lag > lateAfter {
			st.late++
		}
		if _, st.err = conn.Write(r.frames[(s.first+i)%len(r.frames)]); st.err != nil {
			return st
		}
		wrote := time.Since(start)
		ready = ready.Add(wrote)
		st.stall += wrote
		st.frames++
	}
	return st
}

// blastWindow is how many frames' worth of results a blast keeps in
// flight (written but not yet delivered to the subscriber). The engine's
// watermarks push back on ingest only; nothing bounds a query's output
// basket, so without a window a blast measures how fast results pile up
// in memory, not how fast the pipeline moves them. The window is twice
// the ingest high-water mark, so receptor backpressure still engages
// when the kernel, not emission, is the slow stage.
const blastWindow = 512

// sendBlast writes this connection's share of the ring closed-loop until
// the deadline: the next frame goes out as soon as fewer than limit
// result units are in flight (sent counts units written, seen units
// delivered).
func sendBlast(conn net.Conn, r *ring, first, offset, stride int, deadline time.Time, sent, seen *atomic.Int64, limit int64) sendStats {
	st := sendStats{sends: make([]int32, len(r.frames))}
	for i := offset; time.Now().Before(deadline); i += stride {
		for sent.Load()-seen.Load() >= limit {
			if !time.Now().Before(deadline) {
				return st
			}
			time.Sleep(100 * time.Microsecond)
		}
		slot := (first + i) % len(r.frames)
		if _, st.err = conn.Write(r.frames[slot]); st.err != nil {
			return st
		}
		sent.Add(r.units[slot])
		st.sends[slot]++
		st.frames++
	}
	return st
}
