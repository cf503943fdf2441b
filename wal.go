package datacell

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/ingest"
	"datacell/internal/obs"
	"datacell/internal/stream"
	"datacell/internal/wal"
)

// WALOptions configure the engine's write-ahead logging of ingest frames.
// Each stream gets its own segment-file log under Dir; every batch a
// receptor accepts is logged before it is routed into baskets, and
// Recover replays the un-checkpointed tail through the normal router path
// after a crash.
type WALOptions struct {
	// Dir is the log root; per-stream segments live in Dir/<stream>/.
	Dir string
	// SegmentBytes, SyncInterval and SyncBytes tune the per-stream logs;
	// zero values take the wal package defaults (64 MiB segments, 2ms
	// group-commit ticks, 1 MiB inline-sync threshold).
	SegmentBytes int
	SyncInterval time.Duration
	SyncBytes    int
}

// walState is the engine's view of its open write-ahead logs.
type walState struct {
	opts WALOptions
	logs map[string]*wal.Log
	// replayed tracks, per stream, the highest frame sequence number this
	// engine has already driven through the router — what makes a second
	// Recover a no-op even before a checkpoint is written.
	replayed map[string]uint64
}

// RecoveryInfo summarizes one Engine.Recover pass.
type RecoveryInfo struct {
	Streams        int   // stream logs found under the WAL directory
	Frames         int64 // frames replayed into the kernel
	Tuples         int64 // tuples those frames carried
	TruncatedBytes int64 // torn-tail bytes repaired away on open
}

// OpenWAL attaches a write-ahead log rooted at o.Dir to the engine. Call
// it after creating the stream baskets and before ListenIngest (listeners
// capture the log when they start) and Start (which auto-recovers).
func (e *Engine) OpenWAL(o WALOptions) error {
	if o.Dir == "" {
		return fmt.Errorf("datacell: OpenWAL needs a directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		return fmt.Errorf("datacell: WAL already open at %s", e.wal.opts.Dir)
	}
	e.wal = &walState{
		opts:     o,
		logs:     map[string]*wal.Log{},
		replayed: map[string]uint64{},
	}
	return nil
}

// walLogForLocked opens (or returns) the per-stream log. Caller holds
// e.mu. The returned OpenInfo is non-nil only when this call opened the
// log (repair happens then).
func (e *Engine) walLogForLocked(streamName string) (*wal.Log, *wal.OpenInfo, error) {
	w := e.wal
	if w == nil {
		return nil, nil, fmt.Errorf("datacell: WAL not open")
	}
	if lg, ok := w.logs[streamName]; ok {
		return lg, nil, nil
	}
	lg, info, err := wal.Open(filepath.Join(w.opts.Dir, streamName), wal.Options{
		SegmentBytes: w.opts.SegmentBytes,
		SyncInterval: w.opts.SyncInterval,
		SyncBytes:    w.opts.SyncBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	w.logs[streamName] = lg
	return lg, info, nil
}

// Recover scans every stream log under the WAL directory, repairs torn
// tails, and replays the frames after each log's checkpoint through the
// stream's normal ingest target — the same route-at-ingest sinks receptor
// deliveries take, so partitioned wirings, pruning and two-phase
// aggregation see byte-identical input. It is idempotent: frames already
// replayed by this engine (or covered by a checkpoint) are skipped, so a
// double Recover is a no-op. Every stream with logged history must exist
// in the catalog; run the DDL script first.
func (e *Engine) Recover() (RecoveryInfo, error) {
	var info RecoveryInfo
	start := time.Now()
	e.mu.Lock()
	w := e.wal
	e.mu.Unlock()
	if w == nil {
		return info, fmt.Errorf("datacell: OpenWAL before Recover")
	}
	ents, err := os.ReadDir(w.opts.Dir)
	if err != nil {
		return info, err
	}
	var streams []string
	for _, ent := range ents {
		if ent.IsDir() {
			streams = append(streams, ent.Name())
		}
	}
	sort.Strings(streams)
	for _, streamName := range streams {
		frames, tuples, truncated, err := e.recoverStream(streamName)
		if err != nil {
			return info, err
		}
		info.Streams++
		info.Frames += frames
		info.Tuples += tuples
		info.TruncatedBytes += truncated
	}
	e.mu.Lock()
	cp := info
	e.lastRecovery = &cp
	e.ev.recoveries.Inc()
	e.trace.Add(obs.Event{Subsystem: "wal", Kind: "recover",
		Duration: time.Since(start), Time: e.cat.Now(),
		Fields: fmt.Sprintf("streams=%d frames=%d tuples=%d truncated_bytes=%d",
			info.Streams, info.Frames, info.Tuples, info.TruncatedBytes)})
	e.mu.Unlock()
	return info, nil
}

// recoverStream replays one stream's un-replayed WAL tail into its group
// target, batching appended frames like a receptor would.
func (e *Engine) recoverStream(streamName string) (frames, tuples, truncated int64, err error) {
	b := e.cat.Basket(streamName)
	if b == nil {
		return 0, 0, 0, fmt.Errorf("datacell: WAL holds history for stream %q, which is not in the catalog (run the DDL script before Recover)", streamName)
	}
	e.mu.Lock()
	lg, oinfo, err := e.walLogForLocked(streamName)
	if err != nil {
		e.mu.Unlock()
		return 0, 0, 0, err
	}
	g, err := e.groupLocked(streamName)
	if err != nil {
		e.mu.Unlock()
		return 0, 0, 0, err
	}
	tgt := g.target()
	from := lg.Checkpoint()
	if r := e.wal.replayed[streamName]; r > from {
		from = r
	}
	e.mu.Unlock()
	if oinfo != nil {
		truncated = oinfo.TruncatedBytes
	}

	names, types := b.UserSchema()
	rel := bat.NewEmptyRelation(names, types)
	br := bufio.NewReader(bytes.NewReader(nil))
	fr := ingest.NewFrameReader(br, types)
	flush := func() error {
		if rel.Len() == 0 {
			return nil
		}
		sink, release := tgt.Acquire()
		_, aerr := sink.Append(rel)
		release()
		rel.Clear()
		return aerr
	}
	last := from
	err = lg.Tail(from, func(seq uint64, frame []byte) error {
		br.Reset(bytes.NewReader(frame))
		n, derr := fr.DecodeFrameInto(rel)
		if derr != nil {
			return fmt.Errorf("datacell: replaying %s frame %d: %w", streamName, seq, derr)
		}
		frames++
		tuples += int64(n)
		last = seq
		if rel.Len() >= 1024 {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return frames, tuples, truncated, err
	}
	e.mu.Lock()
	if e.wal != nil && last > e.wal.replayed[streamName] {
		e.wal.replayed[streamName] = last
	}
	e.mu.Unlock()
	return frames, tuples, truncated, nil
}

// WALHistory returns the stream's logged history as textual tuple lines —
// the input format stream.Replayer consumes — starting after frame
// sequence number from (0 for everything on disk). It is how a
// late-registered query reads history from disk instead of memory. The
// live log is flushed first so recent frames are visible.
func (e *Engine) WALHistory(streamName string, from uint64) (io.ReadCloser, error) {
	e.mu.Lock()
	w := e.wal
	var lg *wal.Log
	if w != nil {
		lg = w.logs[streamName]
	}
	e.mu.Unlock()
	if w == nil {
		return nil, fmt.Errorf("datacell: WAL not open")
	}
	b := e.cat.Basket(streamName)
	if b == nil {
		return nil, fmt.Errorf("datacell: unknown stream %q", streamName)
	}
	if lg != nil {
		if err := lg.Sync(); err != nil {
			return nil, err
		}
	}
	_, types := b.UserSchema()
	return wal.LineSource(filepath.Join(w.opts.Dir, streamName), from, types), nil
}

// walLogsLocked snapshots the open logs. Caller holds e.mu.
func (e *Engine) walLogsLocked() []*wal.Log {
	if e.wal == nil {
		return nil
	}
	logs := make([]*wal.Log, 0, len(e.wal.logs))
	for _, lg := range e.wal.logs {
		logs = append(logs, lg)
	}
	return logs
}

// checkpointWAL writes a checkpoint to every open stream log whose
// stream holds no tuple in any basket it feeds (see holdsTuplesLocked): a
// checkpoint marks logged frames consumed, so one taken over a waiting
// tuple would lose it in a crash. The check and the checkpoint's bound
// are taken together with the stream's ingest quiesced. Receptors log and
// route a frame under one hold of their target, so every frame up to the
// bound is in a basket the check saw, and frames logged after it stay
// past the checkpoint. Any other log is only synced; it keeps its
// replayable tail, and recovery then replays frames whose results were
// already delivered (at-least-once). Crashed or failed logs refuse (a
// crash must replay); their error is ignored here because checkpointing
// is an optimization, never a correctness requirement.
func (e *Engine) checkpointWAL(close bool) {
	type pinned struct {
		lg   *wal.Log
		upTo uint64
		held bool
	}
	var logs []pinned
	e.mu.Lock()
	if e.wal != nil {
		for name, lg := range e.wal.logs {
			resume := e.quiesceIngestLocked(name)
			logs = append(logs, pinned{lg: lg, upTo: lg.LastSeq(), held: e.holdsTuplesLocked(name)})
			resume()
		}
		if close {
			// Closed logs are forgotten so a later listener reopens them.
			e.wal.logs = map[string]*wal.Log{}
		}
	}
	e.mu.Unlock()
	for _, p := range logs {
		if p.held {
			p.lg.Sync() //nolint:errcheck // see doc comment
		} else {
			p.lg.WriteCheckpoint(p.upTo) //nolint:errcheck // see doc comment
		}
		if close {
			p.lg.Close()
		}
	}
}

// quiesceIngestLocked blocks new receptor deliveries into the stream and
// waits out in-flight ones, through the group's target and the own target
// of any splitter-path listener. The returned function resumes delivery
// into the unchanged sinks. Caller holds e.mu.
func (e *Engine) quiesceIngestLocked(streamName string) func() {
	g := e.groups[streamName]
	if g == nil {
		return func() {}
	}
	tgts := []*ingest.SwitchTarget{g.target()}
	for _, l := range g.listeners {
		if !slices.Contains(tgts, l.tgt) {
			tgts = append(tgts, l.tgt)
		}
	}
	resumes := make([]func(ingest.Sink), len(tgts))
	for i, t := range tgts {
		resumes[i] = t.Quiesce()
	}
	return func() {
		for _, r := range resumes {
			r(nil)
		}
	}
}

// holdsTuplesLocked reports whether any basket fed by the stream holds a
// tuple: the stream basket, and for a query group also its taps, the
// partitions with their catch-alls, the staging of computed-but-unmerged
// results, and per member its private replica and the feed of each of its
// query factories. A query factory's first input is its feed (see
// attachLatencyLocked): the stream, a partition, the private replica, or
// the chain basket a partial-deletes wiring passes residue down. Caller
// holds e.mu.
func (e *Engine) holdsTuplesLocked(streamName string) bool {
	g := e.groups[streamName]
	if g == nil {
		b := e.cat.Basket(streamName)
		return b != nil && b.Len() > 0
	}
	bs := append([]*basket.Basket{g.stream}, g.taps...)
	bs = append(bs, g.parts...)
	for _, ps := range g.memberParts {
		bs = append(bs, ps...)
	}
	for _, so := range g.staging {
		bs = append(bs, so.staging...)
	}
	for _, m := range g.scans {
		if m.priv != nil {
			bs = append(bs, m.priv)
		}
		for _, f := range m.factories {
			if ins := f.Inputs(); len(ins) > 0 {
				bs = append(bs, ins[0])
			}
		}
	}
	return slices.ContainsFunc(bs, func(b *basket.Basket) bool { return b.Len() > 0 })
}

// Kill simulates abrupt process death, for crash-recovery testing: ingest
// sockets close, the scheduler and sampler stop, and every WAL log drops
// its buffered-unflushed records without a checkpoint — exactly the disk
// state a kill -9 leaves behind. Unlike Stop, nothing is flushed, synced
// or checkpointed, so a restarted engine must Recover.
func (e *Engine) Kill() {
	e.mu.Lock()
	started := e.started
	e.started = false
	var ins []*IngestListener
	for _, g := range e.groups {
		ins = append(ins, g.listeners...)
	}
	logs := e.walLogsLocked()
	if e.wal != nil {
		e.wal.logs = map[string]*wal.Log{}
	}
	touts := append([]*stream.TCPEmitter(nil), e.tcpOut...)
	qes := e.subEmittersLocked()
	stop, done := e.adaptStop, e.adaptDone
	e.adaptStop, e.adaptDone = nil, nil
	e.mu.Unlock()
	// Crash the logs before the sockets close: a receptor mid-delivery
	// must see the log refuse, not sneak in a post-mortem append.
	for _, lg := range logs {
		lg.Crash()
	}
	if stop != nil {
		close(stop)
		<-done
	}
	for _, l := range ins {
		l.Close()
	}
	if started {
		e.sch.Stop()
	}
	for _, t := range touts {
		t.Close()
	}
	for _, qe := range qes {
		qe.em.Stop()
	}
}
