// Package wal is the durable half of the ingest periphery: a per-stream
// write-ahead log of the binary ingest wire frames. The wire format is
// already a log record — length-prefixed, CRC'd, self-delimiting — so the
// log appends accepted frames verbatim to segment files, batches fsyncs
// (group commit on a byte threshold or a background interval), rotates
// segments, and stamps a monotonic frame sequence number into each
// segment header. On open it repairs a torn tail, and replay hands the
// surviving frames back in order so recovery can drive them through the
// engine's normal append/router path.
//
// Failure semantics follow the process, not the API: a simulated or real
// crash loses buffered-but-unflushed records (exactly what kill -9 loses
// from a bufio layer) while flushed records survive in the page cache,
// and a failed fsync poisons the log — subsequent appends return the sync
// error instead of silently claiming durability.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datacell/internal/bat"
	"datacell/internal/faultpoint"
	"datacell/internal/ingest"
)

// Aliases keeping the scanner readable: the record body format is the
// ingest wire format, validated by the same code both on the socket and on
// disk.
const ingestHeaderSize = ingest.WireHeaderSize

var (
	frameSize   = ingest.FrameSize
	verifyFrame = ingest.VerifyFrame
)

// Faultpoint sites threaded through the log. Tests arm them via
// internal/faultpoint; disarmed they cost one atomic load.
const (
	// FaultAppend fires in LogBatch before the record is buffered: Err
	// rejects the batch cleanly, Short persists a torn half-record and
	// crashes, Crash dies before writing.
	FaultAppend = "wal.append"
	// FaultSync fires in sync before flush+fsync: Err poisons the log
	// like a real fsync failure, Crash dies with buffered records unflushed.
	FaultSync = "wal.sync"
	// FaultSynced fires immediately after a successful fsync: Crash dies
	// with everything durable.
	FaultSynced = "wal.synced"
)

var (
	// ErrCrashed is returned by operations on a log that simulated a crash.
	ErrCrashed = errors.New("wal: log crashed")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
)

// Options tune a Log. Zero values take the defaults noted on each field.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size. Default 64 MiB.
	SegmentBytes int
	// SyncInterval is the group-commit tick: a background goroutine
	// flushes and fsyncs any pending records this often. Default 2ms.
	SyncInterval time.Duration
	// SyncBytes flushes and fsyncs inline once this many record bytes are
	// pending, bounding the unsynced window under burst load. Default 1 MiB.
	SyncBytes int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 2 * time.Millisecond
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = 1 << 20
	}
	return o
}

// OpenInfo reports what Open found and repaired.
type OpenInfo struct {
	Segments        int
	Frames          int    // intact frames surviving in the log
	LastSeq         uint64 // sequence number of the last intact frame
	Checkpoint      uint64 // replay starts after this sequence number
	TruncatedBytes  int64  // torn-tail bytes removed from the final segment
	RemovedSegments int    // headless tail segments deleted outright
}

// Stats are cumulative counters for one log.
type Stats struct {
	Frames    uint64 // frame records appended
	Bytes     uint64 // record bytes appended (including record kind bytes)
	Syncs     uint64 // fsync batches issued
	Rotations uint64 // segment rotations
	// Group-commit batch accounting: a batch is the run of frames one
	// successful sync makes durable together. Empty syncs (ticker flushes
	// with nothing pending) are not counted, so BatchFrames/Batches is the
	// true mean commit batch size and MaxBatch its peak.
	Batches     uint64
	BatchFrames uint64
	MaxBatch    uint64
}

// Log is a single stream's write-ahead log: an append-only sequence of
// wire frames across rotated segment files. All methods are safe for
// concurrent use; appends from many receptor shards serialize on one
// mutex and share one group-commit window.
type Log struct {
	dir  string
	opts Options

	mu          sync.Mutex
	f           *os.File
	w           *bufWriter
	enc         []byte // reused frame-encode buffer
	seq         uint64 // sequence number of the next frame
	ckpt        uint64
	segSize     int64
	pending     int    // record bytes since the last sync
	batchFrames uint64 // frames since the last sync (group-commit batch)
	stats       Stats
	crashed     bool
	closed      bool
	failed      error // first sync failure; poisons the log

	stop chan struct{}
	done chan struct{}
}

// bufWriter is a tiny bufio.Writer replacement whose buffer we can drop on
// a simulated crash: exactly the bytes a real process death would lose.
type bufWriter struct {
	f   *os.File
	buf []byte
}

func (b *bufWriter) write(p []byte) {
	b.buf = append(b.buf, p...)
}

func (b *bufWriter) writeByte(c byte) {
	b.buf = append(b.buf, c)
}

func (b *bufWriter) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// Open opens (creating if needed) the write-ahead log in dir, scanning
// every segment, verifying frame CRCs, deleting a headless tail segment
// and truncating a torn tail so the log ends at its last intact record.
func Open(dir string, opts Options) (*Log, *OpenInfo, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	d, err := scanDir(dir, ^uint64(0), nil)
	if err != nil {
		return nil, nil, err
	}
	info := &OpenInfo{
		Segments:   len(d.segs),
		Frames:     d.frames,
		LastSeq:    d.lastSeq(),
		Checkpoint: d.ckpt,
	}
	// Repair the tail: a headless final segment carries nothing and is
	// removed; a torn final segment is truncated to its last intact record.
	if n := len(d.segs); n > 0 {
		s := &d.segs[n-1]
		if s.headless {
			if err := os.Remove(s.path); err != nil {
				return nil, nil, fmt.Errorf("wal: removing headless segment: %w", err)
			}
			info.RemovedSegments++
			info.TruncatedBytes += s.size
			info.Segments--
			d.segs = d.segs[:n-1]
		} else if s.size > s.validEnd {
			if err := os.Truncate(s.path, s.validEnd); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			info.TruncatedBytes += s.size - s.validEnd
		}
	}

	l := &Log{
		dir:  dir,
		opts: opts,
		seq:  d.nextSeq,
		ckpt: d.ckpt,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if n := len(d.segs); n > 0 {
		s := &d.segs[n-1]
		f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		l.f = f
		l.segSize = s.validEnd
	} else {
		if err := l.newSegmentLocked(); err != nil {
			return nil, nil, err
		}
	}
	l.w = &bufWriter{f: l.f, buf: make([]byte, 0, 256<<10)}
	go l.syncLoop()
	return l, info, nil
}

// newSegmentLocked creates the segment whose first frame will be l.seq and
// makes it current. The header goes straight to the file so a fresh
// segment is never headless unless the creating write itself tore.
func (l *Log) newSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var head [segHeaderSize]byte
	copy(head[:4], segMagic[:])
	head[4] = segVersion
	binary.LittleEndian.PutUint64(head[8:], l.seq)
	if _, err := f.Write(head[:]); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSize = segHeaderSize
	if l.w != nil {
		l.w.f = f
	}
	return nil
}

func (l *Log) stateErrLocked() error {
	switch {
	case l.crashed:
		return ErrCrashed
	case l.closed:
		return ErrClosed
	case l.failed != nil:
		return fmt.Errorf("wal: log failed: %w", l.failed)
	}
	return nil
}

// LogBatch encodes rel (user columns, schema order) as one wire frame and
// appends it, returning the frame's sequence number. The frame is durable
// after the next group commit, not on return. The encode buffer is reused,
// so steady-state appends stay allocation-free.
func (l *Log) LogBatch(rel *bat.Relation) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stateErrLocked(); err != nil {
		return 0, err
	}
	enc, err := ingest.AppendFrame(l.enc[:0], rel)
	if err != nil {
		return 0, err
	}
	l.enc = enc

	switch act, ferr := faultpoint.Check(FaultAppend); act {
	case faultpoint.Err:
		return 0, ferr
	case faultpoint.Short:
		// Tear the record on disk: persist the kind byte plus half the
		// frame, fsync so the torn prefix genuinely survives, then die.
		l.w.flush()
		l.f.Write(append([]byte{kindFrame}, enc[:len(enc)/2]...))
		l.f.Sync()
		l.crashLocked()
		return 0, ErrCrashed
	case faultpoint.Crash:
		l.crashLocked()
		return 0, ErrCrashed
	}

	recLen := 1 + len(enc)
	if l.segSize+int64(recLen) > int64(l.opts.SegmentBytes) && l.segSize > segHeaderSize {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	l.w.writeByte(kindFrame)
	l.w.write(enc)
	seq := l.seq
	l.seq++
	l.segSize += int64(recLen)
	l.pending += recLen
	l.stats.Frames++
	l.stats.Bytes += uint64(recLen)
	l.batchFrames++
	if l.pending >= l.opts.SyncBytes {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// rotateLocked seals the current segment (flush + fsync) and starts the
// next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	if err := l.newSegmentLocked(); err != nil {
		return err
	}
	l.stats.Rotations++
	return nil
}

// syncLocked is one group commit: flush buffered records and fsync.
func (l *Log) syncLocked() error {
	switch act, ferr := faultpoint.Check(FaultSync); act {
	case faultpoint.Err:
		l.failed = ferr
		return fmt.Errorf("wal: log failed: %w", ferr)
	case faultpoint.Crash, faultpoint.Short:
		l.crashLocked()
		return ErrCrashed
	}
	if err := l.w.flush(); err != nil {
		l.failed = err
		return fmt.Errorf("wal: log failed: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.failed = err
		return fmt.Errorf("wal: log failed: %w", err)
	}
	l.pending = 0
	l.stats.Syncs++
	if l.batchFrames > 0 {
		l.stats.Batches++
		l.stats.BatchFrames += l.batchFrames
		if l.batchFrames > l.stats.MaxBatch {
			l.stats.MaxBatch = l.batchFrames
		}
		l.batchFrames = 0
	}
	if act, _ := faultpoint.Check(FaultSynced); act == faultpoint.Crash || act == faultpoint.Short {
		l.crashLocked()
		return ErrCrashed
	}
	return nil
}

// crashLocked simulates abrupt process death at this point: if a real
// crash function is installed (subprocess tests exit here) it never
// returns; otherwise buffered-unflushed records are dropped — what the
// kernel never saw — the file is closed, and the log refuses further use.
func (l *Log) crashLocked() {
	if faultpoint.CrashNow() {
		return // unreachable when the crash fn exits the process
	}
	l.crashed = true
	l.w.buf = l.w.buf[:0]
	if l.f != nil {
		l.f.Close()
	}
}

// syncLoop is the group-commit metronome.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.pending > 0 && l.stateErrLocked() == nil {
				l.syncLocked() //nolint:errcheck // poisons l.failed; next append surfaces it
			}
			l.mu.Unlock()
		}
	}
}

// Sync forces a group commit now.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stateErrLocked(); err != nil {
		return err
	}
	return l.syncLocked()
}

// WriteCheckpoint durably records that every frame up to sequence number
// upTo (clamped to LastSeq) has been consumed by the kernel, so recovery
// replays only frames after it. It is a no-op when upTo is not past the
// last checkpoint.
func (l *Log) WriteCheckpoint(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stateErrLocked(); err != nil {
		return err
	}
	seq := min(upTo, l.seq-1)
	if seq <= l.ckpt {
		return nil
	}
	var rec [13]byte
	rec[0] = kindCheckpoint
	binary.LittleEndian.PutUint64(rec[1:], seq)
	binary.LittleEndian.PutUint32(rec[9:], crc32.ChecksumIEEE(rec[1:9]))
	l.w.write(rec[:])
	l.segSize += int64(len(rec))
	l.pending += len(rec)
	if err := l.syncLocked(); err != nil {
		return err
	}
	l.ckpt = seq
	return nil
}

// Tail replays every intact frame with sequence number greater than from,
// in order. Callers recovering a stream pass max(Checkpoint, already
// replayed); passing Checkpoint() replays exactly the un-checkpointed
// tail. Pending records are flushed first so the scan sees them.
func (l *Log) Tail(from uint64, emit func(seq uint64, frame []byte) error) error {
	l.mu.Lock()
	if !l.crashed && !l.closed {
		if err := l.w.flush(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	l.mu.Unlock()
	_, err := Scan(l.dir, from, emit)
	return err
}

// LastSeq returns the sequence number of the most recently appended frame
// (0 when the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq - 1
}

// Checkpoint returns the highest checkpointed sequence number.
func (l *Log) Checkpoint() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckpt
}

// Stats returns cumulative counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Prune deletes whole segments every frame of which has sequence number
// ≤ upTo, never touching the current segment. History readers
// (LineSource) lose access to pruned frames, so the engine does not prune
// automatically; it is an operator decision.
func (l *Log) Prune(upTo uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	names, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(names); i++ {
		// A segment is fully covered when the next segment starts at or
		// below upTo+1 (frame seqs are contiguous across segments).
		nextFirst, perr := parseSegName(names[i+1])
		if perr != nil || nextFirst > upTo+1 {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, names[i])); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

func parseSegName(name string) (uint64, error) {
	var seq uint64
	_, err := fmt.Sscanf(name, "%016x"+segSuffix, &seq)
	return seq, err
}

// Crash simulates abrupt process death from outside (Engine.Kill):
// buffered records are dropped, the file closes, and every subsequent
// operation returns ErrCrashed. Unlike a faultpoint-triggered crash it
// never invokes the installed crash function — the caller is simulating,
// not dying.
func (l *Log) Crash() {
	l.mu.Lock()
	if !l.crashed {
		l.crashed = true
		l.w.buf = l.w.buf[:0]
		if l.f != nil {
			l.f.Close()
		}
	}
	l.mu.Unlock()
	l.stopSyncLoop()
}

// Close flushes and fsyncs pending records and closes the log. A crashed
// log closes without touching the file again.
func (l *Log) Close() error {
	l.stopSyncLoop()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.crashed {
		return nil
	}
	var err error
	if l.failed == nil {
		err = l.syncLockedIgnoringClosed()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncLockedIgnoringClosed lets Close run the final sync after setting
// l.closed (syncLocked itself has no state check, but keep the intent
// explicit at the call site).
func (l *Log) syncLockedIgnoringClosed() error { return l.syncLocked() }

func (l *Log) stopSyncLoop() {
	l.mu.Lock()
	select {
	case <-l.stop:
		l.mu.Unlock()
		return
	default:
		close(l.stop)
	}
	l.mu.Unlock()
	<-l.done
}

// Compile-time check: *Log satisfies the receptor tee interface.
var _ interface {
	LogBatch(rel *bat.Relation) (uint64, error)
} = (*Log)(nil)
