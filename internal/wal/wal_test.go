package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"datacell/internal/bat"
	"datacell/internal/faultpoint"
	"datacell/internal/ingest"
	"datacell/internal/vector"
)

var (
	testNames = []string{"k", "v"}
	testTypes = []vector.Type{vector.Int, vector.Int}
)

// manualSync are options that never sync in the background, so tests
// control exactly what is flushed and what a crash loses.
func manualSync() Options {
	return Options{SyncInterval: time.Hour, SyncBytes: 1 << 30}
}

func testRel(t *testing.T, rows ...[2]int64) *bat.Relation {
	t.Helper()
	rel := bat.NewEmptyRelation(testNames, testTypes)
	for _, r := range rows {
		rel.AppendRow(vector.NewInt(r[0]), vector.NewInt(r[1]))
	}
	return rel
}

func mustLog(t *testing.T, l *Log, rows ...[2]int64) uint64 {
	t.Helper()
	seq, err := l.LogBatch(testRel(t, rows...))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// collect replays the log from `from` and returns the decoded rows per
// frame sequence number.
func collect(t *testing.T, dir string, from uint64) (seqs []uint64, rows [][2]int64) {
	t.Helper()
	br := bufio.NewReader(nil)
	fr := ingest.NewFrameReader(br, testTypes)
	rel := bat.NewEmptyRelation(testNames, testTypes)
	_, err := Scan(dir, from, func(seq uint64, frame []byte) error {
		br.Reset(bytes.NewReader(frame))
		rel.Clear()
		if _, err := fr.DecodeFrameInto(rel); err != nil {
			return err
		}
		seqs = append(seqs, seq)
		for i := 0; i < rel.Len(); i++ {
			rows = append(rows, [2]int64{rel.Col(0).Ints()[i], rel.Col(1).Ints()[i]})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, rows
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	if info.Frames != 0 || info.LastSeq != 0 {
		t.Fatalf("fresh open info = %+v", info)
	}
	if seq := mustLog(t, l, [2]int64{1, 10}, [2]int64{2, 20}); seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	if seq := mustLog(t, l, [2]int64{3, 30}); seq != 2 {
		t.Fatalf("second seq = %d, want 2", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Frames != 2 || info.LastSeq != 2 || info.TruncatedBytes != 0 {
		t.Fatalf("reopen info = %+v", info)
	}
	if l2.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d", l2.LastSeq())
	}
	seqs, rows := collect(t, dir, 0)
	wantRows := [][2]int64{{1, 10}, {2, 20}, {3, 30}}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("seqs = %v", seqs)
	}
	for i, w := range wantRows {
		if rows[i] != w {
			t.Fatalf("rows = %v, want %v", rows, wantRows)
		}
	}
	// Appends after reopen continue the sequence.
	if seq := mustLog(t, l2, [2]int64{4, 40}); seq != 3 {
		t.Fatalf("post-reopen seq = %d, want 3", seq)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	mustLog(t, l, [2]int64{1, 10})
	mustLog(t, l, [2]int64{2, 20})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail by hand: append a frame record cut off mid-payload.
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	frame, err := ingest.AppendFrame(nil, testRel(t, [2]int64{9, 90}))
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte{kindFrame}, frame[:len(frame)-3]...)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()
	pre, _ := os.Stat(path)

	si, err := Scan(dir, 0, nil)
	if err != nil || !si.Torn || si.Frames != 2 {
		t.Fatalf("scan of torn log = %+v, %v", si, err)
	}

	l2, info, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Frames != 2 || info.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("repair info = %+v (torn %d bytes, pre-size %d)", info, len(torn), pre.Size())
	}
	if _, rows := collect(t, dir, 0); len(rows) != 2 {
		t.Fatalf("rows after repair = %v", rows)
	}
	// The repaired log accepts appends at the right seq.
	if seq := mustLog(t, l2, [2]int64{3, 30}); seq != 3 {
		t.Fatalf("post-repair seq = %d, want 3", seq)
	}
}

func TestHeadlessTailSegmentRemoved(t *testing.T) {
	for _, size := range []int{0, 7} { // empty file; partial header
		dir := t.TempDir()
		l, _, err := Open(dir, manualSync())
		if err != nil {
			t.Fatal(err)
		}
		mustLog(t, l, [2]int64{1, 10})
		l.Close()
		path := filepath.Join(dir, segName(99))
		if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, size), 0o644); err != nil {
			t.Fatal(err)
		}
		l2, info, err := Open(dir, manualSync())
		if err != nil {
			t.Fatalf("open with %d-byte headless segment: %v", size, err)
		}
		if info.RemovedSegments != 1 || info.Frames != 1 {
			t.Fatalf("info = %+v", info)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("headless segment still present")
		}
		l2.Close()
	}
}

func TestCheckpointBeyondLastFrameClamped(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	mustLog(t, l, [2]int64{1, 10})
	l.Close()
	// Hand-craft a checkpoint record claiming seq 99 was consumed.
	segs, _ := listSegments(dir)
	var rec [13]byte
	rec[0] = kindCheckpoint
	binary.LittleEndian.PutUint64(rec[1:], 99)
	binary.LittleEndian.PutUint32(rec[9:], crc32.ChecksumIEEE(rec[1:9]))
	f, _ := os.OpenFile(filepath.Join(dir, segs[0]), os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(rec[:])
	f.Close()

	l2, info, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Checkpoint != 1 {
		t.Fatalf("checkpoint = %d, want clamped to 1", info.Checkpoint)
	}
	replayed := 0
	if err := l2.Tail(l2.Checkpoint(), func(uint64, []byte) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("tail replayed %d frames past a full checkpoint", replayed)
	}
	// New frames after the clamped checkpoint do replay.
	mustLog(t, l2, [2]int64{2, 20})
	if err := l2.Tail(l2.Checkpoint(), func(uint64, []byte) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("new frame not replayed (%d)", replayed)
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	mustLog(t, l, [2]int64{1, 10})
	mustLog(t, l, [2]int64{2, 20})
	mustLog(t, l, [2]int64{3, 30})
	// A checkpoint bounded below LastSeq leaves the frames after it.
	if err := l.WriteCheckpoint(2); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, info, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Checkpoint != 2 || info.LastSeq != 3 {
		t.Fatalf("info = %+v", info)
	}
	var seqs []uint64
	if err := l2.Tail(l2.Checkpoint(), func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("tail seqs = %v, want [3]", seqs)
	}
	// A bound past LastSeq clamps to it; a checkpoint with nothing new, or
	// one below the last, is a durable no-op.
	if err := l2.WriteCheckpoint(99); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteCheckpoint(l2.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	if l2.Checkpoint() != 3 {
		t.Fatalf("checkpoint = %d, want 3", l2.Checkpoint())
	}
}

func TestSegmentRotationAndOrder(t *testing.T) {
	dir := t.TempDir()
	opts := manualSync()
	opts.SegmentBytes = 256 // rotate every few frames
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		mustLog(t, l, [2]int64{int64(i), int64(i * 10)})
	}
	if l.Stats().Rotations == 0 {
		t.Fatalf("no rotations with %d-byte segments", opts.SegmentBytes)
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("segments = %v", segs)
	}
	seqs, rows := collect(t, dir, 0)
	if len(seqs) != n {
		t.Fatalf("replayed %d frames, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs = %v", seqs)
		}
		if rows[i] != [2]int64{int64(i), int64(i * 10)} {
			t.Fatalf("row %d = %v", i, rows[i])
		}
	}
}

func TestCrashLosesBufferedKeepsSynced(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	mustLog(t, l, [2]int64{1, 10})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	mustLog(t, l, [2]int64{2, 20}) // buffered, never flushed
	l.Crash()
	if _, err := l.LogBatch(testRel(t, [2]int64{3, 30})); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append on crashed log = %v", err)
	}
	if err := l.WriteCheckpoint(l.LastSeq()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("checkpoint on crashed log = %v", err)
	}
	_, rows := collect(t, dir, 0)
	if len(rows) != 1 || rows[0] != [2]int64{1, 10} {
		t.Fatalf("durable rows = %v, want only the synced frame", rows)
	}
}

func TestFaultpointShortWriteRepaired(t *testing.T) {
	defer faultpoint.Clear()
	dir := t.TempDir()
	l, _, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	mustLog(t, l, [2]int64{1, 10})
	faultpoint.Inject(FaultAppend, faultpoint.Short, 0, nil)
	if _, err := l.LogBatch(testRel(t, [2]int64{2, 20})); !errors.Is(err, ErrCrashed) {
		t.Fatalf("short write = %v, want ErrCrashed", err)
	}
	si, err := Scan(dir, 0, nil)
	if err != nil || !si.Torn {
		t.Fatalf("expected a torn tail on disk, got %+v, %v", si, err)
	}
	l2, info, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Frames != 1 || info.TruncatedBytes == 0 {
		t.Fatalf("repair info = %+v", info)
	}
}

func TestFaultpointSyncErrorPoisonsLog(t *testing.T) {
	defer faultpoint.Clear()
	dir := t.TempDir()
	l, _, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustLog(t, l, [2]int64{1, 10})
	faultpoint.Inject(FaultSync, faultpoint.Err, 0, nil)
	if err := l.Sync(); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("sync = %v, want injected error", err)
	}
	if _, err := l.LogBatch(testRel(t, [2]int64{2, 20})); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("append after failed sync = %v, want the poisoning error", err)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	opts := manualSync()
	opts.SegmentBytes = 256
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 50; i++ {
		mustLog(t, l, [2]int64{int64(i), int64(i)})
	}
	l.Sync()
	before, _ := listSegments(dir)
	removed, err := l.Prune(25)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || removed >= len(before) {
		t.Fatalf("pruned %d of %d segments", removed, len(before))
	}
	// Everything after seq 25 must survive.
	seqs, _ := collect(t, dir, 25)
	if len(seqs) != 25 || seqs[len(seqs)-1] != 50 {
		t.Fatalf("post-prune tail seqs = %v", seqs)
	}
}

func TestLineSource(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, manualSync())
	if err != nil {
		t.Fatal(err)
	}
	mustLog(t, l, [2]int64{1, 10}, [2]int64{2, 20})
	mustLog(t, l, [2]int64{3, 30})
	l.Close()
	src := LineSource(dir, 0, testTypes)
	defer src.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(src); err != nil {
		t.Fatal(err)
	}
	want := "1|10\n2|20\n3|30\n"
	if buf.String() != want {
		t.Fatalf("lines = %q, want %q", buf.String(), want)
	}
	// from skips already-seen frames: frame 1 held the first two rows.
	src2 := LineSource(dir, 1, testTypes)
	defer src2.Close()
	buf.Reset()
	buf.ReadFrom(src2)
	if buf.String() != "3|30\n" {
		t.Fatalf("tail lines = %q", buf.String())
	}
}

func TestLogBatchAllocs(t *testing.T) {
	dir := t.TempDir()
	opts := manualSync() // no inline syncs during the measurement
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rel := testRel(t, [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30}, [2]int64{4, 40})
	// Warm the encode and record buffers.
	for i := 0; i < 8; i++ {
		if _, err := l.LogBatch(rel); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.LogBatch(rel); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("LogBatch allocates %.1f allocs/frame, budget is ≤1", allocs)
	}
}
