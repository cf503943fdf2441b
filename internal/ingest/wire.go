// Package ingest is the DataCell's sharded ingest periphery: a binary
// batch wire protocol for stream tuples and receptor groups that accept
// many connections over many listener sockets, decode independently,
// route decoded batches straight to their destination partition baskets
// and push back on the socket when the kernel falls behind.
//
// The paper's Figure 4 shows the receptor-to-kernel communication
// pipeline dominating end-to-end cost long before the kernel saturates;
// this package attacks both halves of that cost: the textual
// tuple-at-a-time protocol is replaced by length-prefixed columnar frames
// (decoded with the kernel's zero-alloc buffer discipline), and the
// single receptor thread is replaced by a shard group whose members feed
// partition baskets concurrently. The textual format remains a
// first-class citizen: the first bytes of every connection are sniffed,
// so legacy sensors keep working against the same socket.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// Frame layout (all integers little-endian):
//
//	offset 0   magic  0xD7 0xC3   (outside the textual format's alphabet)
//	offset 2   version            (currently 1)
//	offset 3   ncols              (user columns, uint8)
//	offset 4   payload length     (uint32, bytes of the columnar payload)
//	offset 8   payload CRC-32     (uint32, IEEE, over the payload bytes)
//	offset 12  payload:
//	           ncols column type bytes (vector.Type)
//	           tuple count (uint32)
//	           per column, in schema order, the column's values:
//	             int/timestamp  8-byte two's complement per value
//	             float          8-byte IEEE 754 bits per value
//	             bool           1 byte per value (0 or 1)
//	             string         uint32 byte length + UTF-8 bytes per value
//
// The header carries enough to skip a frame without decoding it; the
// payload carries enough to validate it against the stream schema.
const (
	magic0       = 0xD7
	magic1       = 0xC3
	wireVersion  = 1
	headerSize   = 12
	maxPayload   = 1 << 26 // 64 MiB; anything larger is a corrupt length
	maxWireCols  = 255
	maxStringLen = 1 << 24 // 16 MiB per string value
)

// Wire protocol errors. Decoders wrap them with position detail; use
// errors.Is to classify.
var (
	ErrBadMagic   = errors.New("ingest: bad frame magic")
	ErrBadVersion = errors.New("ingest: unsupported wire version")
	ErrBadCRC     = errors.New("ingest: frame CRC mismatch")
	ErrTruncated  = errors.New("ingest: truncated frame")
	ErrSchema     = errors.New("ingest: frame schema mismatch")
)

// AppendFrame encodes rel (user columns only, schema order) as one binary
// frame appended to buf, returning the extended buffer. It allocates only
// when buf lacks capacity, so a reused buffer makes steady-state encoding
// allocation-free.
func AppendFrame(buf []byte, rel *bat.Relation) ([]byte, error) {
	ncols := rel.NumCols()
	if ncols == 0 || ncols > maxWireCols {
		return buf, fmt.Errorf("ingest: cannot encode %d columns", ncols)
	}
	n := rel.Len()
	head := len(buf)
	buf = append(buf, magic0, magic1, wireVersion, byte(ncols))
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // payload length + CRC, patched below
	payloadStart := len(buf)
	for i := 0; i < ncols; i++ {
		buf = append(buf, byte(rel.Col(i).Kind()))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < ncols; i++ {
		col := rel.Col(i)
		switch col.Kind() {
		case vector.Int, vector.Timestamp:
			for _, v := range col.Ints()[:n] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		case vector.Float:
			for _, f := range col.Floats()[:n] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
		case vector.Bool:
			for _, b := range col.Bools()[:n] {
				if b {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		case vector.Str:
			for _, s := range col.Strs()[:n] {
				if len(s) > maxStringLen {
					return buf[:head], fmt.Errorf("ingest: string value of %d bytes exceeds wire limit", len(s))
				}
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
				buf = append(buf, s...)
			}
		default:
			return buf[:head], fmt.Errorf("ingest: cannot encode column type %v", col.Kind())
		}
	}
	payload := buf[payloadStart:]
	if len(payload) > maxPayload {
		return buf[:head], fmt.Errorf("ingest: frame payload of %d bytes exceeds wire limit", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[head+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[head+8:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// FrameWriter encodes relations as binary frames onto an io.Writer,
// reusing one encode buffer across frames.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a frame writer on w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteRelation encodes rel as one frame and writes it.
func (fw *FrameWriter) WriteRelation(rel *bat.Relation) error {
	buf, err := AppendFrame(fw.buf[:0], rel)
	if err != nil {
		return err
	}
	fw.buf = buf
	_, err = fw.w.Write(buf)
	return err
}

// BatchWriter accumulates rows of a fixed schema and flushes them as
// binary frames of up to batch tuples: the sensor-side producer of the
// wire protocol (lrgen replay, examples, benchmarks).
type BatchWriter struct {
	fw    *FrameWriter
	rel   *bat.Relation
	types []vector.Type
	batch int
}

// NewBatchWriter returns a batch writer of the given schema flushing
// frames of `batch` tuples (minimum 1) to w.
func NewBatchWriter(w io.Writer, names []string, types []vector.Type, batch int) *BatchWriter {
	if batch < 1 {
		batch = 1
	}
	return &BatchWriter{
		fw:    NewFrameWriter(w),
		rel:   bat.NewEmptyRelation(names, types),
		types: append([]vector.Type(nil), types...),
		batch: batch,
	}
}

// WriteRow appends one tuple; a full batch is flushed as a frame.
func (bw *BatchWriter) WriteRow(vals ...vector.Value) error {
	if len(vals) != len(bw.types) {
		return fmt.Errorf("ingest: row has %d values, want %d", len(vals), len(bw.types))
	}
	bw.rel.AppendRow(vals...)
	if bw.rel.Len() >= bw.batch {
		return bw.Flush()
	}
	return nil
}

// Flush writes the pending tuples (if any) as one frame.
func (bw *BatchWriter) Flush() error {
	if bw.rel.Len() == 0 {
		return nil
	}
	err := bw.fw.WriteRelation(bw.rel)
	bw.rel.Clear()
	return err
}

// FrameReader decodes binary frames from a connection, validating every
// frame against the expected stream schema. The payload buffer is reused
// across frames, so steady-state decoding allocates only for string
// values (which must outlive the buffer).
type FrameReader struct {
	r     *bufio.Reader
	types []vector.Type
	head  [headerSize]byte
	buf   []byte
	offs  []int
}

// NewFrameReader returns a frame reader expecting the given user-column
// types.
func NewFrameReader(r *bufio.Reader, types []vector.Type) *FrameReader {
	return &FrameReader{r: r, types: append([]vector.Type(nil), types...)}
}

// DecodeFrameInto reads and validates one frame, appending its tuples to
// the columns of rel (whose schema must match the reader's types) —
// the binary sibling of stream.DecodeRowInto. It returns the number of
// tuples appended. A frame is validated in full (magic, version, schema,
// CRC, exact payload consumption) before anything is appended, so a bad
// frame leaves rel untouched. io.EOF is returned only at a clean frame
// boundary; a partial frame yields ErrTruncated.
func (fr *FrameReader) DecodeFrameInto(rel *bat.Relation) (int, error) {
	if _, err := io.ReadFull(fr.r, fr.head[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if fr.head[0] != magic0 || fr.head[1] != magic1 {
		return 0, fmt.Errorf("%w: 0x%02x%02x", ErrBadMagic, fr.head[0], fr.head[1])
	}
	if fr.head[2] != wireVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, fr.head[2])
	}
	ncols := int(fr.head[3])
	if ncols != len(fr.types) {
		return 0, fmt.Errorf("%w: frame has %d columns, stream has %d", ErrSchema, ncols, len(fr.types))
	}
	plen := int(binary.LittleEndian.Uint32(fr.head[4:]))
	wantCRC := binary.LittleEndian.Uint32(fr.head[8:])
	if plen < ncols+4 || plen > maxPayload {
		return 0, fmt.Errorf("%w: payload length %d", ErrTruncated, plen)
	}
	if cap(fr.buf) < plen {
		fr.buf = make([]byte, plen)
	}
	payload := fr.buf[:plen]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return 0, fmt.Errorf("%w: got 0x%08x, want 0x%08x", ErrBadCRC, got, wantCRC)
	}
	for i := 0; i < ncols; i++ {
		if vector.Type(payload[i]) != fr.types[i] {
			return 0, fmt.Errorf("%w: column %d is %v on the wire, %v in the stream",
				ErrSchema, i, vector.Type(payload[i]), fr.types[i])
		}
	}
	n := int(binary.LittleEndian.Uint32(payload[ncols:]))
	body := payload[ncols+4:]
	// Validate the whole payload before appending anything: column extents
	// are computed first, so a short or oversized body rejects cleanly.
	fr.offs = append(fr.offs[:0], 0)
	at := 0
	for i := 0; i < ncols; i++ {
		size, err := columnExtent(fr.types[i], body[at:], n)
		if err != nil {
			return 0, fmt.Errorf("column %d: %w", i, err)
		}
		at += size
		fr.offs = append(fr.offs, at)
	}
	if at != len(body) {
		return 0, fmt.Errorf("%w: %d trailing payload bytes", ErrSchema, len(body)-at)
	}
	for i := 0; i < ncols; i++ {
		decodeColumn(rel.Col(i), fr.types[i], body[fr.offs[i]:fr.offs[i+1]], n)
	}
	return n, nil
}

// columnExtent returns the byte size of one encoded column of n values,
// validating variable-length entries.
func columnExtent(t vector.Type, b []byte, n int) (int, error) {
	switch t {
	case vector.Int, vector.Timestamp, vector.Float:
		if len(b) < 8*n {
			return 0, fmt.Errorf("%w: fixed-width column", ErrTruncated)
		}
		return 8 * n, nil
	case vector.Bool:
		if len(b) < n {
			return 0, fmt.Errorf("%w: bool column", ErrTruncated)
		}
		return n, nil
	case vector.Str:
		at := 0
		for i := 0; i < n; i++ {
			if len(b)-at < 4 {
				return 0, fmt.Errorf("%w: string length", ErrTruncated)
			}
			l := int(binary.LittleEndian.Uint32(b[at:]))
			if l > maxStringLen {
				return 0, fmt.Errorf("%w: string of %d bytes", ErrSchema, l)
			}
			at += 4
			if len(b)-at < l {
				return 0, fmt.Errorf("%w: string body", ErrTruncated)
			}
			at += l
		}
		return at, nil
	}
	return 0, fmt.Errorf("%w: undecodable column type %v", ErrSchema, t)
}

// decodeColumn appends n values of a validated encoded column to v with
// typed appends — no boxing.
func decodeColumn(v *vector.Vector, t vector.Type, b []byte, n int) {
	switch t {
	case vector.Int, vector.Timestamp:
		for i := 0; i < n; i++ {
			v.AppendInt(int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
	case vector.Float:
		for i := 0; i < n; i++ {
			v.AppendFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	case vector.Bool:
		for i := 0; i < n; i++ {
			v.AppendBool(b[i] != 0)
		}
	case vector.Str:
		at := 0
		for i := 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(b[at:]))
			at += 4
			v.AppendStr(string(b[at : at+l]))
			at += l
		}
	}
}

// WireHeaderSize is the byte size of a binary frame header: enough to
// learn a frame's total extent without touching its payload.
const WireHeaderSize = headerSize

// FrameSize validates the magic, version and payload-length bounds of the
// frame whose first WireHeaderSize bytes are head, and returns the frame's
// total byte size (header + payload). It lets a log or relay carve whole
// frames out of a byte stream without decoding them.
func FrameSize(head []byte) (int, error) {
	if len(head) < headerSize {
		return 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(head))
	}
	if head[0] != magic0 || head[1] != magic1 {
		return 0, fmt.Errorf("%w: 0x%02x%02x", ErrBadMagic, head[0], head[1])
	}
	if head[2] != wireVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, head[2])
	}
	ncols := int(head[3])
	plen := int(binary.LittleEndian.Uint32(head[4:]))
	if plen < ncols+4 || plen > maxPayload {
		return 0, fmt.Errorf("%w: payload length %d", ErrTruncated, plen)
	}
	return headerSize + plen, nil
}

// VerifyFrame checks that frame holds exactly one structurally-valid frame
// whose payload matches its header CRC, without decoding any values. It is
// the integrity check WAL recovery runs over every logged record.
func VerifyFrame(frame []byte) error {
	size, err := FrameSize(frame)
	if err != nil {
		return err
	}
	if len(frame) != size {
		return fmt.Errorf("%w: %d bytes for a %d-byte frame", ErrTruncated, len(frame), size)
	}
	payload := frame[headerSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(frame[8:]); got != want {
		return fmt.Errorf("%w: got 0x%08x, want 0x%08x", ErrBadCRC, got, want)
	}
	return nil
}

// SniffBinary reports whether the connection speaks the binary frame
// protocol, by peeking at its first two bytes without consuming them. The
// magic bytes are outside the textual format's alphabet (tuples are
// UTF-8 lines), so a textual sensor can never be mistaken for a binary
// one. An empty connection (EOF before two bytes) sniffs as textual.
func SniffBinary(br *bufio.Reader) bool {
	b, err := br.Peek(2)
	if err != nil || len(b) < 2 {
		return false
	}
	return b[0] == magic0 && b[1] == magic1
}
