package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/stream"
	"datacell/internal/vector"
)

// allTypesRelation builds a relation covering every wire-encodable column
// type, including values that stress the encodings (negative ints, -0.0,
// empty strings, pipes inside strings would break the textual format so
// they stay out of the equivalence test but not this one).
func allTypesRelation(withPipes bool) *bat.Relation {
	names := []string{"i", "f", "b", "s", "ts"}
	types := []vector.Type{vector.Int, vector.Float, vector.Bool, vector.Str, vector.Timestamp}
	rel := bat.NewEmptyRelation(names, types)
	strs := []string{"", "hello", "übergröße", "multi word value"}
	if withPipes {
		strs = append(strs, "a|b|c")
	}
	ints := []int64{0, -1, 1 << 40, -(1 << 40), 42}
	floats := []float64{0, -0.0, 3.14159, -2.5e300, 1e-9}
	for i := 0; i < 64; i++ {
		rel.AppendRow(
			vector.NewInt(ints[i%len(ints)]),
			vector.NewFloat(floats[i%len(floats)]),
			vector.NewBool(i%3 == 0),
			vector.NewStr(strs[i%len(strs)]),
			vector.NewTimestampMicros(int64(1700000000000000+i)),
		)
	}
	return rel
}

func relationsEqual(t *testing.T, a, b *bat.Relation) {
	t.Helper()
	if a.Len() != b.Len() || a.NumCols() != b.NumCols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.Len(), a.NumCols(), b.Len(), b.NumCols())
	}
	for r := 0; r < a.Len(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			if a.Col(c).Get(r) != b.Col(c).Get(r) {
				t.Fatalf("value mismatch at row %d col %d: %v vs %v", r, c, a.Col(c).Get(r), b.Col(c).Get(r))
			}
		}
	}
}

func TestFrameRoundTripAllTypes(t *testing.T) {
	src := allTypesRelation(true)
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteRelation(src); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bufio.NewReader(&buf), src.Types())
	got := bat.NewEmptyRelation(src.Names(), src.Types())
	n, err := fr.DecodeFrameInto(got)
	if err != nil {
		t.Fatal(err)
	}
	if n != src.Len() {
		t.Fatalf("decoded %d tuples, want %d", n, src.Len())
	}
	relationsEqual(t, src, got)
	if _, err := fr.DecodeFrameInto(got); err != io.EOF {
		t.Fatalf("want clean EOF at frame boundary, got %v", err)
	}
}

// TestFrameMatchesTextualCodec pins wire-level equivalence: the same
// tuples shipped through the binary frame codec and through the textual
// line codec decode to identical relations, over every column type.
func TestFrameMatchesTextualCodec(t *testing.T) {
	src := allTypesRelation(false) // '|' inside strings is a textual-format limitation
	types := src.Types()

	// Binary path.
	var bbuf bytes.Buffer
	if err := NewFrameWriter(&bbuf).WriteRelation(src); err != nil {
		t.Fatal(err)
	}
	binRel := bat.NewEmptyRelation(src.Names(), types)
	if _, err := NewFrameReader(bufio.NewReader(&bbuf), types).DecodeFrameInto(binRel); err != nil {
		t.Fatal(err)
	}

	// Textual path.
	txtRel := bat.NewEmptyRelation(src.Names(), types)
	for _, line := range stream.EncodeRelation(src, 0) {
		if err := stream.DecodeRowInto(line, types, txtRel); err != nil {
			t.Fatalf("textual decode of %q: %v", line, err)
		}
	}

	relationsEqual(t, binRel, txtRel)
	relationsEqual(t, src, binRel)
}

func TestFrameMultipleFramesAccumulate(t *testing.T) {
	src := allTypesRelation(true)
	var buf bytes.Buffer
	bw := NewBatchWriter(&buf, src.Names(), src.Types(), 10)
	for i := 0; i < src.Len(); i++ {
		if err := bw.WriteRow(src.Row(i)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bufio.NewReader(&buf), src.Types())
	got := bat.NewEmptyRelation(src.Names(), src.Types())
	total, frames := 0, 0
	for {
		n, err := fr.DecodeFrameInto(got)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += n
		frames++
	}
	if total != src.Len() {
		t.Fatalf("decoded %d tuples over %d frames, want %d", total, frames, src.Len())
	}
	if want := (src.Len() + 9) / 10; frames != want {
		t.Fatalf("decoded %d frames, want %d", frames, want)
	}
	relationsEqual(t, src, got)
}

// corruptFrame encodes src and returns the wire bytes for mutation tests.
func corruptFrame(t *testing.T, src *bat.Relation) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func decodeBytes(t *testing.T, b []byte, src *bat.Relation) (int, *bat.Relation, error) {
	t.Helper()
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(b)), src.Types())
	rel := bat.NewEmptyRelation(src.Names(), src.Types())
	n, err := fr.DecodeFrameInto(rel)
	return n, rel, err
}

func TestFrameRejectsBadCRC(t *testing.T) {
	src := allTypesRelation(true)
	wire := corruptFrame(t, src)
	wire[len(wire)-1] ^= 0xFF // flip a payload byte; header CRC now disagrees
	_, rel, err := decodeBytes(t, wire, src)
	if !errors.Is(err, ErrBadCRC) {
		t.Fatalf("want ErrBadCRC, got %v", err)
	}
	if rel.Len() != 0 {
		t.Fatalf("bad frame appended %d tuples; must leave the relation untouched", rel.Len())
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	src := allTypesRelation(true)
	wire := corruptFrame(t, src)
	for _, cut := range []int{1, headerSize - 1, headerSize + 3, len(wire) / 2, len(wire) - 1} {
		_, rel, err := decodeBytes(t, wire[:cut], src)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: want ErrTruncated, got %v", cut, err)
		}
		if rel.Len() != 0 {
			t.Fatalf("cut at %d appended %d tuples", cut, rel.Len())
		}
	}
}

func TestFrameRejectsBadMagicAndVersion(t *testing.T) {
	src := allTypesRelation(true)
	wire := corruptFrame(t, src)

	bad := append([]byte(nil), wire...)
	bad[0] = 'x'
	if _, _, err := decodeBytes(t, bad, src); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[2] = 99
	if _, _, err := decodeBytes(t, bad, src); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
}

func TestFrameRejectsSchemaMismatch(t *testing.T) {
	src := allTypesRelation(true)
	wire := corruptFrame(t, src)

	// Wrong column count on the reader side.
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(wire)), []vector.Type{vector.Int})
	rel := bat.NewEmptyRelation([]string{"i"}, []vector.Type{vector.Int})
	if _, err := fr.DecodeFrameInto(rel); !errors.Is(err, ErrSchema) {
		t.Fatalf("want ErrSchema for column count, got %v", err)
	}

	// Wrong column type on the reader side.
	types := src.Types()
	types[0] = vector.Str
	fr = NewFrameReader(bufio.NewReader(bytes.NewReader(wire)), types)
	rel = bat.NewEmptyRelation(src.Names(), types)
	if _, err := fr.DecodeFrameInto(rel); !errors.Is(err, ErrSchema) {
		t.Fatalf("want ErrSchema for column type, got %v", err)
	}
}

func TestSniffBinary(t *testing.T) {
	src := allTypesRelation(true)
	wire := corruptFrame(t, src)
	if !SniffBinary(bufio.NewReader(bytes.NewReader(wire))) {
		t.Fatal("binary frame did not sniff as binary")
	}
	for _, text := range []string{"", "1|2.5|true|x|3\n", "héllo|1\n"} {
		if SniffBinary(bufio.NewReader(strings.NewReader(text))) {
			t.Fatalf("textual input %q sniffed as binary", text)
		}
	}
	// Sniffing must not consume: the reader still decodes the full frame.
	br := bufio.NewReader(bytes.NewReader(wire))
	if !SniffBinary(br) {
		t.Fatal("sniff failed")
	}
	fr := NewFrameReader(br, src.Types())
	rel := bat.NewEmptyRelation(src.Names(), src.Types())
	if n, err := fr.DecodeFrameInto(rel); err != nil || n != src.Len() {
		t.Fatalf("decode after sniff: n=%d err=%v", n, err)
	}
}

func TestDecodeFrameIntoSteadyStateAllocs(t *testing.T) {
	// Fixed-width columns only: string values intrinsically allocate.
	names := []string{"a", "b"}
	types := []vector.Type{vector.Int, vector.Float}
	src := bat.NewEmptyRelation(names, types)
	for i := 0; i < 256; i++ {
		src.AppendRow(vector.NewInt(int64(i)), vector.NewFloat(float64(i)*0.5))
	}
	wire, err := AppendFrame(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	many := bytes.Repeat(wire, 50)
	br := bufio.NewReader(bytes.NewReader(many))
	fr := NewFrameReader(br, types)
	rel := bat.NewEmptyRelation(names, types)
	// Warm up buffers and column capacity.
	if _, err := fr.DecodeFrameInto(rel); err != nil {
		t.Fatal(err)
	}
	rel.Clear()
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := fr.DecodeFrameInto(rel); err != nil {
			t.Fatal(err)
		}
		rel.Clear()
	})
	if allocs > 1 {
		t.Fatalf("DecodeFrameInto allocates %.1f per frame at steady state, want <= 1", allocs)
	}
}
