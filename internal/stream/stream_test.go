package stream

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/vector"
)

func twoColBasket(name string) *basket.Basket {
	return basket.New(name, []string{"ts", "v"}, []vector.Type{vector.Timestamp, vector.Int})
}

func TestCodecRoundTrip(t *testing.T) {
	types := []vector.Type{vector.Int, vector.Float, vector.Str, vector.Bool, vector.Timestamp}
	row := []vector.Value{
		vector.NewInt(-7), vector.NewFloat(2.5), vector.NewStr("hello"),
		vector.NewBool(true), vector.NewTimestampMicros(12345),
	}
	line := EncodeRow(row)
	got, err := DecodeRow(line+"\r\n", types)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !got[i].Equal(row[i]) {
			t.Errorf("field %d: %v != %v", i, got[i], row[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	types := []vector.Type{vector.Int, vector.Int}
	cases := []string{"", "1", "1|2|3", "a|2"}
	for _, c := range cases {
		if _, err := DecodeRow(c, types); err == nil {
			t.Errorf("DecodeRow(%q) should fail", c)
		}
	}
}

func TestEncodeRelation(t *testing.T) {
	rel := bat.NewRelation([]string{"a", "b"}, []*vector.Vector{
		vector.FromInts([]int64{1, 2}),
		vector.FromStrs([]string{"x", "y"}),
	})
	lines := EncodeRelation(rel, 0)
	if len(lines) != 2 || lines[0] != "1|x" || lines[1] != "2|y" {
		t.Errorf("lines: %v", lines)
	}
	lines = EncodeRelation(rel, 1)
	if lines[0] != "1" {
		t.Errorf("restricted: %v", lines)
	}
}

func TestReceptorValidatesAndBatches(t *testing.T) {
	b := twoColBasket("in")
	r := NewReceptor(b)
	r.BatchSize = 2
	input := "100|1\nmalformed\n200|2\n300|3\n"
	if err := r.Listen(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if r.Received() != 3 || r.Invalid() != 1 {
		t.Errorf("received=%d invalid=%d", r.Received(), r.Invalid())
	}
	if b.Len() != 3 {
		t.Errorf("basket = %d", b.Len())
	}
}

func TestEmitterDeliversToWriterAndCallback(t *testing.T) {
	b := twoColBasket("out")
	e := NewEmitter(b)
	var buf bytes.Buffer
	var mu sync.Mutex
	e.SubscribeWriter(&syncWriter{w: &buf, mu: &mu})
	var cbRows int
	e.Subscribe(func(rel *bat.Relation) {
		mu.Lock()
		cbRows += rel.Len()
		mu.Unlock()
	})
	e.Start()
	b.AppendRow(vector.NewTimestampMicros(1), vector.NewInt(10))
	b.AppendRow(vector.NewTimestampMicros(2), vector.NewInt(20))
	deadline := time.Now().Add(2 * time.Second)
	for e.Delivered() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	mu.Lock()
	defer mu.Unlock()
	if cbRows != 2 {
		t.Errorf("callback rows = %d", cbRows)
	}
	out := buf.String()
	if !strings.Contains(out, "1|10") || !strings.Contains(out, "2|20") {
		t.Errorf("writer output: %q", out)
	}
	// Only user columns are emitted, not the implicit arrival timestamp.
	if strings.Count(strings.TrimSpace(strings.Split(out, "\n")[0]), FieldSep) != 1 {
		t.Errorf("emitted extra columns: %q", out)
	}
}

type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestTCPPipelineSensorToActuator(t *testing.T) {
	// Full periphery: sensor --TCP--> receptor basket == emitter --TCP--> actuator.
	b := twoColBasket("pipe")
	tr, err := ListenTCP("127.0.0.1:0", NewReceptor(b))
	if err != nil {
		t.Fatal(err)
	}
	te, err := ServeTCP("127.0.0.1:0", NewEmitter(b))
	if err != nil {
		t.Fatal(err)
	}
	// Actuator connects first so it sees everything.
	actuator, err := net.Dial("tcp", te.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer actuator.Close()
	time.Sleep(10 * time.Millisecond) // allow subscription
	te.Emitter.Start()

	sensor, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			fmt.Fprintf(sensor, "%d|%d\n", time.Now().UnixMicro(), i)
		}
		sensor.Close()
	}()

	got := 0
	actuator.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	var acc []byte
	for got < n {
		m, err := actuator.Read(buf)
		if err != nil {
			t.Fatalf("actuator read after %d tuples: %v", got, err)
		}
		acc = append(acc, buf[:m]...)
		got = bytes.Count(acc, []byte{'\n'})
	}
	if got != n {
		t.Errorf("delivered %d, want %d", got, n)
	}
	tr.Close()
	te.Close()
}

// replayTo copies trace to w through rp, one line per emitted tuple.
func replayTo(rp *Replayer, trace string, w *bytes.Buffer) error {
	return rp.ReplayFunc(strings.NewReader(trace), func(line string) error {
		w.WriteString(line)
		return w.WriteByte('\n')
	}, nil)
}

func TestReplayerPacing(t *testing.T) {
	trace := "0|a\n0|b\n2|c\n5|d\n"
	var slept []time.Duration
	rp := NewReplayer(0, 1)
	rp.Sleep = func(d time.Duration) { slept = append(slept, d) }
	var out bytes.Buffer
	if err := replayTo(rp, trace, &out); err != nil {
		t.Fatal(err)
	}
	if rp.Lines != 4 {
		t.Errorf("lines = %d", rp.Lines)
	}
	// Gaps: 0->2 (2s) and 2->5 (3s); same-timestamp tuples do not pause.
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 3*time.Second {
		t.Errorf("pauses: %v", slept)
	}
	if out.String() != trace {
		t.Errorf("output: %q", out.String())
	}
}

func TestReplayerSpeedupAndNoPacing(t *testing.T) {
	trace := "0|x\n10|y\n"
	var slept []time.Duration
	rp := NewReplayer(0, 5)
	rp.Sleep = func(d time.Duration) { slept = append(slept, d) }
	var out bytes.Buffer
	if err := replayTo(rp, trace, &out); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Errorf("speedup pauses: %v", slept)
	}
	// TimeCol -1 disables pacing entirely.
	slept = nil
	rp2 := NewReplayer(-1, 1)
	rp2.Sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := replayTo(rp2, trace, &out); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 0 {
		t.Errorf("unpaced replay slept: %v", slept)
	}
}

func TestFieldInt(t *testing.T) {
	if v, ok := fieldInt("1|22|333", 1); !ok || v != 22 {
		t.Errorf("field 1: %d %v", v, ok)
	}
	if v, ok := fieldInt("1|22|333", 2); !ok || v != 333 {
		t.Errorf("field 2: %d %v", v, ok)
	}
	if _, ok := fieldInt("1|x|3", 1); ok {
		t.Error("non-numeric field parsed")
	}
	if _, ok := fieldInt("1", 3); ok {
		t.Error("missing field parsed")
	}
}
