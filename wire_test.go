package datacell

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestWireWriterRoundTrip feeds one row of every column type through the
// public binary encoder to an ingest listener and checks the row a
// subscriber receives.
func TestWireWriterRoundTrip(t *testing.T) {
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(`create basket s (v int, f float, b bool, s string, t timestamp)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v, t.f, t.b, t.s, t.t from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []Row
	if _, err := eng.SubscribeQuery("q", SubscribeOptions{OnEmit: func(em Emit) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range em.Table.Rows {
			got = append(got, append(Row(nil), r...))
		}
	}}); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ww, err := NewWireWriter(conn, []string{"v", "f", "b", "s", "t"},
		[]string{"int", "float", "bool", "string", "timestamp"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.UnixMicro(1_700_000_000_123_456)
	rows := []Row{
		{int64(-7), 2.5, true, "a|b", ts},
		{3, int64(4), false, "", ts.Add(time.Second)},
	}
	for _, r := range rows {
		if err := ww.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{int64(-7), 2.5, true, "a|b", ts},
		{int64(3), 4.0, false, "", ts.Add(time.Second)},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= len(want) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestWireWriterErrors covers the encoder's three refusals: a schema whose
// column and type counts differ, an unknown type name, and a row of the
// wrong arity.
func TestWireWriterErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWireWriter(&buf, []string{"a", "b"}, []string{"int"}, 4); err == nil {
		t.Error("column/type count mismatch accepted")
	}
	if _, err := NewWireWriter(&buf, []string{"a"}, []string{"blob"}, 4); err == nil {
		t.Error("unknown type name accepted")
	}
	ww, err := NewWireWriter(&buf, []string{"a", "b"}, []string{"int", "string"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ww.WriteRow(Row{1}); err == nil {
		t.Error("short row accepted")
	}
	if err := ww.WriteRow(Row{1, "x", 2}); err == nil {
		t.Error("long row accepted")
	}
	if err := ww.Flush(); err != nil || buf.Len() != 0 {
		t.Errorf("refused rows reached the wire: %d bytes, err %v", buf.Len(), err)
	}
}
