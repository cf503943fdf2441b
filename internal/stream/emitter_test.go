package stream

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// TestEmitterPingPongDeliversConsecutiveBatches drives three batches of
// different sizes through one emitter, one at a time, so each drain hands
// the previously delivered relation back to the basket. Both client kinds
// must see every row once, in order, and the basket's accounting must be
// what a TakeAll drain of the same batches produces.
func TestEmitterPingPongDeliversConsecutiveBatches(t *testing.T) {
	sizes := []int{300, 5, 1000}
	b := twoColBasket("out")
	ref := twoColBasket("ref")
	e := NewEmitter(b)
	var buf bytes.Buffer
	var mu sync.Mutex
	e.SubscribeWriter(&syncWriter{w: &buf, mu: &mu})
	var seen []int64
	var rels []*bat.Relation
	e.Subscribe(func(rel *bat.Relation) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, rel.Col(1).Ints()...)
		rels = append(rels, rel)
	})
	e.Start()
	defer e.Stop()

	next, total := int64(0), int64(0)
	for _, n := range sizes {
		ts, vs := make([]int64, n), make([]int64, n)
		for i := range vs {
			ts[i], vs[i] = next, next
			next++
		}
		batch := bat.NewRelation([]string{"ts", "v"}, []*vector.Vector{vector.FromTimestamps(ts), vector.FromInts(vs)})
		if _, err := b.Append(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Append(batch); err != nil {
			t.Fatal(err)
		}
		ref.TakeAll()
		total += int64(n)
		deadline := time.Now().Add(5 * time.Second)
		for e.Delivered() < total {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d", e.Delivered(), total)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if got := e.Delivered(); got != 1305 {
		t.Errorf("Delivered() = %d, want 1305", got)
	}
	if got, want := b.Stats(), ref.Stats(); got != want {
		t.Errorf("basket stats %+v, TakeAll reference %+v", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rels) != len(sizes) {
		t.Fatalf("callback saw %d batches, want %d", len(rels), len(sizes))
	}
	// The first delivered relation returned to the basket and came back as
	// the third: the emitter ping-pongs two relations.
	if rels[2] != rels[0] || rels[1] == rels[0] {
		t.Errorf("relations do not alternate: %p %p %p", rels[0], rels[1], rels[2])
	}
	var want strings.Builder
	for i := range seen {
		if seen[i] != int64(i) {
			t.Fatalf("callback row %d carries %d", i, seen[i])
		}
		fmt.Fprintf(&want, "%d|%d\n", i, i)
	}
	if len(seen) != 1305 {
		t.Errorf("callback saw %d rows, want 1305", len(seen))
	}
	if buf.String() != want.String() {
		t.Errorf("writer output differs from the three batches in order (%d bytes, want %d)", buf.Len(), want.Len())
	}
}
