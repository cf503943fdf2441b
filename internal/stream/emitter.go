package stream

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
)

// Emitter is a separate thread that picks up result tuples prepared by the
// kernel and delivers them to interested clients. One emitter serves one
// result basket; multiple clients may subscribe to it.
type Emitter struct {
	b *basket.Basket

	mu      sync.Mutex
	writers []io.Writer
	funcs   []func(rel *bat.Relation)

	delivered atomic.Int64
	busy      atomic.Int64 // nanoseconds spent delivering batches
	done      chan struct{}
	started   bool
}

// NewEmitter returns an emitter draining basket b.
func NewEmitter(b *basket.Basket) *Emitter {
	return &Emitter{b: b}
}

// Delivered returns the number of tuples delivered so far.
func (e *Emitter) Delivered() int64 { return e.delivered.Load() }

// Busy returns the cumulative time the emitter thread spent delivering
// batches to its clients — the emit stage of the latency breakdown.
func (e *Emitter) Busy() time.Duration { return time.Duration(e.busy.Load()) }

// SubscribeWriter adds a textual-protocol client: every result tuple is
// written as one line.
func (e *Emitter) SubscribeWriter(w io.Writer) {
	e.mu.Lock()
	e.writers = append(e.writers, w)
	e.mu.Unlock()
}

// Subscribe adds a callback client invoked with each drained batch. The
// callback must not retain the relation: once every client has seen it,
// the emitter hands it back to the basket to receive the next results.
func (e *Emitter) Subscribe(fn func(rel *bat.Relation)) {
	e.mu.Lock()
	e.funcs = append(e.funcs, fn)
	e.mu.Unlock()
}

// Start launches the emitter thread. It runs until the basket is closed.
func (e *Emitter) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.done = make(chan struct{})
	e.mu.Unlock()
	go func() {
		defer close(e.done)
		nUser := len(firstOf(e.b.UserSchema()))
		// Ping-pong: the relation delivered last time goes back into the
		// basket as its emptied resident relation, so the factories
		// appending results reuse its column capacity.
		var spare *bat.Relation
		for {
			if err := e.b.WaitNotEmpty(1); err != nil {
				return
			}
			e.b.Lock()
			rel := e.b.ExchangeLocked(spare)
			e.b.Unlock()
			if rel.Len() > 0 {
				e.deliver(rel, nUser)
			}
			spare = rel
		}
	}()
}

func firstOf[A, B any](a A, _ B) A { return a }

func (e *Emitter) deliver(rel *bat.Relation, nUser int) {
	start := time.Now()
	defer func() { e.busy.Add(int64(time.Since(start))) }()
	e.mu.Lock()
	writers := append([]io.Writer(nil), e.writers...)
	funcs := append([]func(rel *bat.Relation){}, e.funcs...)
	e.mu.Unlock()
	if len(writers) > 0 {
		lines := EncodeRelation(rel, nUser)
		for _, w := range writers {
			bw := bufio.NewWriter(w)
			for _, l := range lines {
				bw.WriteString(l)
				bw.WriteByte('\n')
			}
			bw.Flush()
		}
	}
	for _, fn := range funcs {
		fn(rel)
	}
	e.delivered.Add(int64(rel.Len()))
}

// Stop closes the underlying basket, which terminates the emitter thread,
// and waits for it to exit.
func (e *Emitter) Stop() {
	e.mu.Lock()
	started := e.started
	done := e.done
	e.mu.Unlock()
	e.b.Close()
	if started {
		<-done
	}
}
