package datacell

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/bat"
	"datacell/internal/stream"
)

// Emit is one delivered result batch of a continuous query together with
// its delivery metadata: the producing query, the batch's position in the
// subscription's delivery order, and the engine-clock time the emitter
// picked the batch up. Senders that stamp a wall-clock timestamp into
// their tuples can subtract it from EmitTime to measure ingest-to-emit
// latency (cmd/datacellbench does exactly that).
type Emit struct {
	// Query is the continuous query that produced the batch.
	Query string
	// Table carries the result rows. It is shared by every subscription of
	// the query and must not be mutated by the callback. One batch's rows
	// share one backing array of cells: each Row is a capacity-capped
	// window of it, so appending to a Row copies rather than overwriting
	// its neighbour.
	Table Table
	// Seq numbers the batches one subscription receives, starting at 1.
	// Gaps never occur; a new subscription starts its own numbering.
	Seq int64
	// EmitTime is the engine-clock time (time.Now unless WithClock /
	// SetClock installed a simulated clock) at which the emitter thread
	// picked the batch up from the kernel's result basket.
	EmitTime time.Time
}

// SubscribeOptions configure one subscription (SubscribeQuery).
type SubscribeOptions struct {
	// OnEmit receives every result batch with metadata, invoked on the
	// query's emitter thread. Required. The callback must not retain
	// Emit.Table past its return and should be quick: all subscriptions of
	// one query share the emitter thread.
	OnEmit func(Emit)
}

// Subscription is one attached consumer of a continuous query's results,
// created by SubscribeQuery. Unlike the deprecated Subscribe seam it can
// be detached without removing the query: Cancel removes the consumer and
// leaves the query (and its other subscriptions) running.
type Subscription struct {
	query     string
	qe        *queryEmitter
	fn        func(Emit)
	seq       atomic.Int64
	cancelled atomic.Bool
}

// Query returns the name of the subscribed query.
func (s *Subscription) Query() string { return s.query }

// Emits returns how many batches the subscription has been delivered.
func (s *Subscription) Emits() int64 { return s.seq.Load() }

// Cancel detaches the subscription: no further batches are delivered and
// the query keeps running for its other consumers. One delivery already in
// flight on the emitter thread may still arrive concurrently with Cancel;
// after that the callback is never invoked again. Idempotent, and safe to
// call from within the subscription's own OnEmit callback.
func (s *Subscription) Cancel() {
	if s.cancelled.Swap(true) {
		return
	}
	s.qe.remove(s)
}

// queryEmitter fans one query's emitter thread out to its subscriptions:
// one stream.Emitter drains the query's output basket, and every drained
// batch is delivered — with one shared Table and EmitTime, and a
// per-subscription Seq — to each attached subscription. The engine keeps
// exactly one per subscribed query, so attaching and detaching consumers
// never multiplies emitter threads.
type queryEmitter struct {
	eng   *Engine
	query string
	em    *stream.Emitter

	mu   sync.Mutex
	subs []*Subscription
}

func (qe *queryEmitter) add(s *Subscription) {
	qe.mu.Lock()
	qe.subs = append(qe.subs, s)
	qe.mu.Unlock()
}

func (qe *queryEmitter) remove(s *Subscription) {
	qe.mu.Lock()
	for i, o := range qe.subs {
		if o == s {
			qe.subs = append(qe.subs[:i], qe.subs[i+1:]...)
			break
		}
	}
	qe.mu.Unlock()
}

// cancelAll detaches every subscription (RemoveQuery, engine teardown).
func (qe *queryEmitter) cancelAll() {
	qe.mu.Lock()
	subs := qe.subs
	qe.subs = nil
	qe.mu.Unlock()
	for _, s := range subs {
		s.cancelled.Store(true)
	}
}

// dispatch delivers one drained batch to every live subscription. It runs
// on the emitter thread; the subscriber list is snapshotted so Cancel
// never blocks behind a slow callback.
func (qe *queryEmitter) dispatch(rel *bat.Relation) {
	qe.mu.Lock()
	subs := append([]*Subscription(nil), qe.subs...)
	qe.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	t := tableOf(rel)
	now := qe.eng.cat.Now()
	for _, s := range subs {
		if s.cancelled.Load() {
			continue
		}
		s.fn(Emit{Query: qe.query, Table: t, Seq: s.seq.Add(1), EmitTime: now})
	}
}

// SubscribeQuery attaches a consumer to the named continuous query's
// results and returns its Subscription. Every result batch is delivered to
// opts.OnEmit with metadata (Emit); all subscriptions of one query share a
// single emitter thread and each receives every batch. Subscriptions can
// be created before or after Start, and detached at any time with
// Subscription.Cancel. They end automatically when the query is removed
// (RemoveQuery) or the engine stops.
func (e *Engine) SubscribeQuery(query string, opts SubscribeOptions) (*Subscription, error) {
	if opts.OnEmit == nil {
		return nil, fmt.Errorf("datacell: SubscribeQuery needs an OnEmit callback")
	}
	out, err := e.Out(query)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	qe := e.subs[query]
	if qe == nil {
		qe = &queryEmitter{eng: e, query: query, em: stream.NewEmitter(out)}
		qe.em.Subscribe(qe.dispatch)
		if e.subs == nil {
			e.subs = map[string]*queryEmitter{}
		}
		e.subs[query] = qe
	}
	sub := &Subscription{query: query, qe: qe, fn: opts.OnEmit}
	qe.add(sub)
	started := e.started
	e.mu.Unlock()
	if started {
		qe.em.Start() // idempotent: a second Start on a running emitter is a no-op
	}
	return sub, nil
}

// subscriptionEmitters snapshots the per-query emitters. Caller holds e.mu.
func (e *Engine) subEmittersLocked() []*queryEmitter {
	out := make([]*queryEmitter, 0, len(e.subs))
	for _, qe := range e.subs {
		out = append(out, qe)
	}
	return out
}

// subscriptionsLocked counts live subscriptions across every query.
// Caller holds e.mu.
func (e *Engine) subscriptionsLocked() int {
	n := 0
	for _, qe := range e.subs {
		qe.mu.Lock()
		n += len(qe.subs)
		qe.mu.Unlock()
	}
	return n
}

// dropQueryEmitterLocked detaches and returns the emitter of one query
// (nil when it has none), removing it from the engine so a later
// re-registration under the same name starts fresh. Caller holds e.mu and
// must stop the returned emitter after releasing it.
func (e *Engine) dropQueryEmitterLocked(query string) *queryEmitter {
	qe := e.subs[query]
	if qe != nil {
		delete(e.subs, query)
	}
	return qe
}
