// Package core implements the DataCell kernel: factories (continuous-query
// plans whose execution state is saved between calls), the Petri-net
// scheduler that fires them, the shared-basket and partial-delete
// processing strategies, and the metronome/heartbeat utilities.
//
// Baskets are the Petri-net places, tuples the tokens; receptors, factories
// and emitters are the transitions. A factory fires when each of its input
// baskets holds at least its threshold of tuples; one firing locks every
// input and output basket, runs the factory body exactly once, and releases
// the locks — the model's atomic, non-interruptible step.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/basket"
	"datacell/internal/histo"
)

// Body is the code of a factory: the (part of a) query plan it executes per
// firing. The body runs with every input and output basket locked, exactly
// like the lock/process/unlock loop of the paper's Algorithm 1. State that
// must survive between calls lives in the closure, mirroring the saved
// execution state of MAL factories.
type Body func(ctx *Context) error

// Context gives a firing access to its locked baskets.
type Context struct {
	f *Factory
}

// In returns input basket i (locked for the duration of the firing).
func (c *Context) In(i int) *basket.Basket { return c.f.inputs[i] }

// Out returns output basket i (locked for the duration of the firing).
func (c *Context) Out(i int) *basket.Basket { return c.f.outputs[i] }

// NumIn returns the number of input baskets.
func (c *Context) NumIn() int { return len(c.f.inputs) }

// NumOut returns the number of output baskets.
func (c *Context) NumOut() int { return len(c.f.outputs) }

// Factory is a continuous-query transition. Per the Petri-net model it has
// at least one input and one output basket. Thresholds generalise the
// firing rule to "input i holds at least Threshold[i] tuples", which is how
// tuple-based windows and batch processing are controlled at the scheduler
// level.
type Factory struct {
	name      string
	inputs    []*basket.Basket
	outputs   []*basket.Basket
	threshold []int // per-input minimum tuple counts; default 1
	body      Body

	lockSet []*basket.Basket // inputs+outputs deduplicated, ID-ordered

	// guard, when set, is an extra firing condition evaluated under the
	// basket locks after the thresholds pass. Used e.g. by the shared-
	// baskets locker to fire only when new tuples arrived since its last
	// cycle.
	guard func(ctx *Context) bool

	// anyInput switches the firing rule from AND to OR over the inputs:
	// the factory fires when at least one input meets its threshold. Merge
	// emitters use it — partition outputs arrive independently and must
	// not wait for every partition to produce.
	anyInput bool

	runMu   sync.Mutex // serialises firings of this factory
	fires   atomic.Int64
	errs    atomic.Int64
	busy    atomic.Int64 // nanoseconds spent executing the body
	lastErr atomic.Value // error

	// Latency instrumentation (SetLatency): each successful firing records
	// one ingest-to-emit sample into latH — the age of the oldest tuple
	// resident in latSrc when the body completes, measured against the
	// sys_ts arrival stamps the receptor side wrote. All pieces are read
	// with latSrc locked (it is an input), recorded with two atomic adds:
	// zero allocation, O(1) per firing regardless of batch size.
	latH   *histo.H
	latSrc *basket.Basket
	latNow func() time.Time

	// bar, when set, accumulates round-barrier wait episodes (combining
	// merge emitters; see BarrierStats).
	bar *BarrierStats

	wake   chan struct{} // scheduler wake-up, buffered 1
	kill   chan struct{} // closed by Scheduler.Unregister
	killed atomic.Bool
}

// NewFactory builds a factory. Every factory needs at least one input and
// one output basket.
func NewFactory(name string, inputs, outputs []*basket.Basket, body Body) (*Factory, error) {
	if len(inputs) == 0 || len(outputs) == 0 {
		return nil, fmt.Errorf("core: factory %s needs at least one input and one output basket", name)
	}
	if body == nil {
		return nil, fmt.Errorf("core: factory %s has no body", name)
	}
	f := &Factory{
		name:      name,
		inputs:    inputs,
		outputs:   outputs,
		threshold: make([]int, len(inputs)),
		body:      body,
		wake:      make(chan struct{}, 1),
		kill:      make(chan struct{}),
	}
	for i := range f.threshold {
		f.threshold[i] = 1
	}
	seen := map[uint64]bool{}
	for _, b := range append(append([]*basket.Basket(nil), inputs...), outputs...) {
		if !seen[b.ID()] {
			seen[b.ID()] = true
			f.lockSet = append(f.lockSet, b)
		}
	}
	sort.Slice(f.lockSet, func(i, j int) bool { return f.lockSet[i].ID() < f.lockSet[j].ID() })
	return f, nil
}

// Name returns the factory name.
func (f *Factory) Name() string { return f.name }

// Inputs returns the input baskets.
func (f *Factory) Inputs() []*basket.Basket { return f.inputs }

// SetThreshold sets the firing threshold of input i to n tuples (n >= 1).
// A factory with a threshold of n runs only after n tuples have been
// collected, the hook for explicit batch processing and tuple-based
// windows.
func (f *Factory) SetThreshold(i, n int) {
	if n < 1 {
		n = 1
	}
	f.threshold[i] = n
}

// SetGuard installs an extra firing condition, evaluated with all baskets
// locked. A false guard suppresses the firing without counting it.
func (f *Factory) SetGuard(g func(ctx *Context) bool) { f.guard = g }

// SetFireAnyInput relaxes the firing rule to "at least one input meets its
// threshold" instead of all of them. Call before registering.
func (f *Factory) SetFireAnyInput() { f.anyInput = true }

// SetLatency arms per-firing ingest-to-emit latency sampling: src must be
// one of the factory's input baskets (its implicit sys_ts column carries
// the arrival stamps), h receives one sample per successful firing, and
// now supplies the emit-side clock (nil for time.Now; pass the engine
// clock so simulated-time runs stay consistent). Call before registering.
func (f *Factory) SetLatency(h *histo.H, src *basket.Basket, now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	f.latH, f.latSrc, f.latNow = h, src, now
}

// SetBarrierStats attaches a barrier-wait accumulator (combining merge
// emitters record their round-barrier episodes through it).
func (f *Factory) SetBarrierStats(b *BarrierStats) { f.bar = b }

// Barrier returns the factory's barrier-wait accumulator, nil for
// factories without one.
func (f *Factory) Barrier() *BarrierStats { return f.bar }

// Fires returns how many times the factory has fired.
func (f *Factory) Fires() int64 { return f.fires.Load() }

// Errors returns how many firings returned an error.
func (f *Factory) Errors() int64 { return f.errs.Load() }

// Busy returns the cumulative time firings spent executing the factory
// body. Together with Fires it is the utilisation signal the adaptive
// parallelism controller samples: busy clones justify their partitions,
// idle ones get merged away. Maintained with two clock reads and one
// atomic add per firing — no locks, no allocations.
func (f *Factory) Busy() time.Duration { return time.Duration(f.busy.Load()) }

// LastError returns the most recent body error, or nil.
func (f *Factory) LastError() error {
	if e, ok := f.lastErr.Load().(error); ok {
		return e
	}
	return nil
}

// fireable reports whether the inputs meet the firing rule (all inputs at
// threshold, or any input under SetFireAnyInput). It takes no locks: a
// stale positive is re-checked under locks in TryFire, and a stale
// negative is repaired by the wake-up hook.
func (f *Factory) fireable() bool {
	if f.anyInput {
		for i, in := range f.inputs {
			if in.Len() >= f.threshold[i] {
				return true
			}
		}
		return false
	}
	for i, in := range f.inputs {
		if in.Len() < f.threshold[i] {
			return false
		}
	}
	return true
}

// readyLocked is the firing rule evaluated under the basket locks.
func (f *Factory) readyLocked() bool {
	if f.anyInput {
		for i, in := range f.inputs {
			if in.LenLocked() >= f.threshold[i] {
				return true
			}
		}
		return false
	}
	for i, in := range f.inputs {
		if in.LenLocked() < f.threshold[i] {
			return false
		}
	}
	return true
}

// Enabled reports whether the factory would fire right now: thresholds
// met and guard passing, evaluated under the basket locks. Quiescence
// checks need it because the lock-free fireable() cannot consult the
// guard — a factory whose input holds residual tuples but whose guard
// waits for new arrivals is fireable-looking yet permanently disabled.
func (f *Factory) Enabled() bool {
	if f.killed.Load() {
		return false
	}
	for _, b := range f.lockSet {
		b.Lock()
	}
	ready := f.readyLocked()
	if ready && f.guard != nil && !f.guard(&Context{f: f}) {
		ready = false
	}
	for i := len(f.lockSet) - 1; i >= 0; i-- {
		f.lockSet[i].Unlock()
	}
	return ready
}

// TryFire locks all baskets, re-checks the firing condition, runs the body
// once if met and reports whether it ran. Locks are taken in global basket
// ID order, so any set of factories sharing baskets is deadlock-free.
func (f *Factory) TryFire() (bool, error) {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if f.killed.Load() {
		// Unregistered: never touch the baskets again. Unregister followed
		// by WaitIdle is therefore a full quiesce of this factory.
		return false, nil
	}

	for _, b := range f.lockSet {
		b.Lock()
	}
	ready := f.readyLocked()
	if ready && f.guard != nil && !f.guard(&Context{f: f}) {
		ready = false
	}
	if !ready {
		for i := len(f.lockSet) - 1; i >= 0; i-- {
			f.lockSet[i].Unlock()
		}
		return false, nil
	}

	outBefore := make([]int, len(f.outputs))
	for i, o := range f.outputs {
		outBefore[i] = o.LenLocked()
	}

	// Read the arrival stamp of the oldest tuple about to be processed
	// before the body consumes it. Baskets append in arrival order and
	// keep sys_ts as their last column, so this is one slice index.
	arrivalUs := int64(-1)
	if f.latH != nil {
		if r := f.latSrc.RelLocked(); r.Len() > 0 {
			arrivalUs = r.Col(r.NumCols() - 1).Ints()[0]
		}
	}

	bodyStart := time.Now()
	err := f.body(&Context{f: f})
	f.busy.Add(int64(time.Since(bodyStart)))
	if err == nil && arrivalUs >= 0 {
		f.latH.RecordValue((f.latNow().UnixMicro() - arrivalUs) * 1000)
	}

	grew := make([]bool, len(f.outputs))
	for i, o := range f.outputs {
		grew[i] = o.LenLocked() > outBefore[i]
	}
	for i := len(f.lockSet) - 1; i >= 0; i-- {
		f.lockSet[i].Unlock()
	}

	f.fires.Add(1)
	if err != nil {
		f.errs.Add(1)
		f.lastErr.Store(err)
	}
	// Wake downstream transitions whose input baskets grew.
	for i, o := range f.outputs {
		if grew[i] {
			o.NotifyAppend()
		}
	}
	return true, err
}

// WaitIdle blocks until no firing of this factory is in progress. After
// Scheduler.Unregister followed by WaitIdle, the factory is guaranteed to
// never touch its baskets again — the handshake group rewiring relies on.
func (f *Factory) WaitIdle() {
	f.runMu.Lock()
	//lint:ignore SA2001 acquiring runMu is the synchronisation point itself
	f.runMu.Unlock()
}

// ping delivers a non-blocking wake-up.
func (f *Factory) ping() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}
