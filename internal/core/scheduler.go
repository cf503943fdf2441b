package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/basket"
)

// Scheduler organises the execution of the transitions. It continuously
// re-evaluates the firing condition of every registered factory: in
// concurrent mode each factory runs on its own goroutine (the paper's
// multi-threaded architecture where every component is an independent
// thread), woken whenever one of its input baskets receives tuples. The
// synchronous RunUntilQuiescent mode fires factories on the caller's
// goroutine until no transition is enabled, which benchmarks use to measure
// pure kernel work.
type Scheduler struct {
	mu        sync.Mutex
	factories []*Factory
	watchers  map[*basket.Basket][]*Factory // input basket -> interested factories
	running   bool
	stop      chan struct{}
	wg        sync.WaitGroup
	active    atomic.Int64 // number of factories currently firing
}

// NewScheduler returns an empty scheduler.
func NewScheduler() *Scheduler {
	return &Scheduler{watchers: map[*basket.Basket][]*Factory{}}
}

// Register adds a factory to the scheduler and hooks its input baskets'
// append notifications. If the scheduler is already running, the factory's
// thread starts immediately (continuous queries can be installed while the
// stream flows).
func (s *Scheduler) Register(f *Factory) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.factories = append(s.factories, f)
	for _, in := range f.Inputs() {
		if len(s.watchers[in]) == 0 {
			in := in
			in.SetOnAppend(func() { s.notify(in) })
		}
		s.watchers[in] = append(s.watchers[in], f)
	}
	if s.running {
		s.spawnLocked(f)
	}
	return nil
}

func (s *Scheduler) notify(b *basket.Basket) {
	s.mu.Lock()
	fs := s.watchers[b]
	s.mu.Unlock()
	for _, f := range fs {
		f.ping()
	}
}

// Start launches one goroutine per factory. Each goroutine fires its
// factory as long as it is enabled and then suspends until woken by an
// input-basket append.
func (s *Scheduler) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return errors.New("core: scheduler already running")
	}
	s.running = true
	s.stop = make(chan struct{})
	for _, f := range s.factories {
		s.spawnLocked(f)
	}
	return nil
}

// spawnLocked launches one factory thread; the caller holds s.mu.
func (s *Scheduler) spawnLocked(f *Factory) {
	stop := s.stop
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			if f.killed.Load() {
				return
			}
			s.active.Add(1)
			fired, _ := f.TryFire()
			s.active.Add(-1)
			if fired {
				continue
			}
			select {
			case <-f.wake:
			case <-f.kill:
				return
			case <-stop:
				return
			}
		}
	}()
}

// Unregister removes a factory: its thread (if any) terminates after the
// current firing and it no longer gates quiescence. The factory's baskets
// are left untouched, except that a basket whose last watcher goes away
// also loses its append hook — otherwise the basket would keep pinging a
// factory set that no longer exists. Unregistering a factory twice is a
// no-op.
func (s *Scheduler) Unregister(f *Factory) {
	s.mu.Lock()
	for i, g := range s.factories {
		if g == f {
			s.factories = append(s.factories[:i], s.factories[i+1:]...)
			break
		}
	}
	for _, in := range f.Inputs() {
		ws := s.watchers[in]
		for i, g := range ws {
			if g == f {
				// Copy-on-write removal: notify snapshots the slice header
				// under the lock but pings outside it, so the old backing
				// array must stay intact for concurrent readers (a stale
				// ping to this factory is a no-op once it is killed).
				nw := make([]*Factory, 0, len(ws)-1)
				nw = append(nw, ws[:i]...)
				ws = append(nw, ws[i+1:]...)
				break
			}
		}
		if len(ws) == 0 {
			delete(s.watchers, in)
			in.SetOnAppend(nil)
		} else {
			s.watchers[in] = ws
		}
	}
	s.mu.Unlock()
	if f.killed.CompareAndSwap(false, true) {
		close(f.kill)
	}
}

// Stop terminates the factory goroutines and waits for in-flight firings to
// complete.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	close(s.stop)
	s.mu.Unlock()
	s.wg.Wait()
}

// RunUntilQuiescent fires enabled factories on the calling goroutine until
// none is enabled, returning the number of firings. maxFires of 0 means
// unbounded; cyclic networks should pass a bound.
func (s *Scheduler) RunUntilQuiescent(maxFires int) (int, error) {
	s.mu.Lock()
	fs := append([]*Factory(nil), s.factories...)
	s.mu.Unlock()
	fires := 0
	for {
		progress := false
		for _, f := range fs {
			if !f.fireable() {
				continue
			}
			fired, err := f.TryFire()
			if err != nil {
				return fires, fmt.Errorf("core: factory %s: %w", f.Name(), err)
			}
			if fired {
				fires++
				progress = true
				if maxFires > 0 && fires >= maxFires {
					return fires, nil
				}
			}
		}
		if !progress {
			return fires, nil
		}
	}
}

// Quiescent reports whether no factory is currently firing and none is
// enabled. A true result is a snapshot: new input can enable factories
// immediately after.
func (s *Scheduler) Quiescent() bool {
	if s.active.Load() != 0 {
		return false
	}
	s.mu.Lock()
	fs := append([]*Factory(nil), s.factories...)
	s.mu.Unlock()
	for _, f := range fs {
		// Cheap lock-free screen first; confirm under locks so a guarded
		// factory sitting on residual tuples does not block quiescence.
		if f.fireable() && f.Enabled() {
			return false
		}
	}
	return s.active.Load() == 0
}

// WaitQuiescent polls until the network is quiescent or the timeout
// elapses. It is intended for tests and benchmark harnesses that feed a
// known amount of input and want to observe the drained state.
func (s *Scheduler) WaitQuiescent(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if s.Quiescent() {
			// Double-check after a short settle to avoid racing a
			// factory that is between firings.
			time.Sleep(50 * time.Microsecond)
			if s.Quiescent() {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}
