package obs

import (
	"sync"
	"time"
)

// Event is one entry of the engine's event trace: a rewire, a recovery
// pass, a query registration or removal. Events are
// rare (control-plane rate, never tuple rate), so they carry readable
// strings rather than interned ids.
type Event struct {
	// Seq numbers events monotonically since engine start; gaps in a
	// drained ring reveal how many events were overwritten.
	Seq uint64 `json:"seq"`
	// Time is the engine-clock time the event was recorded.
	Time time.Time `json:"time"`
	// Subsystem names the emitting layer: engine, wal.
	Subsystem string `json:"subsystem"`
	// Kind is the event type within the subsystem: rewire, register,
	// remove, recover.
	Kind string `json:"kind"`
	// Name identifies the subject (stream or query name).
	Name string `json:"name,omitempty"`
	// Reason is the human explanation (rewire reasons, how a query was
	// registered).
	Reason string `json:"reason,omitempty"`
	// Duration is how long the traced operation took, when it is an
	// operation (rewires, recovery passes); zero for point events.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Fields carries preformatted key=value detail, e.g. the wiring a
	// rewire installed.
	Fields string `json:"fields,omitempty"`
}

// Trace is a bounded ring buffer of Events. Appends never block and never
// grow the buffer: once full, the oldest event is overwritten. The total
// append count is retained so a reader can tell how much history the ring
// has shed.
type Trace struct {
	mu    sync.Mutex
	buf   []Event
	next  uint64 // total events ever appended == next Seq
	first uint64 // Seq of the oldest retained event
}

// DefaultTraceCap is the ring capacity an engine allocates.
const DefaultTraceCap = 1024

// NewTrace returns a ring retaining the last capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, 0, capacity)}
}

// Add appends one event, stamping its Seq. Safe for concurrent use.
func (t *Trace) Add(ev Event) {
	t.mu.Lock()
	ev.Seq = t.next
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[int(t.next)%cap(t.buf)] = ev
		t.first = t.next - uint64(cap(t.buf)) + 1
	}
	t.next++
	t.mu.Unlock()
}

// Events returns the retained events oldest-first.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	start := int(t.next) % cap(t.buf)
	out = append(out, t.buf[start:]...)
	return append(out, t.buf[:start]...)
}

// Total returns how many events were ever appended (retained or shed).
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}
