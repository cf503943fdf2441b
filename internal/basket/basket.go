// Package basket implements the DataCell's central data structure: the
// basket, a temporary main-memory stream table.
//
// Every incoming tuple is appended to at least one basket and waits there to
// be processed; factories evaluate continuous queries over baskets as if
// they were ordinary tables and delete the tuples they have consumed. Unlike
// relational tables, baskets have no a-priori tuple order guarantees, their
// integrity constraints act as silent filters, their content does not
// survive a restart, and concurrent access is regulated with an exclusive
// locking scheme driven by the scheduler.
package basket

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// TimestampCol is the name of the implicit arrival-time column every basket
// carries ("for each relational table there exists an extra column, the
// timestamp column, that for each tuple reflects the time that this tuple
// entered the system").
const TimestampCol = "sys_ts"

// ErrClosed is returned by blocking operations after Close.
var ErrClosed = errors.New("basket: closed")

// Constraint is a basket integrity constraint. Check returns the positions
// of rel's tuples that satisfy the constraint; the remaining tuples are
// silently dropped on append — indistinguishable from tuples that never
// arrived.
type Constraint struct {
	Name  string
	Check func(rel *bat.Relation) []int32
}

// Stats carries monotonically increasing basket counters. HighWater is
// the occupancy high-water mark: the largest resident tuple count ever
// observed after an append — the basket-pressure signal the
// observability layer exports per stream.
type Stats struct {
	Appended  int64 // tuples accepted into the basket
	Dropped   int64 // tuples silently dropped by integrity constraints
	Consumed  int64 // tuples removed by factories
	HighWater int64 // peak resident occupancy
}

// Basket is a stream table: one column per declared attribute plus the
// implicit timestamp column. All mutating access happens under the basket
// lock; factories lock every input and output basket for the duration of
// one firing.
type Basket struct {
	name  string
	id    uint64 // global order for deadlock-free multi-basket locking
	types []vector.Type
	names []string

	mu       sync.Mutex
	notEmpty *sync.Cond // signalled on append
	enabled  *sync.Cond // signalled on SetEnabled(true)
	rel      *bat.Relation
	seqbase  bat.OID // oid of the first resident tuple (head stays dense)
	isOn     bool
	closed   bool

	constraints []Constraint
	onAppend    atomic.Value // func(), scheduler wake-up hook
	onEnable    atomic.Value // func(), partition-splitter resume hook

	// covers holds per-resident-tuple cover credits for the shared-baskets
	// strategy: each reader that has covered a tuple adds one credit, and
	// the group's unlocker removes every tuple that collected enough
	// credits in one step. nil until the first CoverLocked call; kept
	// positionally aligned with rel by the delete/take operations.
	covers []int32

	// gather is the reusable staging relation of constraint-filtered
	// appends, lazily created and guarded by mu like rel.
	gather *bat.Relation

	appended  int64
	dropped   int64
	consumed  int64
	highWater int64

	// now provides arrival timestamps; replaceable for simulated time.
	now func() time.Time
}

var basketIDs atomic.Uint64

// New creates an enabled, empty basket with the given attribute schema.
// The implicit timestamp column is appended automatically.
func New(name string, names []string, types []vector.Type) *Basket {
	allNames := append(append([]string(nil), names...), TimestampCol)
	allTypes := append(append([]vector.Type(nil), types...), vector.Timestamp)
	b := &Basket{
		name:  name,
		id:    basketIDs.Add(1),
		names: allNames,
		types: allTypes,
		rel:   bat.NewEmptyRelation(allNames, allTypes),
		isOn:  true,
		now:   time.Now,
	}
	b.notEmpty = sync.NewCond(&b.mu)
	b.enabled = sync.NewCond(&b.mu)
	return b
}

// Name returns the basket name.
func (b *Basket) Name() string { return b.name }

// ID returns the basket's unique lock-ordering id.
func (b *Basket) ID() uint64 { return b.id }

// Schema returns the column names and types, including the implicit
// timestamp column (always last).
func (b *Basket) Schema() ([]string, []vector.Type) {
	return append([]string(nil), b.names...), append([]vector.Type(nil), b.types...)
}

// UserSchema returns the declared attribute names and types, without the
// implicit timestamp column.
func (b *Basket) UserSchema() ([]string, []vector.Type) {
	n := len(b.names) - 1
	return append([]string(nil), b.names[:n]...), append([]vector.Type(nil), b.types[:n]...)
}

// SetClock replaces the arrival-time source (used by simulated-time runs).
func (b *Basket) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// SetOnAppend installs the scheduler wake-up hook, invoked (outside the
// basket lock) whenever tuples are accepted. A nil fn clears the hook.
func (b *Basket) SetOnAppend(fn func()) { b.onAppend.Store(fn) }

// SetOnEnable installs a hook invoked whenever the basket is (re)enabled.
// The hook may run with the basket lock held (SetEnabledLocked callers)
// and must not block; the partition splitter uses it to resume shipping
// tuples once a shared-basket cycle releases a partition. A nil fn clears
// the hook.
func (b *Basket) SetOnEnable(fn func()) { b.onEnable.Store(fn) }

func (b *Basket) fireOnEnable() {
	if fn, ok := b.onEnable.Load().(func()); ok && fn != nil {
		fn()
	}
}

// AddConstraint registers an integrity constraint. Constraints act as
// silent filters on append.
func (b *Basket) AddConstraint(c Constraint) {
	b.mu.Lock()
	b.constraints = append(b.constraints, c)
	b.mu.Unlock()
}

// Lock acquires the basket's exclusive lock. Factories must acquire all
// their basket locks in ID order; use core.LockAll.
func (b *Basket) Lock() { b.mu.Lock() }

// Unlock releases the basket's exclusive lock.
func (b *Basket) Unlock() { b.mu.Unlock() }

// Len returns the number of resident tuples.
func (b *Basket) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rel.Len()
}

// LenLocked returns the number of resident tuples; caller holds the lock.
func (b *Basket) LenLocked() int { return b.rel.Len() }

// Stats returns the basket counters.
func (b *Basket) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{Appended: b.appended, Dropped: b.dropped, Consumed: b.consumed, HighWater: b.highWater}
}

// Enabled reports whether the stream through this basket is flowing.
func (b *Basket) Enabled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.isOn
}

// EnabledLocked reports whether the basket is enabled; caller holds the
// lock. Factory guards use it (the partition splitter defers while any
// partition is mid-cycle).
func (b *Basket) EnabledLocked() bool { return b.isOn }

// SetEnabled enables or disables the basket. While disabled, Append blocks
// (the stream is blocked, per the paper's basket-control semantics);
// re-enabling releases blocked producers.
func (b *Basket) SetEnabled(on bool) {
	b.mu.Lock()
	b.isOn = on
	if on {
		b.enabled.Broadcast()
	}
	b.mu.Unlock()
	if on {
		b.fireOnEnable()
	}
}

// SetEnabledLocked is SetEnabled for callers that already hold the basket
// lock (the locker/unlocker factories of the shared-baskets strategy).
func (b *Basket) SetEnabledLocked(on bool) {
	b.isOn = on
	if on {
		b.enabled.Broadcast()
		b.fireOnEnable()
	}
}

// Close marks the basket closed, releasing all blocked producers and
// consumers with ErrClosed.
func (b *Basket) Close() {
	b.mu.Lock()
	b.closed = true
	b.enabled.Broadcast()
	b.notEmpty.Broadcast()
	b.mu.Unlock()
}

// Reopen clears a Close, letting producers and emitters use the basket
// again. A removed query's output basket stays in the catalog but is
// closed when its emitter stops; re-registering the query name revives
// it through here.
func (b *Basket) Reopen() {
	b.mu.Lock()
	b.closed = false
	b.mu.Unlock()
}

// Append adds the tuples of rel (schema: the user attributes, in declared
// order) to the basket, stamping arrival timestamps and applying integrity
// constraints. It blocks while the basket is disabled. It returns the
// number of tuples accepted.
func (b *Basket) Append(rel *bat.Relation) (int, error) {
	b.mu.Lock()
	for !b.isOn && !b.closed {
		b.enabled.Wait()
	}
	if b.closed {
		b.mu.Unlock()
		return 0, ErrClosed
	}
	n, err := b.appendLocked(rel)
	b.mu.Unlock()
	if n > 0 {
		b.fireOnAppend()
	}
	return n, err
}

// AppendLocked is Append for callers that already hold the basket lock
// (factories writing their output baskets). It never blocks; appends to a
// disabled basket are allowed inside the kernel, since disabling only
// blocks the periphery. The scheduler hook is NOT fired; the caller's
// firing cycle handles wake-ups.
func (b *Basket) AppendLocked(rel *bat.Relation) (int, error) {
	if b.closed {
		return 0, ErrClosed
	}
	return b.appendLocked(rel)
}

func (b *Basket) appendLocked(rel *bat.Relation) (int, error) {
	if rel.NumCols() != len(b.names)-1 && rel.NumCols() != len(b.names) {
		return 0, fmt.Errorf("basket %s: append arity %d, want %d", b.name, rel.NumCols(), len(b.names)-1)
	}
	// Integrity constraints: keep only satisfying tuples, silently.
	keep := []int32(nil)
	full := rel.NumCols() == len(b.names)
	view := rel
	if !full && len(b.constraints) > 0 {
		// Present constraints with the basket's column names.
		view = rel.Rename(b.names[:rel.NumCols()])
	}
	for _, c := range b.constraints {
		sel := c.Check(view)
		if keep == nil {
			keep = sel
		} else {
			keep = intersect(keep, sel)
		}
	}
	in := rel
	if keep != nil && len(keep) != rel.Len() {
		if b.gather == nil {
			b.gather = &bat.Relation{}
		}
		in = rel.GatherInto(b.gather, keep)
	}
	accepted := in.Len()
	dropped := rel.Len() - accepted
	if accepted > 0 {
		if full {
			// AppendRelation matches columns positionally, so no renamed
			// intermediate is needed.
			b.rel.AppendRelation(in)
		} else {
			// Append the user columns straight into the resident relation and
			// stamp the arrival timestamps in place — no Concat'd intermediate,
			// no second copy.
			for i := 0; i < in.NumCols(); i++ {
				b.rel.Col(i).AppendVector(in.Col(i))
			}
			b.rel.Col(in.NumCols()).AppendN(vector.NewTimestampMicros(b.now().UnixMicro()), accepted)
		}
		b.appended += int64(accepted)
		if n := int64(b.rel.Len()); n > b.highWater {
			b.highWater = n
		}
		if b.covers != nil {
			b.covers = append(b.covers, make([]int32, accepted)...)
		}
		b.notEmpty.Broadcast()
	}
	b.dropped += int64(dropped)
	return accepted, nil
}

// AppendRow appends a single tuple of user-attribute values. Convenience
// for receptors and tests.
func (b *Basket) AppendRow(vals ...vector.Value) error {
	names, types := b.UserSchema()
	r := bat.NewEmptyRelation(names, types)
	r.AppendRow(vals...)
	_, err := b.Append(r)
	return err
}

func (b *Basket) fireOnAppend() {
	if fn, ok := b.onAppend.Load().(func()); ok && fn != nil {
		fn()
	}
}

// NotifyAppend fires the scheduler hook manually; factories call this via
// the core after a firing cycle that produced output.
func (b *Basket) NotifyAppend() { b.fireOnAppend() }

// AppendedLocked returns the total number of tuples ever accepted; the
// caller holds the lock. It serves as a generation counter for factories
// that must fire only on new arrivals.
func (b *Basket) AppendedLocked() int64 { return b.appended }

// RelLocked exposes the resident relation; caller holds the lock and must
// not retain the reference past unlock. Reading without deleting is how
// shared-basket factories scan their input.
func (b *Basket) RelLocked() *bat.Relation { return b.rel }

// TakeAllLocked removes and returns every resident tuple. The returned
// relation owns its columns.
func (b *Basket) TakeAllLocked() *bat.Relation {
	out := b.rel
	b.consumed += int64(out.Len())
	b.seqbase += bat.OID(out.Len())
	b.rel = bat.NewEmptyRelation(b.names, b.types)
	b.covers = nil
	return out
}

// ExchangeLocked removes and returns every resident tuple, installing
// spare — a relation previously returned by this method (or TakeAllLocked)
// on the same basket, cleared or not — as the new, emptied resident
// relation. Factories ping-pong two relations through it so the basket's
// column capacity is retained across firings instead of reallocated: the
// allocation-free replacement for TakeAllLocked on the firing hot path.
// A nil spare behaves exactly like TakeAllLocked.
func (b *Basket) ExchangeLocked(spare *bat.Relation) *bat.Relation {
	if spare == nil {
		return b.TakeAllLocked()
	}
	if spare.NumCols() != b.rel.NumCols() {
		panic(fmt.Sprintf("basket %s: exchange with %d cols, want %d", b.name, spare.NumCols(), b.rel.NumCols()))
	}
	out := b.rel
	b.consumed += int64(out.Len())
	b.seqbase += bat.OID(out.Len())
	spare.Clear()
	b.rel = spare
	b.covers = b.covers[:0]
	return out
}

// DeleteLocked removes the tuples at the given ascending positions without
// materialising them.
func (b *Basket) DeleteLocked(sel []int32) {
	b.rel.DeleteSorted(sel)
	b.covers = deleteSortedCounts(b.covers, sel)
	b.consumed += int64(len(sel))
}

// CoverLocked adds one cover credit to each of the given resident
// positions. A shared-basket reader calls it once per firing with the
// positions its basket expression covered; the positions need not be
// sorted but must not repeat. Caller holds the basket lock.
func (b *Basket) CoverLocked(sel []int32) {
	if len(sel) == 0 {
		return
	}
	if n := b.rel.Len(); len(b.covers) < n {
		b.covers = append(b.covers, make([]int32, n-len(b.covers))...)
	}
	for _, p := range sel {
		b.covers[p]++
	}
}

// DeleteCoveredLocked removes every tuple that has collected at least min
// cover credits, shifting the surviving tuples' credits down with them.
// It returns the number of tuples removed. This is the shared-baskets
// unlocker's one-step delete: with min 1 it removes the union of what the
// group covered; with min = group size only tuples every member covered.
func (b *Basket) DeleteCoveredLocked(min int32) int {
	if len(b.covers) == 0 {
		return 0
	}
	ripe := make([]int32, 0, len(b.covers))
	for i, c := range b.covers {
		if c >= min {
			ripe = append(ripe, int32(i))
		}
	}
	if len(ripe) == 0 {
		return 0
	}
	b.DeleteLocked(ripe)
	return len(ripe)
}

// deleteSortedCounts removes the entries of counts at the given ascending
// positions, compacting in place (the credit-slice mirror of the
// relation's shift delete).
func deleteSortedCounts(counts []int32, sel []int32) []int32 {
	if len(counts) == 0 || len(sel) == 0 {
		return counts
	}
	if lo, n := int(sel[0]), len(sel); int(sel[n-1])-lo == n-1 {
		// One contiguous run: a single block move, as in the relation.
		return counts[:lo+copy(counts[lo:], counts[lo+n:])]
	}
	w, di := 0, 0
	for i := range counts {
		if di < len(sel) && int(sel[di]) == i {
			di++
			continue
		}
		counts[w] = counts[i]
		w++
	}
	return counts[:w]
}

// WaitNotEmpty blocks until the basket holds at least min tuples or is
// closed. Used by emitters, which are transitions whose only input is an
// output basket.
func (b *Basket) WaitNotEmpty(min int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.rel.Len() < min && !b.closed {
		b.notEmpty.Wait()
	}
	if b.closed && b.rel.Len() < min {
		return ErrClosed
	}
	return nil
}

// TakeAll locks, removes and returns every resident tuple.
func (b *Basket) TakeAll() *bat.Relation {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.TakeAllLocked()
}

// Snapshot returns a deep copy of the resident tuples without consuming
// them (basket inspection outside a basket expression: behaves as any
// temporary table).
func (b *Basket) Snapshot() *bat.Relation {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rel.Clone()
}

func intersect(a, bsel []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(bsel)))
	i, j := 0, 0
	for i < len(a) && j < len(bsel) {
		switch {
		case a[i] < bsel[j]:
			i++
		case a[i] > bsel[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
