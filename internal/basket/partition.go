package basket

import (
	"fmt"
	"sync"

	"datacell/internal/bat"
	"datacell/internal/interval"
	"datacell/internal/vector"
)

// routePool recycles the per-partition gather staging relations of
// PartitionedBasket appends; each Append borrows one, gathers a
// partition's tuples into it (the partition copies them on ingest) and
// returns it.
var routePool = sync.Pool{New: func() any { return &bat.Relation{} }}

// selsPool recycles the per-destination position lists of the routing
// step: Append is called per receptor batch and per splitter firing, so
// the [][]int32 header and each destination's accumulated capacity are
// reused (RouteInto truncates instead of reallocating) rather than
// regrown every time.
var selsPool sync.Pool

// borrowSels returns a destination-position buffer of nd slots.
func borrowSels(nd int) *[][]int32 {
	if sp, _ := selsPool.Get().(*[][]int32); sp != nil {
		if len(*sp) == nd {
			return sp
		}
		// Wrong shape for this basket: resize, keeping what capacity fits.
		s := *sp
		for len(s) < nd {
			s = append(s, nil)
		}
		s = s[:nd]
		*sp = s
		return sp
	}
	s := make([][]int32, nd)
	return &s
}

// PartitionMode selects how a PartitionedBasket routes tuples.
type PartitionMode uint8

// Partitioning modes.
const (
	// PartitionRoundRobin spreads tuples evenly over the partitions without
	// regard to content. Correct for row-local plans (predicate-window
	// selects), whose result is the same under any disjoint split.
	PartitionRoundRobin PartitionMode = iota
	// PartitionHash routes each tuple by a hash of one column, so tuples
	// with equal keys always land in the same partition. Required by
	// grouped plans: a group never straddles two partitions.
	PartitionHash
	// PartitionRange routes each tuple by where one column's value falls
	// in the plan's sargable interval set: matching tuples spread over
	// the partitions by range slice (or by hash when the set has no
	// sliceable measure), and tuples outside the set — which no query of
	// the wiring can ever match — short-circuit to a catch-all basket
	// that no clone scans. This is partition pruning: the P-way split
	// stops being mere placement and becomes work reduction.
	PartitionRange
)

// String names the mode.
func (m PartitionMode) String() string {
	switch m {
	case PartitionRoundRobin:
		return "round-robin"
	case PartitionHash:
		return "hash"
	case PartitionRange:
		return "range"
	}
	return "?"
}

// PartitionedBasket shards one logical stream into P partition baskets
// behind the basket ingest API: Append accepts the same relations a plain
// Basket would and routes every tuple to exactly one partition. Each
// partition is a full Basket (own lock, own timestamp column, own
// scheduler hooks), which is what lets the engine replicate a query's
// factory over the partitions and run the clones as independent Petri-net
// transitions. The routing decision itself lives in the Router, so the
// same verdict drives the core splitter and the ingest periphery alike.
type PartitionedBasket struct {
	name   string
	parts  []*Basket
	router *Router
	rest   *Basket // catch-all of range routing, nil otherwise

	// dests caches parts + rest so the per-firing append path never
	// re-slices.
	dests []*Basket
}

// NewPartitioned creates a partitioned basket of p partitions with the
// given attribute schema. For PartitionHash, hashCol names the routing
// column and must be one of the declared attributes.
func NewPartitioned(name string, names []string, types []vector.Type, p int, mode PartitionMode, hashCol string) (*PartitionedBasket, error) {
	if p < 1 {
		return nil, fmt.Errorf("basket: partitioned %s: need at least 1 partition, got %d", name, p)
	}
	if mode == PartitionHash {
		found := false
		for _, n := range names {
			if n == hashCol {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("basket: partitioned %s: hash column %q not in schema %v", name, hashCol, names)
		}
	}
	router, err := NewRouter(mode, hashCol, p)
	if err != nil {
		return nil, fmt.Errorf("basket: partitioned %s: %w", name, err)
	}
	pb := &PartitionedBasket{name: name, router: router}
	for i := 0; i < p; i++ {
		pb.parts = append(pb.parts, New(fmt.Sprintf("%s.p%d", name, i), names, types))
	}
	pb.dests = pb.parts
	return pb, nil
}

// NewPartitionedHashPruned creates a hash-routed partitioned basket of p
// partitions plus a catch-all: tuples whose pruneCol value lies in set
// place by hash(hashCol), tuples outside it — which no query of the
// wiring can ever match — divert to the catch-all before any
// partial-aggregate clone copies them. Both columns must be declared
// attributes, and set must not cover every value.
func NewPartitionedHashPruned(name string, names []string, types []vector.Type, p int, hashCol, pruneCol string, set interval.Set) (*PartitionedBasket, error) {
	if p < 1 {
		return nil, fmt.Errorf("basket: partitioned %s: need at least 1 partition, got %d", name, p)
	}
	for _, col := range []string{hashCol, pruneCol} {
		found := false
		for _, n := range names {
			if n == col {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("basket: partitioned %s: routing column %q not in schema %v", name, col, names)
		}
	}
	router, err := NewHashPrunedRouter(hashCol, pruneCol, p, set)
	if err != nil {
		return nil, fmt.Errorf("basket: partitioned %s: %w", name, err)
	}
	pb := &PartitionedBasket{name: name, router: router}
	for i := 0; i < p; i++ {
		pb.parts = append(pb.parts, New(fmt.Sprintf("%s.p%d", name, i), names, types))
	}
	pb.rest = New(name+".rest", names, types)
	pb.dests = append(append([]*Basket(nil), pb.parts...), pb.rest)
	return pb, nil
}

// NewPartitionedRange creates a range-routed partitioned basket of p
// partitions plus a catch-all: tuples whose col value lies in set spread
// over the partitions (by equal-measure range slices when the set is
// numeric and bounded, by hash otherwise), tuples outside set go to the
// catch-all. col must be one of the declared attributes and set must not
// cover every value (that would just be round-robin with extra steps).
func NewPartitionedRange(name string, names []string, types []vector.Type, p int, col string, set interval.Set) (*PartitionedBasket, error) {
	if p < 1 {
		return nil, fmt.Errorf("basket: partitioned %s: need at least 1 partition, got %d", name, p)
	}
	found := false
	for _, n := range names {
		if n == col {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("basket: partitioned %s: range column %q not in schema %v", name, col, names)
	}
	if set.All() {
		return nil, fmt.Errorf("basket: partitioned %s: range set on %q covers every value; use round-robin", name, col)
	}
	router, err := NewRangeRouter(col, p, set)
	if err != nil {
		return nil, fmt.Errorf("basket: partitioned %s: %w", name, err)
	}
	pb := &PartitionedBasket{name: name, router: router}
	for i := 0; i < p; i++ {
		pb.parts = append(pb.parts, New(fmt.Sprintf("%s.p%d", name, i), names, types))
	}
	pb.rest = New(name+".rest", names, types)
	pb.dests = append(append([]*Basket(nil), pb.parts...), pb.rest)
	return pb, nil
}

// Name returns the partitioned basket's name.
func (pb *PartitionedBasket) Name() string { return pb.name }

// Parts returns the partition baskets scanned by query clones, in
// partition order. The catch-all is not among them.
func (pb *PartitionedBasket) Parts() []*Basket { return pb.parts }

// CatchAll returns the catch-all basket of range routing — the resting
// place of tuples no query of the wiring can match — or nil for the
// other modes.
func (pb *PartitionedBasket) CatchAll() *Basket { return pb.rest }

// Destinations returns every basket a tuple can be routed to: the
// partitions in order, then the catch-all when range routing is active.
// Routing slots are indexed the same way. Callers must not mutate the
// returned slice.
func (pb *PartitionedBasket) Destinations() []*Basket { return pb.dests }

// Describe renders the routing for explain/monitoring output:
// "round-robin", "hash(k)", "range(v)".
func (pb *PartitionedBasket) Describe() string { return pb.router.Describe() }

// NumPartitions returns the partition count P.
func (pb *PartitionedBasket) NumPartitions() int { return len(pb.parts) }

// Append shards rel across the destinations through the public Basket
// ingest API (locking, integrity constraints, arrival stamping and
// scheduler wake-ups per destination). It returns the number of tuples
// accepted.
func (pb *PartitionedBasket) Append(rel *bat.Relation) (int, error) {
	return pb.append(rel, (*Basket).Append)
}

// AppendLocked is Append for callers that already hold every
// destination's lock (the partition-splitter factory, whose output set is
// the destinations). Scheduler hooks are not fired; the caller's firing
// cycle handles wake-ups.
func (pb *PartitionedBasket) AppendLocked(rel *bat.Relation) (int, error) {
	return pb.append(rel, (*Basket).AppendLocked)
}

// append routes rel with pooled position buffers and hands every
// non-empty destination slice to sink (Append or AppendLocked).
func (pb *PartitionedBasket) append(rel *bat.Relation, sink func(*Basket, *bat.Relation) (int, error)) (int, error) {
	sp := borrowSels(len(pb.dests))
	defer selsPool.Put(sp)
	sels, err := pb.router.RouteInto(rel, *sp)
	if err != nil {
		return 0, fmt.Errorf("basket: partitioned %s: %w", pb.name, err)
	}
	*sp = sels
	stage := routePool.Get().(*bat.Relation)
	defer routePool.Put(stage)
	total := 0
	for k, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		n, err := sink(pb.dests[k], rel.GatherInto(stage, sel))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
