package basket

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"datacell/internal/bat"
	"datacell/internal/interval"
	"datacell/internal/vector"
)

// Router computes the destination assignment of stream tuples under a
// partitioning verdict: round-robin, hash(col) or range(col) with a
// catch-all slot for tuples no query of the wiring can match. It is the
// routing half of the PartitionedBasket, extracted so that the decision
// "which partition gets this tuple" can be consulted anywhere tuples
// enter the system — the core partition splitter and, since the ingest
// periphery routes at the socket, every receptor shard — while the
// baskets themselves stay a placement concern.
//
// A Router is safe for concurrent use: the only mutable state is the
// round-robin cursor, which is advanced atomically, so several receptor
// shards routing batches of the same stream stay collectively balanced.
type Router struct {
	mode PartitionMode
	col  string // routing column (user-schema name) under hash and range
	p    int    // scanned destinations (the catch-all is not among them)
	rr   atomic.Int64

	// Range-routing state (mode PartitionRange). set is the matching
	// value domain; cuts are the p-1 ascending numeric cut points slicing
	// it into equal-measure partition ranges (nil when the set has no
	// sliceable measure, in which case matching tuples place by hash);
	// tuples outside set route to the catch-all slot p.
	set  interval.Set
	cuts []float64

	// Hash-prune state (mode PartitionHash with a sargable side
	// condition): tuples whose pruneCol value lies outside set divert to
	// the catch-all slot p before any partial-aggregate clone sees them,
	// the rest place by hash(col) as usual. Empty pruneCol disables
	// pruning.
	pruneCol string
}

// NewRouter builds a round-robin or hash router over p destinations.
func NewRouter(mode PartitionMode, col string, p int) (*Router, error) {
	if p < 1 {
		return nil, fmt.Errorf("basket: router: need at least 1 destination, got %d", p)
	}
	if mode == PartitionRange {
		return nil, fmt.Errorf("basket: router: range mode needs an interval set; use NewRangeRouter")
	}
	return &Router{mode: mode, col: col, p: p}, nil
}

// NewHashPrunedRouter builds a hash router over p destinations plus the
// catch-all slot p: tuples route by hash(hashCol) when their pruneCol
// value lies in set (a necessary condition of matching any query of the
// wiring) and to slot p otherwise. set must not cover every value — that
// is plain hash routing with a dead slot.
func NewHashPrunedRouter(hashCol, pruneCol string, p int, set interval.Set) (*Router, error) {
	if p < 1 {
		return nil, fmt.Errorf("basket: router: need at least 1 destination, got %d", p)
	}
	if pruneCol == "" {
		return nil, fmt.Errorf("basket: router: hash-pruned router needs a prune column")
	}
	if set.All() {
		return nil, fmt.Errorf("basket: router: prune set on %q covers every value; use plain hash", pruneCol)
	}
	return &Router{mode: PartitionHash, col: hashCol, p: p, pruneCol: pruneCol, set: set}, nil
}

// NewRangeRouter builds a range router over p destinations plus the
// catch-all slot p: tuples whose col value lies in set spread over the
// destinations (by equal-measure range slices when the set is numeric and
// bounded, by hash otherwise), tuples outside set route to slot p.
func NewRangeRouter(col string, p int, set interval.Set) (*Router, error) {
	if p < 1 {
		return nil, fmt.Errorf("basket: router: need at least 1 destination, got %d", p)
	}
	r := &Router{mode: PartitionRange, col: col, p: p, set: set}
	r.cuts, _ = set.Cuts(p)
	return r, nil
}

// NumDestinations returns the number of routing slots: p scanned
// destinations, plus one catch-all slot under range mode and pruned hash
// mode.
func (r *Router) NumDestinations() int {
	if r.mode == PartitionRange || r.pruneCol != "" {
		return r.p + 1
	}
	return r.p
}

// Describe renders the routing for explain/monitoring output:
// "round-robin", "hash(k)", "range(v)".
func (r *Router) Describe() string {
	switch r.mode {
	case PartitionHash:
		if r.pruneCol != "" {
			return fmt.Sprintf("hash(%s)+prune(%s)", r.col, r.pruneCol)
		}
		return fmt.Sprintf("hash(%s)", r.col)
	case PartitionRange:
		return fmt.Sprintf("range(%s)", r.col)
	}
	return r.mode.String()
}

// RouteInto computes the routing assignment of rel's tuples into sels,
// one ascending position list per destination slot (empty for slots that
// receive nothing), reusing their capacity. sels must hold
// NumDestinations lists; under range routing the final slot is the
// catch-all's. It advances the round-robin cursor but does not touch any
// basket, and returns sels.
func (r *Router) RouteInto(rel *bat.Relation, sels [][]int32) ([][]int32, error) {
	if len(sels) != r.NumDestinations() {
		return nil, fmt.Errorf("basket: router: %d destination slots, want %d", len(sels), r.NumDestinations())
	}
	for i := range sels {
		sels[i] = sels[i][:0]
	}
	p := r.p
	n := rel.Len()
	if n == 0 {
		return sels, nil
	}
	if p == 1 && r.mode != PartitionRange && r.pruneCol == "" {
		sels[0] = appendPositions(sels[0], n)
		return sels, nil
	}
	switch r.mode {
	case PartitionRoundRobin:
		base := r.rr.Add(int64(n)) - int64(n)
		for i := 0; i < n; i++ {
			k := int((base + int64(i)) % int64(p))
			sels[k] = append(sels[k], int32(i))
		}
	case PartitionHash:
		v := rel.ColByName(r.col)
		if v == nil {
			return nil, fmt.Errorf("basket: router: relation has no column %q", r.col)
		}
		var pv *vector.Vector
		if r.pruneCol != "" {
			pv = rel.ColByName(r.pruneCol)
			if pv == nil {
				return nil, fmt.Errorf("basket: router: relation has no column %q", r.pruneCol)
			}
		}
		for i := 0; i < n; i++ {
			if pv != nil && !r.set.Contains(pv.Get(i)) {
				// Necessary condition fails: no query of the wiring can
				// match the tuple, divert it past the clones.
				sels[p] = append(sels[p], int32(i))
				continue
			}
			k := int(hashValue(v, i) % uint64(p))
			sels[k] = append(sels[k], int32(i))
		}
	case PartitionRange:
		v := rel.ColByName(r.col)
		if v == nil {
			return nil, fmt.Errorf("basket: router: relation has no column %q", r.col)
		}
		for i := 0; i < n; i++ {
			val := v.Get(i)
			k := p // catch-all: no query of this wiring can match the tuple
			if r.set.Contains(val) {
				switch {
				case p == 1:
					k = 0
				case r.cuts != nil:
					// Partition j owns the j-th equal-measure half-open
					// slice of the matching domain (boundary values go
					// right, mirroring the `lo <= v and v < hi` window
					// idiom). Placement within the matching set never
					// affects correctness, only balance.
					x := val.AsFloat()
					k = sort.Search(len(r.cuts), func(i int) bool { return r.cuts[i] > x })
					if k >= p {
						k = p - 1
					}
				default:
					// No sliceable measure (IN-sets, unbounded or
					// non-numeric ranges): place matchers by hash.
					k = int(hashValue(v, i) % uint64(p))
				}
			}
			sels[k] = append(sels[k], int32(i))
		}
	default:
		return nil, fmt.Errorf("basket: router: unknown mode %d", r.mode)
	}
	return sels, nil
}

// appendPositions appends 0..n-1 to sel.
func appendPositions(sel []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}

// hashValue hashes element i of a column vector. The hash only has to
// co-locate equal keys; it carries no cross-run stability guarantees.
func hashValue(v *vector.Vector, i int) uint64 {
	switch v.Kind() {
	case vector.Int, vector.Timestamp:
		return mix64(uint64(v.Ints()[i]))
	case vector.Float:
		// -0.0 and +0.0 are one grouping key, and so is every NaN
		// payload: equal keys must route to one partition.
		f := v.Floats()[i]
		switch {
		case f == 0:
			f = 0
		case f != f:
			f = math.NaN()
		}
		return mix64(math.Float64bits(f))
	case vector.Bool:
		if v.Bools()[i] {
			return mix64(1)
		}
		return mix64(0)
	case vector.Str:
		// FNV-1a.
		h := uint64(14695981039346656037)
		for _, c := range []byte(v.Strs()[i]) {
			h ^= uint64(c)
			h *= 1099511628211
		}
		return mix64(h)
	}
	return 0
}

// mix64 is the splitmix64 finaliser, scrambling low-entropy keys (small
// ints) into well-spread partition assignments.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
