package relop

import (
	"slices"

	"datacell/internal/vector"
)

// SortKey describes one ordering column for Sort.
type SortKey struct {
	Col  *vector.Vector
	Desc bool
}

// Sort returns the permutation of positions [0, n) that orders the input by
// the given keys (stable, so equal keys keep arrival order — important for
// the temporal-order semantics of "order by tag" windows).
func Sort(keys []SortKey, n int) []int32 {
	return SortInto(nil, keys, n)
}

// SortInto is the buffer-reusing form of Sort: it fills perm with the
// positions [0, n) (growing it only when its capacity is insufficient),
// sorts it stably by the keys and returns it. The firing hot path hands in
// an arena-owned permutation so steady-state sorting stays allocation-free.
func SortInto(perm []int32, keys []SortKey, n int) []int32 {
	perm = permAll(perm, n)
	if len(keys) == 0 {
		return perm
	}
	slices.SortStableFunc(perm, func(i, j int32) int {
		return compareKeys(keys, int(i), int(j))
	})
	return perm
}

// permAll resizes perm to n entries reusing its backing array and fills it
// with the identity permutation.
func permAll(perm []int32, n int) []int32 {
	if cap(perm) < n {
		perm = make([]int32, n)
	}
	perm = perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// compareKeys orders two positions by the key list, honouring Desc.
func compareKeys(keys []SortKey, i, j int) int {
	for _, k := range keys {
		c := comparePos(k.Col, i, j)
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

func comparePos(v *vector.Vector, i, j int) int {
	switch v.Kind() {
	case vector.Int, vector.Timestamp:
		s := v.Ints()
		switch {
		case s[i] < s[j]:
			return -1
		case s[i] > s[j]:
			return 1
		default:
			return 0
		}
	case vector.Float:
		s := v.Floats()
		switch {
		case s[i] < s[j]:
			return -1
		case s[i] > s[j]:
			return 1
		default:
			return 0
		}
	case vector.Str:
		return cmpStr(v.Strs()[i], v.Strs()[j])
	case vector.Bool:
		return cmpBool(v.Bools()[i], v.Bools()[j])
	}
	return 0
}

// TopN truncates an ordering permutation to its first n entries, the
// implementation of the DataCell "top n" result-set constraint.
func TopN(perm []int32, n int) []int32 {
	if n < 0 || n > len(perm) {
		n = len(perm)
	}
	return perm[:n]
}

// TopNInto computes the stable top-limit permutation of positions [0, n)
// under the keys, reusing perm's backing array. Instead of a full sort it
// keeps a bounded max-heap of the current best `limit` positions (ordered
// by key, then arrival position, so the result equals SortInto + TopN),
// which is the per-partition state a partial top-n clone maintains between
// combines. limit < 0 or limit >= n degenerates to a full stable sort.
func TopNInto(perm []int32, keys []SortKey, n, limit int) []int32 {
	if limit < 0 || limit >= n {
		return TopN(SortInto(perm, keys, n), limit)
	}
	if limit == 0 {
		return permAll(perm, 0)
	}
	// less is a total order (position breaks ties), so the selection is
	// stable by construction.
	less := func(i, j int32) bool {
		if c := compareKeys(keys, int(i), int(j)); c != 0 {
			return c < 0
		}
		return i < j
	}
	if cap(perm) < limit {
		perm = make([]int32, limit)
	}
	perm = perm[:0]
	siftDown := func(h []int32, i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && less(h[big], h[l]) {
				big = l
			}
			if r < len(h) && less(h[big], h[r]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	for i := 0; i < n; i++ {
		p := int32(i)
		if len(perm) < limit {
			perm = append(perm, p)
			// Sift up.
			for c := len(perm) - 1; c > 0; {
				par := (c - 1) / 2
				if !less(perm[par], perm[c]) {
					break
				}
				perm[par], perm[c] = perm[c], perm[par]
				c = par
			}
			continue
		}
		if less(p, perm[0]) {
			perm[0] = p
			siftDown(perm, 0)
		}
	}
	// Heap-sort the survivors into ascending (key, position) order.
	for end := len(perm) - 1; end > 0; end-- {
		perm[0], perm[end] = perm[end], perm[0]
		h := perm[:end]
		siftDown(h, 0)
	}
	return perm
}

// MergeRuns merges k key-sorted runs of the positions [0, n) into one
// ordering permutation, reusing perm's backing array. bounds holds k+1
// ascending offsets: run i spans positions [bounds[i], bounds[i+1]). The
// merge drives a min-heap of run heads (the "heap of heaps" a combining
// merge emitter uses over per-partition sorted partials), breaking key ties
// by run index and then position, so concatenation order decides ties
// deterministically. Each run must already be sorted by the keys.
func MergeRuns(perm []int32, keys []SortKey, bounds []int32) []int32 {
	if len(bounds) < 2 {
		return permAll(perm, 0)
	}
	n := int(bounds[len(bounds)-1])
	if cap(perm) < n {
		perm = make([]int32, n)
	}
	perm = perm[:0]
	// heads[i] is run i's next unmerged position; heap holds run indices.
	var headsBuf [8]int32
	var heapBuf [8]int32
	k := len(bounds) - 1
	heads := headsBuf[:0]
	if k > len(headsBuf) {
		heads = make([]int32, 0, k)
	}
	heap := heapBuf[:0]
	if k > len(heapBuf) {
		heap = make([]int32, 0, k)
	}
	less := func(a, b int32) bool {
		if c := compareKeys(keys, int(heads[a]), int(heads[b])); c != 0 {
			return c < 0
		}
		return a < b
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	for i := 0; i < k; i++ {
		heads = append(heads, bounds[i])
		if bounds[i] < bounds[i+1] {
			heap = append(heap, int32(i))
			for c := len(heap) - 1; c > 0; {
				par := (c - 1) / 2
				if !less(heap[c], heap[par]) {
					break
				}
				heap[par], heap[c] = heap[c], heap[par]
				c = par
			}
		}
	}
	for len(heap) > 0 {
		run := heap[0]
		perm = append(perm, heads[run])
		heads[run]++
		if heads[run] >= bounds[run+1] {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return perm
}

// IsSortedBy reports whether the positions [lo, hi) are already in key
// order; combining merges use it to take the k-way-merge fast path only
// when each staged partial is a single sorted run.
func IsSortedBy(keys []SortKey, lo, hi int) bool {
	for i := lo + 1; i < hi; i++ {
		if compareKeys(keys, i-1, i) > 0 {
			return false
		}
	}
	return true
}
