package stream

import (
	"rock/internal/dataset"
	"rock/internal/simjoin"
)

// repIndex is an item → slot posting index over the live representatives:
// the fold's answer to "which representatives are theta-adjacent to t?"
// without a similarity evaluation per representative. A query bumps one
// counter per (item of t, representative containing it), which yields the
// exact |t ∩ r| for every representative sharing an item with t, and then
// applies measure.Eval to those counts. Eval is operation for operation the
// internal/sim function (see simjoin.Measure.Eval), so every pair lands on
// the same side of theta as a scan under the named similarity would put it.
//
// Slots are the links.Dynamic slots of the representatives; the index
// mirrors that universe exactly (add next to Dynamic.Add, remove next to
// Dynamic.Remove). Transactions must be normalized.
type repIndex struct {
	measure simjoin.Measure
	theta   float64
	post    map[dataset.Item][]int32
	// txn[s] and owner[s] describe slot s; owner is -1 for a free slot.
	txn   []dataset.Transaction
	owner []int32
	// counts and adj are per-query scratch: counts is zero between queries.
	counts []uint32
	adj    []int32
}

func newRepIndex(m simjoin.Measure, theta float64) *repIndex {
	return &repIndex{measure: m, theta: theta, post: make(map[dataset.Item][]int32)}
}

// add registers representative r, owned by the cluster with id owner, at
// slot s.
func (x *repIndex) add(s int32, r dataset.Transaction, owner int) {
	for int(s) >= len(x.owner) {
		x.txn = append(x.txn, nil)
		x.owner = append(x.owner, -1)
		x.counts = append(x.counts, 0)
	}
	x.txn[s], x.owner[s] = r, int32(owner)
	for _, it := range r {
		x.post[it] = append(x.post[it], s)
	}
}

// remove retires slot s.
func (x *repIndex) remove(s int32) {
	for _, it := range x.txn[s] {
		list := x.post[it]
		for i, o := range list {
			if o == s {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(x.post, it)
		} else {
			x.post[it] = list
		}
	}
	x.txn[s], x.owner[s] = nil, -1
}

// adjacent returns the live slots whose representative r satisfies
// sim(t, r) >= theta, in no particular order. The slice is scratch, valid
// until the next call.
func (x *repIndex) adjacent(t dataset.Transaction) []int32 {
	adj := x.adj[:0]
	if x.theta <= 0 {
		// Eval(0, ...) = 0 >= theta: every live slot qualifies, including
		// those sharing no item with t.
		for s, o := range x.owner {
			if o >= 0 {
				adj = append(adj, int32(s))
			}
		}
		x.adj = adj
		return adj
	}
	// Collect touched slots in adj, then filter in place.
	for _, it := range t {
		for _, s := range x.post[it] {
			if x.counts[s] == 0 {
				adj = append(adj, s)
			}
			x.counts[s]++
		}
	}
	n := 0
	for _, s := range adj {
		inter := int(x.counts[s])
		x.counts[s] = 0
		if x.measure.Eval(inter, len(t), len(x.txn[s])) >= x.theta {
			adj[n] = s
			n++
		}
	}
	x.adj = adj[:n]
	return x.adj
}
