package model

import (
	"sync"

	"rock/internal/dataset"
	"rock/internal/label"
	"rock/internal/simjoin"
)

// The compiled assign path. The §4.6 labeling rule needs, for a query
// transaction t, the number of t's neighbors inside every labeled set L_i.
// The scan path answers that with len(sets) × |L_i| merge-intersections —
// O(Σ|L_i| · |t|) work touching every labeled transaction, neighbor or not.
// The compiled path inverts the labeled transactions once at Compile() time:
// an item-id → posting-list index (the B·Bᵀ sparse-product formulation over
// one-hot rows), so one pass over the query's items accumulates |t ∩ q| for
// exactly the labeled transactions that share an item with t. Every built-in
// set measure (Jaccard, Dice, overlap, cosine) is a function of
// (|t ∩ q|, |t|, |q|) alone, evaluated here by simjoin.Measure.Eval — the
// very same float64 arithmetic as internal/sim, and the one count form the
// neighbor join and the stream fold use too — so the neighbor predicate, and
// therefore the winning (cluster, score), is bit-identical to the scan path.
//
// Work per query drops from Σ|L_i| merge scans to Σ_{item ∈ t} |posting(item)|
// counter bumps plus one float compare per candidate with nonzero overlap.
// All per-query state lives in a pooled scratch buffer, so steady-state
// assignment does zero allocations.

// denseLookupMax bounds the dense item → posting-list translation table (in
// entries; 4 bytes each). Models whose item universe exceeds it fall back to
// a hash lookup per query item.
const denseLookupMax = 1 << 21

// compiled is the posting-list index built at Compile() time.
type compiled struct {
	measure simjoin.Measure
	theta   float64
	// txnLen[q] is |Txns[q]|.
	txnLen []int32
	// setsOfStart/setsOf map labeled-transaction q to the set indices that
	// contain it, in CSR form. Almost always one set per q, but snapshots
	// may share a transaction between sets and the scan path honors that.
	setsOfStart []int32
	setsOf      []int32
	// postStart/postQ are the posting lists: distinct item → the labeled
	// transactions containing it, in CSR form over the remapped item index.
	postStart []int32
	postQ     []int32
	// dense translates an item id to its posting-list index (-1 = absent);
	// nil when the item universe is too large, in which case sparse is used.
	dense  []int32
	sparse map[dataset.Item]int32
	// scratch pools per-query counter state so steady-state assignment
	// allocates nothing.
	scratch sync.Pool
}

// scratch is the reusable per-query state: overlap counters per labeled
// transaction, the list of counters touched (for O(touched) reset), and the
// per-set neighbor tallies.
type scratch struct {
	counts  []uint32
	touched []int32
	setN    []int32
}

// newCompiled builds the posting-list index, or returns nil when the model
// cannot use it: a measure with no count form (no simjoin.Measure), or
// labeled transactions that are not normalized (the scan path's
// merge-intersect then defines the answer, and the posting path could
// diverge from it).
func newCompiled(s *Snapshot) *compiled {
	measure, ok := simjoin.MeasureByName(s.SimName)
	if !ok {
		return nil
	}
	for _, t := range s.Txns {
		if !t.IsNormalized() {
			return nil
		}
	}
	c := &compiled{
		measure: measure,
		theta:   s.Theta,
		txnLen:  make([]int32, len(s.Txns)),
	}
	// q → owning sets, CSR.
	memberships := 0
	for _, set := range s.Sets {
		memberships += len(set.Points)
	}
	perQ := make([]int32, len(s.Txns)+1)
	for _, set := range s.Sets {
		for _, q := range set.Points {
			perQ[q+1]++
		}
	}
	for q := 0; q < len(s.Txns); q++ {
		perQ[q+1] += perQ[q]
	}
	c.setsOfStart = perQ
	c.setsOf = make([]int32, memberships)
	fill := make([]int32, len(s.Txns))
	for si, set := range s.Sets {
		for _, q := range set.Points {
			c.setsOf[c.setsOfStart[q]+fill[q]] = int32(si)
			fill[q]++
		}
	}
	// Distinct items and the item → index translation.
	maxItem := dataset.Item(-1)
	items := make(map[dataset.Item]int32)
	postLen := 0
	for q, t := range s.Txns {
		c.txnLen[q] = int32(len(t))
		postLen += len(t)
		for _, it := range t {
			if _, ok := items[it]; !ok {
				items[it] = int32(len(items))
			}
			if it > maxItem {
				maxItem = it
			}
		}
	}
	if n := int64(maxItem) + 1; maxItem >= 0 && n <= denseLookupMax {
		c.dense = make([]int32, n)
		for i := range c.dense {
			c.dense[i] = -1
		}
		for it, ix := range items {
			c.dense[it] = ix
		}
	} else {
		c.sparse = items
	}
	// Posting lists, CSR over the remapped item index.
	c.postStart = make([]int32, len(items)+1)
	for _, t := range s.Txns {
		for _, it := range t {
			c.postStart[items[it]+1]++
		}
	}
	for i := 0; i < len(items); i++ {
		c.postStart[i+1] += c.postStart[i]
	}
	c.postQ = make([]int32, postLen)
	pfill := make([]int32, len(items))
	for q, t := range s.Txns {
		for _, it := range t {
			ix := items[it]
			c.postQ[c.postStart[ix]+pfill[ix]] = int32(q)
			pfill[ix]++
		}
	}
	nTxns, nSets := len(s.Txns), len(s.Sets)
	c.scratch.New = func() any {
		return &scratch{
			counts:  make([]uint32, nTxns),
			touched: make([]int32, 0, nTxns),
			setN:    make([]int32, nSets),
		}
	}
	return c
}

// lookup translates an item id to its posting-list index, -1 when no labeled
// transaction contains it.
func (c *compiled) lookup(it dataset.Item) int32 {
	if c.dense != nil {
		if it < 0 || int(it) >= len(c.dense) {
			return -1
		}
		return c.dense[it]
	}
	ix, ok := c.sparse[it]
	if !ok {
		return -1
	}
	return ix
}

// assign runs the labeling rule over the posting lists. t must be normalized
// (the caller falls back to the scan path otherwise). sets is the assigner's
// compiled label.Set slice, iterated in the same order as the scan path so
// ties resolve identically.
func (c *compiled) assign(sets []label.Set, t dataset.Transaction) (int, float64) {
	sc := c.scratch.Get().(*scratch)
	defer c.scratch.Put(sc)
	for i := range sc.setN {
		sc.setN[i] = 0
	}
	if c.theta == 0 {
		// sim ≥ 0 always holds, so every labeled transaction is a neighbor
		// — exactly what the scan path computes at theta 0.
		for si := range sets {
			sc.setN[si] = int32(len(sets[si].Points))
		}
		return c.pickWinner(sets, sc)
	}
	la := len(t)
	touched := sc.touched[:0]
	for _, it := range t {
		pi := c.lookup(it)
		if pi < 0 {
			continue
		}
		for _, q := range c.postQ[c.postStart[pi]:c.postStart[pi+1]] {
			if sc.counts[q] == 0 {
				touched = append(touched, q)
			}
			sc.counts[q]++
		}
	}
	sc.touched = touched
	for _, q := range touched {
		inter := int(sc.counts[q])
		sc.counts[q] = 0
		if c.measure.Eval(inter, la, int(c.txnLen[q])) >= c.theta {
			for _, si := range c.setsOf[c.setsOfStart[q]:c.setsOfStart[q+1]] {
				sc.setN[si]++
			}
		}
	}
	return c.pickWinner(sets, sc)
}

// pickWinner mirrors label.AssignScore exactly: same set order, same
// n/norm float64 division, same strict > comparison — so the compiled path
// and the scan path agree bit for bit, ties included.
func (c *compiled) pickWinner(sets []label.Set, sc *scratch) (int, float64) {
	best, bestScore := label.Outlier, 0.0
	for si := range sets {
		n := sc.setN[si]
		if n == 0 {
			continue
		}
		score := float64(n) / sets[si].Norm()
		if score > bestScore {
			best, bestScore = sets[si].Cluster, score
		}
	}
	return best, bestScore
}
