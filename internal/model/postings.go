package model

import (
	"slices"
	"sync"

	"rock/internal/dataset"
	"rock/internal/label"
	"rock/internal/simjoin"
)

// The compiled assign path. The §4.6 labeling rule needs, for a query
// transaction t, the number of t's neighbors inside every labeled set L_i.
// The scan path answers that with len(sets) × |L_i| merge-intersections —
// O(Σ|L_i| · |t|) work touching every labeled transaction, neighbor or not.
// The compiled path inverts the labeled transactions once at Compile() time
// into a simjoin.Postings, an item → labeled-transaction posting index (the
// B·Bᵀ sparse-product formulation over one-hot rows). Its Probe — the
// kernel the stream fold runs too — accumulates |t ∩ q| in one pass over
// the query's items for exactly the labeled transactions that share an item
// with t, and keeps those with simjoin.Measure.Eval(|t ∩ q|, |t|, |q|) ≥ θ.
// Every built-in set measure (Jaccard, Dice, overlap, cosine) is a function
// of those three counts alone, and Eval is the very same float64 arithmetic
// as internal/sim, so the neighbor predicate, and therefore the winning
// (cluster, score), is bit-identical to the scan path. This file adds the
// q → sets map and the per-set tally.
//
// Work per query drops from Σ|L_i| merge scans to Σ_{item ∈ t} |posting(item)|
// counter bumps plus one float compare per candidate with nonzero overlap.
// All per-query state lives in a pooled scratch buffer, so steady-state
// assignment does zero allocations.

// compiled is the posting-list index built at Compile() time.
type compiled struct {
	post *simjoin.Postings
	// setsOfStart/setsOf map labeled-transaction q to the set indices that
	// contain it, in CSR form. Almost always one set per q, but snapshots
	// may share a transaction between sets and the scan path honors that.
	setsOfStart []int32
	setsOf      []int32
	// scratch pools per-query state so steady-state assignment allocates
	// nothing.
	scratch sync.Pool
}

// scratch is the reusable per-query state: the probe's counters and the
// per-set neighbor tallies.
type scratch struct {
	probe simjoin.ProbeScratch
	setN  []int32
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
		post:        simjoin.NewPostings(measure, s.Theta, s.Txns),
		setsOfStart: make([]int32, len(s.Txns)+1),
	}
	for _, set := range s.Sets {
		for _, q := range set.Points {
			c.setsOfStart[q+1]++
		}
	}
	for q := 0; q < len(s.Txns); q++ {
		c.setsOfStart[q+1] += c.setsOfStart[q]
	}
	c.setsOf = make([]int32, c.setsOfStart[len(s.Txns)])
	fill := slices.Clone(c.setsOfStart[:len(s.Txns)])
	for si, set := range s.Sets {
		for _, q := range set.Points {
			c.setsOf[fill[q]] = int32(si)
			fill[q]++
		}
	}
	nSets := len(s.Sets)
	c.scratch.New = func() any { return &scratch{setN: make([]int32, nSets)} }
	return c
}

// assign runs the labeling rule over the posting lists. t must be normalized
// (the caller falls back to the scan path otherwise). sets is the assigner's
// compiled label.Set slice, iterated in the same order as the scan path so
// ties resolve identically.
func (c *compiled) assign(sets []label.Set, t dataset.Transaction) (int, float64) {
	sc := c.scratch.Get().(*scratch)
	defer c.scratch.Put(sc)
	clear(sc.setN)
	for _, q := range c.post.Probe(&sc.probe, t) {
		for _, si := range c.setsOf[c.setsOfStart[q]:c.setsOfStart[q+1]] {
			sc.setN[si]++
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
