package simjoin

import (
	"slices"

	"rock/internal/dataset"
)

// Postings is an inverted index from items to caller-chosen slots, and
// Probe is the full-count kernel over it: for a query t it bumps one
// counter per (item of t, slot containing it), which yields the exact
// |t ∩ s| for every slot sharing an item with t, and keeps the slots with
// Eval(|t ∩ s|, |t|, |s|) >= theta. Eval is the internal/sim arithmetic
// operation for operation, so a slot lands on the same side of theta as a
// merge-intersect scan under the named similarity would put it.
//
// It answers the one question the §4.6 labeling rule and the stream fold
// both ask — which indexed transactions are theta-neighbors of t? — for a
// static set (NewPostings over a model's labeled transactions) and for a
// changing one (Add and Remove as the stream's representatives come and
// go). The join's prefix probe and bitmap sweep verify candidates rather
// than count every posting, so they do not use it.
//
// A posting list holds its slots in insertion order, and Remove swap-deletes
// from it. Item ids in [0, denseItems) find their list through a table, all
// other ids through a map whose entry is dropped with its last posting.
// Transactions must be normalized. Probes may run concurrently with one
// another, each with its own ProbeScratch, but not with Add or Remove.
type Postings struct {
	m     Measure
	theta float64
	// dense[it] indexes item it's list in lists, -1 when it has none;
	// sparse holds the lists of the ids outside the dense range.
	dense  []int32
	lists  [][]int32
	sparse map[dataset.Item][]int32
	// txns[s] is slot s's transaction; lens[s] is its length, -1 when the
	// slot is free.
	txns []dataset.Transaction
	lens []int32
}

// denseItems bounds the dense item translation table (4 bytes an entry).
const denseItems = 1 << 21

// ProbeScratch is one caller's reusable Probe state. The zero value is
// ready; it grows to the index's slot space on first use.
type ProbeScratch struct {
	counts []uint32 // zero between probes
	hits   []int32
}

// NewPostings indexes txns at slots 0…len(txns)-1 for the given measure and
// threshold; txns may be empty. The dense items' lists are sized first and
// carved from one array, so a static index holds them contiguously.
func NewPostings(m Measure, theta float64, txns []dataset.Transaction) *Postings {
	p := &Postings{
		m: m, theta: theta, sparse: map[dataset.Item][]int32{},
		txns: make([]dataset.Transaction, 0, len(txns)), lens: make([]int32, 0, len(txns)),
	}
	var sizes []int32
	total := int32(0)
	for _, t := range txns {
		for _, it := range t {
			if ix := p.denseList(it); ix >= 0 {
				if int(ix) == len(sizes) {
					sizes = append(sizes, 0)
				}
				sizes[ix]++
				total++
			}
		}
	}
	backing := make([]int32, total)
	for ix, n := range sizes {
		p.lists[ix], backing = backing[:0:n], backing[n:]
	}
	for s, t := range txns {
		p.Add(int32(s), t)
	}
	return p
}

// list returns the slots holding item it.
func (p *Postings) list(it dataset.Item) []int32 {
	if uint(it) < uint(len(p.dense)) {
		if ix := p.dense[it]; ix >= 0 {
			return p.lists[ix]
		}
		return nil
	}
	if uint(it) < denseItems {
		return nil
	}
	return p.sparse[it]
}

// denseList returns the index of item it's list, giving it an empty one if
// it has none, or -1 when it lies outside the dense range.
func (p *Postings) denseList(it dataset.Item) int32 {
	if uint(it) >= denseItems {
		return -1
	}
	for int(it) >= len(p.dense) {
		p.dense = append(p.dense, -1)
	}
	if p.dense[it] < 0 {
		p.dense[it] = int32(len(p.lists))
		p.lists = append(p.lists, nil)
	}
	return p.dense[it]
}

// Add indexes t at the free slot s.
func (p *Postings) Add(s int32, t dataset.Transaction) {
	for int(s) >= len(p.lens) {
		p.txns = append(p.txns, nil)
		p.lens = append(p.lens, -1)
	}
	if p.lens[s] >= 0 {
		panic("simjoin: Postings.Add on an occupied slot")
	}
	p.txns[s], p.lens[s] = t, int32(len(t))
	for _, it := range t {
		if ix := p.denseList(it); ix >= 0 {
			p.lists[ix] = append(p.lists[ix], s)
		} else {
			p.sparse[it] = append(p.sparse[it], s)
		}
	}
}

// Remove frees slot s.
func (p *Postings) Remove(s int32) {
	for _, it := range p.txns[s] {
		list := p.list(it)
		i := slices.Index(list, s)
		list[i] = list[len(list)-1]
		list = list[:len(list)-1]
		switch {
		case uint(it) < denseItems:
			p.lists[p.dense[it]] = list
		case len(list) > 0:
			p.sparse[it] = list
		default:
			delete(p.sparse, it)
		}
	}
	p.txns[s], p.lens[s] = nil, -1
}

// Probe returns the occupied slots s with Eval(|t ∩ s|, |t|, |s|) >= theta:
// at theta <= 0 every occupied slot in ascending order, since Eval(0, …) = 0
// qualifies too, and otherwise the slots sharing an item with t in the
// order the postings first reach them. The slice is sc's, valid until sc's
// next probe. t must be normalized.
func (p *Postings) Probe(sc *ProbeScratch, t dataset.Transaction) []int32 {
	if len(sc.counts) < len(p.lens) {
		sc.counts = make([]uint32, len(p.lens))
	}
	hits := sc.hits[:0]
	if p.theta <= 0 {
		for s, l := range p.lens {
			if l >= 0 {
				hits = append(hits, int32(s))
			}
		}
		sc.hits = hits
		return hits
	}
	counts := sc.counts
	for _, it := range t {
		for _, s := range p.list(it) {
			if counts[s] == 0 {
				hits = append(hits, s)
			}
			counts[s]++
		}
	}
	sc.hits = hits
	la, n := len(t), 0
	for _, s := range hits {
		inter := int(counts[s])
		counts[s] = 0
		if p.m.Eval(inter, la, int(p.lens[s])) >= p.theta {
			hits[n] = s
			n++
		}
	}
	return hits[:n]
}
