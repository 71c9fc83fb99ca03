package stream

import (
	"math/bits"
	"slices"

	"rock/internal/dataset"
	"rock/internal/simjoin"
)

// itemBitmaps answers pairwise similarity questions over a small set of
// normalized transactions — a scatter's candidates, the union of two
// representative sets. Each transaction becomes a bitmap over the set's
// distinct items, so a pair's intersection size is the popcount of the AND
// of two rows rather than a merge of two item lists. Measure.Eval mirrors
// the internal/sim functions operation for operation, so sim returns
// exactly what the named similarity returns for the pair.
type itemBitmaps struct {
	measure simjoin.Measure
	txns    []dataset.Transaction
	words   int
	bits    []uint64 // row i is bits[i*words : (i+1)*words]
}

func newItemBitmaps(m simjoin.Measure, txns []dataset.Transaction) *itemBitmaps {
	total := 0
	for _, t := range txns {
		total += len(t)
	}
	items := make([]dataset.Item, 0, total)
	for _, t := range txns {
		items = append(items, t...)
	}
	slices.Sort(items)
	items = slices.Compact(items)
	b := &itemBitmaps{measure: m, txns: txns, words: (len(items) + 63) / 64}
	b.bits = make([]uint64, len(txns)*b.words)
	for i, t := range txns {
		row := b.bits[i*b.words : (i+1)*b.words]
		for _, it := range t {
			p, _ := slices.BinarySearch(items, it)
			row[p>>6] |= 1 << (p & 63)
		}
	}
	return b
}

// sim returns the similarity of transactions i and j.
func (b *itemBitmaps) sim(i, j int) float64 {
	ri := b.bits[i*b.words : (i+1)*b.words]
	rj := b.bits[j*b.words : (j+1)*b.words]
	inter := 0
	for k, w := range ri {
		inter += bits.OnesCount64(w & rj[k])
	}
	return b.measure.Eval(inter, len(b.txns[i]), len(b.txns[j]))
}

// dist is the scatter distance 1 - sim.
func (b *itemBitmaps) dist(i, j int) float64 { return 1 - b.sim(i, j) }
