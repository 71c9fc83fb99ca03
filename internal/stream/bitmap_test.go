package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rock/internal/dataset"
	"rock/internal/sim"
	"rock/internal/simjoin"
)

// simF is the reference similarity for the clusterer's tests: the named
// internal/sim function, which the count paths (rep index, item bitmaps)
// must reproduce bit for bit.
func (c *Clusterer) simF(a, b dataset.Transaction) float64 {
	f, ok := sim.TxnByName(c.cfg.simName())
	if !ok {
		panic("unknown similarity " + c.cfg.simName())
	}
	return f(a, b)
}

// TestItemBitmapsMatchSim: the bitmap distance of every pair is bit-equal
// to 1 - the named similarity, under every measure, on random and drifting
// transactions mixed with empty and single-item ones, for sets small enough
// to fit one bitmap word and large enough to need several.
func TestItemBitmapsMatchSim(t *testing.T) {
	streams := map[string]func(*rand.Rand) foldStream{"random": randomStream, "drift": driftStream}
	for _, name := range []string{"jaccard", "dice", "cosine", "overlap"} {
		m, _ := simjoin.MeasureByName(name)
		f, _ := sim.TxnByName(name)
		for kind, mk := range streams {
			for _, n := range []int{1, 2, 40, 300} {
				t.Run(fmt.Sprintf("%s/%s/n=%d", name, kind, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)))
					next := mk(rng)
					txns := make([]dataset.Transaction, n)
					for i := range txns {
						switch rng.Intn(10) {
						case 0:
							txns[i] = dataset.Transaction{}
						case 1:
							txns[i] = dataset.Transaction{dataset.Item(rng.Intn(50))}
						default:
							txns[i] = next()
						}
					}
					b := newItemBitmaps(m, txns)
					for i := range txns {
						for j := range txns {
							want := 1 - f(txns[i], txns[j])
							if got := b.dist(i, j); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("pair %v, %v: bitmap distance %v, 1 - %s %v", txns[i], txns[j], got, name, want)
							}
						}
					}
				})
			}
		}
	}
}
