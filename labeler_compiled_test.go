package rock

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rock/internal/label"
)

// randomTxn draws up to eight items from [0, universe). raw keeps the draw
// as is — unsorted, with duplicates — which makes an unnormalized query.
func randomTxn(rng *rand.Rand, universe int, raw bool) Transaction {
	items := make([]Item, rng.Intn(9))
	for k := range items {
		items[k] = Item(rng.Intn(universe))
	}
	if raw {
		return Transaction(items)
	}
	return NewTransaction(items...)
}

// randomBasketModel returns random transactions and a random clustering of
// most of them; the points left out play the sample's outliers.
func randomBasketModel(rng *rand.Rand) ([]Transaction, *Result) {
	n := 30 + rng.Intn(90)
	universe := 12 + rng.Intn(30)
	txns := make([]Transaction, n)
	for i := range txns {
		txns[i] = randomTxn(rng, universe, false)
	}
	k := 1 + rng.Intn(5)
	res := &Result{Clusters: make([][]int, k)}
	perm := rng.Perm(n)
	for i, p := range perm[:n-rng.Intn(n/4)] {
		res.Clusters[i%k] = append(res.Clusters[i%k], p)
	}
	for _, c := range res.Clusters {
		sort.Ints(c)
	}
	return txns, res
}

// TestLabelerCompiledMatchesScan: a Labeler over a named similarity assigns
// through the compiled posting-list index, and its (cluster, score) must be
// bit-equal to label.AssignScore scanning the same labeled sets — for
// normalized and unnormalized queries, at every theta. A Labeler over a
// custom similarity has no index and must give the same answers by scan.
func TestLabelerCompiledMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sims := map[string]TxnSimilarity{"jaccard": Jaccard, "dice": Dice, "overlap": Overlap, "cosine": Cosine}
	for trial := 0; trial < 8; trial++ {
		txns, res := randomBasketModel(rng)
		probes := append([]Transaction(nil), txns[:10]...)
		for i := 0; i < 60; i++ {
			probes = append(probes, randomTxn(rng, 45, i%3 == 0))
		}
		lcfg := LabelerConfig{Fraction: 0.5, MinPerCluster: 2, Seed: int64(trial)}
		for _, theta := range []float64{0, 0.3, 0.5, 0.8} {
			for name, f := range sims {
				cfg := Config{K: len(res.Clusters), Theta: theta, Similarity: f}
				lab, err := NewLabeler(txns, res, cfg, lcfg)
				if err != nil {
					t.Fatal(err)
				}
				if lab.asg == nil || !lab.asg.Compiled() {
					t.Fatalf("%s theta=%v: labeler did not compile a posting-list index", name, theta)
				}
				cfg.Similarity = func(a, b Transaction) float64 { return f(a, b) }
				custom, err := NewLabeler(txns, res, cfg, lcfg)
				if err != nil {
					t.Fatal(err)
				}
				if custom.asg != nil {
					t.Fatalf("%s theta=%v: custom similarity compiled", name, theta)
				}
				for _, p := range probes {
					wantC, wantS := label.AssignScore(lab.sets, func(q int) bool { return f(p, txns[q]) >= theta })
					for kind, l := range map[string]*Labeler{"compiled": lab, "custom": custom} {
						gotC, gotS := l.AssignScore(p)
						if gotC != wantC || math.Float64bits(gotS) != math.Float64bits(wantS) {
							t.Fatalf("trial %d %s theta=%v %s labeler on %v: (%d, %v), scan (%d, %v)",
								trial, name, theta, kind, p, gotC, gotS, wantC, wantS)
						}
					}
				}
			}
		}
	}
}
