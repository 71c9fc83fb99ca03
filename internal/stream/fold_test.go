package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/rockcore"
	"rock/internal/simjoin"
)

// scanBestCluster is the reference fold scoring: every representative of
// every cluster is θ-tested with c.simF, in cluster order.
func scanBestCluster(c *Clusterer, t dataset.Transaction) (*cluster, float64) {
	probe := c.d.NewProbe()
	direct := make([]int, len(c.clusters))
	for ci, cl := range c.clusters {
		for i, r := range cl.repTxns {
			if c.simF(t, r) >= c.theta {
				c.d.Mark(probe, cl.repSlots[i])
				direct[ci]++
			}
		}
	}
	var best *cluster
	bestG := 0.0
	for ci, cl := range c.clusters {
		if direct[ci] == 0 {
			continue
		}
		cross := direct[ci]
		for _, s := range cl.repSlots {
			cross += c.d.Common(probe, s)
		}
		g := float64(cross) / rockcore.ExpectedCrossLinks(len(cl.repSlots), 1, c.f)
		if g > bestG {
			bestG, best = g, cl
		}
	}
	return best, bestG
}

// scanMergeTarget is the reference merge test: every cluster is scored.
func scanMergeTarget(c *Clusterer, cand []dataset.Transaction) *cluster {
	var best *cluster
	bestG := 0.0
	for _, cl := range c.clusters {
		if g := c.repSetGoodness(cand, cl.repTxns); g > bestG {
			bestG, best = g, cl
		}
	}
	if best != nil && bestG >= c.cfg.minMergeGoodness() {
		return best
	}
	return nil
}

// checkReps asserts that the rep index answers for exactly the live
// representatives — every live rep's probe is the brute-force θ-adjacency
// under c.simF over the live reps, itself included — that owner maps each
// rep slot to its cluster, and that the Dynamic adjacency among them is
// the brute-force θ-adjacency.
func checkReps(t *testing.T, c *Clusterer) {
	t.Helper()
	type rep struct {
		slot int32
		txn  dataset.Transaction
	}
	var live []rep
	for _, cl := range c.clusters {
		if len(cl.repSlots) != len(cl.repTxns) {
			t.Fatalf("cluster %d: %d slots for %d reps", cl.id, len(cl.repSlots), len(cl.repTxns))
		}
		for i, s := range cl.repSlots {
			if int(s) >= len(c.owner) || c.owner[s] != int32(cl.id) {
				t.Fatalf("cluster %d: slot %d not owned by it", cl.id, s)
			}
			live = append(live, rep{s, cl.repTxns[i]})
		}
	}
	if c.d.Live() != len(live) {
		t.Fatalf("Dynamic holds %d slots, live reps %d", c.d.Live(), len(live))
	}
	var sc simjoin.ProbeScratch
	for _, a := range live {
		var want []int32
		for _, b := range live {
			if c.simF(a.txn, b.txn) >= c.theta {
				want = append(want, b.slot)
			}
		}
		got := slices.Clone(c.reps.Probe(&sc, a.txn))
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("rep slot %d %v: index answers %v, brute force %v", a.slot, a.txn, got, want)
		}
	}
	for i := range live {
		for j := i + 1; j < len(live); j++ {
			want := c.simF(live[i].txn, live[j].txn) >= c.theta
			if got := c.d.Adjacent(live[i].slot, live[j].slot); got != want {
				t.Fatalf("slots %d,%d: Dynamic adjacency %v, brute force %v", live[i].slot, live[j].slot, got, want)
			}
		}
	}
}

// foldStream yields arrivals for the equivalence property.
type foldStream func() dataset.Transaction

// randomStream draws noisy subsets of a few random templates over a small
// vocabulary, with the odd empty transaction: many reps share no item with
// an arrival, which is what the θ = 0 path must still count.
func randomStream(rng *rand.Rand) foldStream {
	tpls := make([]dataset.Transaction, 4)
	for i := range tpls {
		tpls[i] = randomTxn(rng, 40, 6+rng.Intn(6))
	}
	return func() dataset.Transaction {
		switch r := rng.Intn(20); {
		case r == 0:
			return dataset.Transaction{}
		case r < 4:
			return randomTxn(rng, 40, 1+rng.Intn(8))
		}
		tpl := tpls[rng.Intn(len(tpls))]
		t := draw(tpl, (len(tpl)*3+3)/4, rng)
		if rng.Intn(3) == 0 {
			t = append(t, dataset.Item(rng.Intn(40)))
			t.Normalize()
		}
		return t
	}
}

func randomTxn(rng *rand.Rand, vocab, n int) dataset.Transaction {
	t := make(dataset.Transaction, n)
	for i := range t {
		t[i] = dataset.Item(rng.Intn(vocab))
	}
	t.Normalize()
	return t
}

func driftStream(rng *rand.Rand) foldStream {
	gen := datagen.NewDriftStream(datagen.DriftConfig{
		Basket: datagen.ScaledBasketConfig(100), DriftEvery: 400, DriftFrac: 0.4,
	}, rng)
	return func() dataset.Transaction {
		t, _ := gen.Next()
		return t
	}
}

// observeChecked runs Observe on t, asserting first that the indexed fold
// scores t exactly as the scan does and then that the disposition follows;
// after every rep refresh or promotion it checks the rep universe.
func observeChecked(t *testing.T, c *Clusterer, txn dataset.Transaction, recent []dataset.Transaction) {
	t.Helper()
	wantCl, wantG := scanBestCluster(c, txn)
	gotCl, gotG := c.bestCluster(txn)
	if gotCl != wantCl || gotG != wantG {
		t.Fatalf("arrival %d %v: indexed (%v, %v), scan (%v, %v)", c.total+1, txn, clusterID(gotCl), gotG, clusterID(wantCl), wantG)
	}
	want := Disposition{}
	if wantCl != nil && wantG >= c.cfg.minFoldGoodness() {
		want = Disposition{Absorbed: true, Cluster: wantCl.id}
	}
	before := c.metrics.Reclusters.Load()
	if got := c.Observe(txn); got != want {
		t.Fatalf("arrival %d: disposition %+v, scan says %+v", c.total, got, want)
	}
	refreshed := want.Absorbed && c.clusters[want.Cluster].sinceRefresh == 0
	if refreshed || c.metrics.Reclusters.Load() != before {
		checkReps(t, c)
		if len(recent) > 0 {
			cand := make([]dataset.Transaction, 0, 8)
			for i := 0; i < 8; i++ {
				cand = append(cand, recent[(int(c.total)+i*7)%len(recent)])
			}
			if got, want := c.mergeTarget(cand), scanMergeTarget(c, cand); got != want {
				t.Fatalf("arrival %d: mergeTarget %v, scan %v", c.total, clusterID(got), clusterID(want))
			}
		}
	}
}

func clusterID(cl *cluster) int {
	if cl == nil {
		return -1
	}
	return cl.id
}

// TestFoldIndexMatchesScan: the posting-indexed fold returns the same
// (cluster, goodness) and disposition as a scan over every representative,
// under every count measure and θ from 0 to 1, on random and drifting
// streams and on a clusterer Seed-primed from a snapshot whose transactions
// are not normalized; the rep index and the Dynamic adjacency match brute
// force after every refresh and promotion.
func TestFoldIndexMatchesScan(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 600
	}
	streams := map[string]func(*rand.Rand) foldStream{"random": randomStream, "drift": driftStream}
	for _, name := range []string{"jaccard", "dice", "cosine", "overlap"} {
		for _, theta := range []float64{0, 0.3, 0.5, 0.8, 1} {
			for kind, mk := range streams {
				t.Run(fmt.Sprintf("%s/%v/%s", name, theta, kind), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(kind)*100) + int64(theta*10)))
					next := mk(rng)
					cfg := Config{Theta: theta, SimName: name, ReclusterEvery: 48, MinPromote: 6, Seed: 3}
					c := New(cfg)
					var recent []dataset.Transaction
					feed := func(c *Clusterer, count int) {
						for i := 0; i < count; i++ {
							txn := next()
							observeChecked(t, c, txn, recent)
							if len(recent) < 64 {
								recent = append(recent, txn)
							} else {
								recent[rng.Intn(len(recent))] = txn
							}
						}
					}
					feed(c, n)
					snap := c.BuildSnapshot()
					if snap == nil {
						return
					}
					// Reversed items: Seed must normalize what it indexes.
					for i, txn := range snap.Txns {
						snap.Txns[i] = slices.Clone(txn)
						slices.Reverse(snap.Txns[i])
					}
					cfg.Seed = 4
					primed := New(cfg)
					if err := primed.Seed(snap); err != nil {
						t.Fatal(err)
					}
					checkReps(t, primed)
					feed(primed, n/3)
				})
			}
		}
	}
}

// TestBestClusterZeroAllocs pins the fold's scoring at zero allocations
// once the clusterer's scratch has grown to the rep universe.
func TestBestClusterZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	next := driftStream(rng)
	c := New(Config{Theta: 0.5, ReclusterEvery: 128, MinPromote: 8, Seed: 9})
	for i := 0; i < 3000; i++ {
		c.Observe(next())
	}
	if len(c.clusters) == 0 {
		t.Fatal("no clusters after warm-up")
	}
	probes := make([]dataset.Transaction, 64)
	for i := range probes {
		probes[i] = next()
		c.bestCluster(probes[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		c.bestCluster(probes[i%len(probes)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("bestCluster allocates %.1f objects/op, want 0", allocs)
	}
}
