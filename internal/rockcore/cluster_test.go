package rockcore

import (
	"math"
	"math/rand"
	"testing"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/eval"
	"rock/internal/links"
	"rock/internal/sim"
)

// figure1 builds the paper's Figure 1 data: all 3-subsets of {1..5} and all
// 3-subsets of {1,2,6,7}; labels 0 and 1.
func figure1() (txns []dataset.Transaction, labels []int) {
	add := func(items []dataset.Item, label int) {
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				for k := j + 1; k < len(items); k++ {
					txns = append(txns, dataset.NewTransaction(items[i], items[j], items[k]))
					labels = append(labels, label)
				}
			}
		}
	}
	add([]dataset.Item{1, 2, 3, 4, 5}, 0)
	add([]dataset.Item{1, 2, 6, 7}, 1)
	return txns, labels
}

// TestFigure1MostLinksInOwnCluster verifies Section 3.2's literal claim:
// "for each transaction, the transaction that it has the most links with is
// a transaction in its own cluster" at theta = 0.5.
func TestFigure1MostLinksInOwnCluster(t *testing.T) {
	txns, labels := figure1()
	nb := links.ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), links.Config{Theta: 0.5})
	table := links.Compute(nb, links.DefaultDenseLimit)
	for i := range txns {
		best, bestLinks := -1, -1
		table.ForEach(i, func(j, l int) {
			if l > bestLinks || (l == bestLinks && labels[j] == labels[i]) {
				best, bestLinks = j, l
			}
		})
		if best < 0 {
			t.Fatalf("transaction %d (%v) has no links at all", i, txns[i])
		}
		if labels[best] != labels[i] {
			t.Errorf("transaction %v: most-linked partner %v (%d links) is in the other cluster",
				txns[i], txns[best], bestLinks)
		}
	}
}

// TestFigure1Recovery runs the full algorithm on the Figure 1 data. The
// paper's f(theta) = (1-theta)/(1+theta) models sparse market-basket
// clusters; in this dense 14-point example nearly every in-cluster pair is a
// neighbor, so the appropriate exponent model is f ≈ 1 (the paper notes
// "f() is a function that is dependent on the data set as well as the kind
// of clusters we are interested in"). With it, ROCK separates the two
// overlapping clusters exactly.
func TestFigure1Recovery(t *testing.T) {
	txns, labels := figure1()
	res, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{
		K: 2, Theta: 0.5,
		F: func(float64) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(res.Clusters))
	}
	if got := eval.Misclassified(res.Clusters, labels, 2, len(txns)); got != 0 {
		t.Errorf("misclassified = %d, want 0; clusters: %v", got, res.Clusters)
	}
	if len(res.Clusters[0]) != 10 || len(res.Clusters[1]) != 4 {
		t.Errorf("cluster sizes = %d, %d; want 10, 4", len(res.Clusters[0]), len(res.Clusters[1]))
	}
}

// TestExample11NoLinkMerge verifies Example 1.1's resolution: with
// "neighbors share at least one item" ({1,4} and {6}) have no links and are
// never merged; ROCK stops with them apart.
func TestExample11NoLinkMerge(t *testing.T) {
	txns := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3, 5),
		dataset.NewTransaction(2, 3, 4, 5),
		dataset.NewTransaction(1, 4),
		dataset.NewTransaction(6),
	}
	// Any positive theta makes "at least one common item" the neighbor
	// rule's lower bound under Jaccard; theta=0.2 keeps {1,4} a neighbor
	// of both big transactions (1/5 = 0.2) but {6} of nothing.
	res, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{K: 2, Theta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		in := make(map[int]bool)
		for _, p := range c {
			in[p] = true
		}
		if in[2] && in[3] {
			t.Fatalf("{1,4} and {6} merged into one cluster: %v", res.Clusters)
		}
	}
	if !res.Stats.StoppedNoLinks && len(res.Clusters) <= 2 {
		// {6} has no neighbors at all, so it can never merge; we must
		// have stopped with it isolated.
		found := false
		for _, c := range res.Clusters {
			if len(c) == 1 && c[0] == 3 {
				found = true
			}
		}
		if !found {
			t.Errorf("expected {6} isolated; clusters: %v", res.Clusters)
		}
	}
}

func TestKValidation(t *testing.T) {
	txns, _ := figure1()
	if _, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{K: 0, Theta: 0.5}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{K: 2, Theta: 1.5}); err == nil {
		t.Error("theta=1.5 accepted")
	}
}

// TestThetaValidation: θ outside [0,1], NaN included, is rejected before
// any work; NaN would otherwise pass both range comparisons and silently
// find no neighbors.
func TestThetaValidation(t *testing.T) {
	txns, _ := figure1()
	for _, c := range []struct {
		theta float64
		ok    bool
	}{
		{math.NaN(), false}, {-0.1, false}, {1.5, false}, {math.Inf(1), false},
		{0, true}, {0.5, true}, {1, true},
	} {
		_, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{K: 2, Theta: c.theta})
		if (err == nil) != c.ok {
			t.Errorf("theta %v: err = %v, want accepted %v", c.theta, err, c.ok)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Cluster(0, func(i, j int) float64 { return 0 }, Config{K: 3, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 || len(res.Outliers) != 0 {
		t.Fatalf("unexpected non-empty result: %+v", res)
	}
}

func TestKAtLeastNReturnsSingletons(t *testing.T) {
	txns, _ := figure1()
	res, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{K: len(txns), Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != len(txns) {
		t.Fatalf("got %d clusters, want %d singletons", len(res.Clusters), len(txns))
	}
}

func TestMinNeighborsPrunesIsolated(t *testing.T) {
	txns := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3),
		dataset.NewTransaction(1, 2, 4),
		dataset.NewTransaction(1, 3, 4),
		dataset.NewTransaction(7, 8, 9),
		dataset.NewTransaction(7, 8, 10),
		dataset.NewTransaction(7, 9, 10),
		dataset.NewTransaction(20, 21), // isolated outlier
	}
	res, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{
		K: 2, Theta: 0.4, MinNeighbors: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outliers) != 1 || res.Outliers[0] != 6 {
		t.Fatalf("outliers = %v, want [6]", res.Outliers)
	}
	if res.Stats.Pruned != 1 {
		t.Fatalf("pruned = %d, want 1", res.Stats.Pruned)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v, want 2 clusters", res.Clusters)
	}
}

func TestWeedingRemovesSmallClusters(t *testing.T) {
	// Two dense 6-point cliques plus a loose 2-point pair far away.
	var txns []dataset.Transaction
	clique := func(base dataset.Item) {
		items := []dataset.Item{base, base + 1, base + 2, base + 3}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				for k := j + 1; k < 4; k++ {
					txns = append(txns, dataset.NewTransaction(items[i], items[j], items[k]))
				}
			}
		}
	}
	clique(1)
	clique(100)
	txns = append(txns, dataset.NewTransaction(200, 201, 202), dataset.NewTransaction(200, 201, 203))
	res, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{
		K: 2, Theta: 0.5, StopMultiple: 1.5, MinClusterSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Weeded != 2 {
		t.Fatalf("weeded = %d (outliers %v), want 2", res.Stats.Weeded, res.Outliers)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("got %d clusters, want 2: %v", len(res.Clusters), res.Clusters)
	}
	for _, c := range res.Clusters {
		if len(c) != 4 {
			t.Errorf("cluster size %d, want 4", len(c))
		}
	}
}

// TestBasketRecovery is the integration check: ROCK recovers the Section 5.3
// synthetic clusters from a scaled-down generation.
func TestBasketRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := Config{
		K:              data.NumClusters(),
		Theta:          0.5,
		MinNeighbors:   2,
		StopMultiple:   3,
		MinClusterSize: 10,
	}
	res, err := Cluster(len(data.Txns), sim.ByIndex(data.Txns, sim.Jaccard), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Outliers are unlabeled ground truth; measure misclassification over
	// true-cluster members only.
	labels := data.Labels
	mis, total := 0, 0
	assigned := make([]int, len(labels))
	for i := range assigned {
		assigned[i] = -1
	}
	for c, members := range res.Clusters {
		for _, p := range members {
			assigned[p] = c
		}
	}
	// Majority mapping cluster -> true label.
	maj := make([]map[int]int, len(res.Clusters))
	for c := range maj {
		maj[c] = make(map[int]int)
	}
	for p, c := range assigned {
		if c >= 0 && labels[p] >= 0 {
			maj[c][labels[p]]++
		}
	}
	majLabel := make([]int, len(res.Clusters))
	for c, m := range maj {
		best, bestN := -1, -1
		for l, n := range m {
			if n > bestN {
				best, bestN = l, n
			}
		}
		majLabel[c] = best
	}
	for p, l := range labels {
		if l < 0 {
			continue // true outlier
		}
		total++
		c := assigned[p]
		if c < 0 || majLabel[c] != l {
			mis++
		}
	}
	if frac := float64(mis) / float64(total); frac > 0.05 {
		t.Errorf("misclassified %d/%d (%.1f%%) true-cluster transactions", mis, total, 100*frac)
	}
	if len(res.Clusters) != data.NumClusters() {
		t.Logf("note: found %d clusters for %d true (paper: K is a hint)", len(res.Clusters), data.NumClusters())
	}
}

func TestCriterionPositiveAndStable(t *testing.T) {
	txns, _ := figure1()
	res, err := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{K: 2, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Criterion <= 0 || math.IsNaN(res.Criterion) {
		t.Fatalf("criterion = %v", res.Criterion)
	}
	// Deterministic across runs.
	res2, _ := Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{K: 2, Theta: 0.5})
	if res.Criterion != res2.Criterion {
		t.Fatalf("criterion not deterministic: %v vs %v", res.Criterion, res2.Criterion)
	}
}

// TestRawGoodnessAblationWorse checks the Section 4.2 claim that raw
// cross-link counts (no expected-link normalization) let big clusters
// swallow others: on the basket workload the normalized goodness must not be
// worse than the raw variant.
func TestRawGoodnessAblationWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := datagen.Basket(datagen.ScaledBasketConfig(200), rng)
	base := Config{K: data.NumClusters(), Theta: 0.5, MinNeighbors: 2}
	norm, err := Cluster(len(data.Txns), sim.ByIndex(data.Txns, sim.Jaccard), base)
	if err != nil {
		t.Fatal(err)
	}
	raw := base
	raw.RawCrossLinkGoodness = true
	rawRes, err := Cluster(len(data.Txns), sim.ByIndex(data.Txns, sim.Jaccard), raw)
	if err != nil {
		t.Fatal(err)
	}
	labelsNonOutlier := func() ([]int, int) {
		l := make([]int, len(data.Labels))
		copy(l, data.Labels)
		n := 0
		for i := range l {
			if l[i] < 0 {
				l[i] = data.NumClusters() // park outliers in a spare class
			} else {
				n++
			}
		}
		return l, n
	}
	labels, _ := labelsNonOutlier()
	normPurity := eval.Purity(norm.Clusters, labels, data.NumClusters()+1)
	rawPurity := eval.Purity(rawRes.Clusters, labels, data.NumClusters()+1)
	if normPurity < rawPurity-0.02 {
		t.Errorf("normalized goodness purity %.3f < raw %.3f", normPurity, rawPurity)
	}
}

func TestGoodnessFormula(t *testing.T) {
	f := DefaultF(0.5) // 1/3
	got := Goodness(6, 2, 3, f)
	e := 1 + 2*f
	want := 6 / (math.Pow(5, e) - math.Pow(2, e) - math.Pow(3, e))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Goodness = %v, want %v", got, want)
	}
}

func TestDefaultFEndpoints(t *testing.T) {
	if DefaultF(1) != 0 {
		t.Errorf("f(1) = %v, want 0", DefaultF(1))
	}
	if DefaultF(0) != 1 {
		t.Errorf("f(0) = %v, want 1", DefaultF(0))
	}
}

func TestSizePowMemoMatchesMathPow(t *testing.T) {
	p := newSizePow(DefaultF(0.7))
	e := 1 + 2*DefaultF(0.7)
	for s := 1; s < 300; s++ {
		want := math.Pow(float64(s), e)
		if got := p.of(s); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("pow(%d) = %v, want %v", s, got, want)
		}
	}
}

// TestFSensitivity verifies Section 3.3's claim that "even an inaccurate
// but reasonable estimate for f() can work well in practice": clustering
// quality on the basket workload holds across a range of f values around
// the paper's (1-theta)/(1+theta).
func TestFSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := datagen.Basket(datagen.ScaledBasketConfig(150), rng)
	for _, f := range []float64{0.2, 1.0 / 3, 0.45, 0.6} {
		f := f
		res, err := Cluster(len(data.Txns), sim.ByIndex(data.Txns, sim.Jaccard), Config{
			K: data.NumClusters(), Theta: 0.5,
			F:            func(float64) float64 { return f },
			MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int, len(data.Labels))
		copy(labels, data.Labels)
		for i := range labels {
			if labels[i] < 0 {
				labels[i] = data.NumClusters()
			}
		}
		purity := eval.Purity(res.Clusters, labels, data.NumClusters()+1)
		if purity < 0.95 {
			t.Errorf("f=%.2f: purity %.3f, want >= 0.95", f, purity)
		}
	}
}

// TestClusterInvariantsRandomized property-checks the clusterer on random
// workloads: the output partitions the input (clusters + outliers cover
// every point exactly once), cluster stats are internally consistent, and
// the reported criterion matches a recomputation from the link table.
func TestClusterInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(120)
		universe := 10 + rng.Intn(40)
		txns := make([]dataset.Transaction, n)
		for i := range txns {
			size := 1 + rng.Intn(8)
			items := make([]dataset.Item, size)
			for k := range items {
				items[k] = dataset.Item(rng.Intn(universe))
			}
			txns[i] = dataset.NewTransaction(items...)
		}
		cfg := Config{
			K:     1 + rng.Intn(6),
			Theta: 0.2 + 0.6*rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			cfg.MinNeighbors = 1 + rng.Intn(2)
		}
		if rng.Intn(2) == 0 {
			cfg.StopMultiple = 2
			cfg.MinClusterSize = 1 + rng.Intn(3)
		}
		s := sim.ByIndex(txns, sim.Jaccard)
		res, err := Cluster(len(txns), s, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Partition invariant.
		seen := make(map[int]int)
		for _, c := range res.Clusters {
			if len(c) == 0 {
				t.Fatal("empty cluster emitted")
			}
			for _, p := range c {
				seen[p]++
			}
		}
		for _, p := range res.Outliers {
			seen[p]++
		}
		if len(seen) != n {
			t.Fatalf("trial %d: covered %d of %d points", trial, len(seen), n)
		}
		for p, count := range seen {
			if count != 1 {
				t.Fatalf("trial %d: point %d appears %d times", trial, p, count)
			}
		}

		// Stats and criterion consistency against a fresh link table.
		nb := links.ComputeNeighbors(len(txns), s, links.Config{Theta: cfg.Theta})
		table := links.Compute(nb, links.DefaultDenseLimit)
		var recomputed float64
		for ci, c := range res.Clusters {
			internal := 0
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					internal += table.Get(c[i], c[j])
				}
			}
			if internal != res.ClusterStats[ci].InternalLinks {
				t.Fatalf("trial %d cluster %d: internal links %d, stats say %d",
					trial, ci, internal, res.ClusterStats[ci].InternalLinks)
			}
			recomputed += CriterionTerm(len(c), internal, res.F)
		}
		if math.Abs(recomputed-res.Criterion) > 1e-9*(1+math.Abs(recomputed)) {
			t.Fatalf("trial %d: criterion %v, recomputed %v", trial, res.Criterion, recomputed)
		}
	}
}

// TestGoodnessAlgebraQuick property-checks the goodness measure: positive
// for positive links, increasing in links, and decreasing as either cluster
// grows (more expected links for the same observed count).
func TestGoodnessAlgebraQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		f := rng.Float64() // f in [0,1)
		ni := 1 + rng.Intn(50)
		nj := 1 + rng.Intn(50)
		links := 1 + rng.Intn(1000)
		g := Goodness(links, ni, nj, f)
		if !(g > 0) || math.IsInf(g, 0) || math.IsNaN(g) {
			t.Fatalf("g(%d,%d,%d;f=%v) = %v", links, ni, nj, f, g)
		}
		if g2 := Goodness(links+1, ni, nj, f); g2 <= g {
			t.Fatalf("goodness not increasing in links")
		}
		if g3 := Goodness(links, ni+1, nj, f); g3 >= g {
			t.Fatalf("goodness not decreasing in cluster size: %v -> %v", g, g3)
		}
		// Symmetry in the two sizes.
		if gSym := Goodness(links, nj, ni, f); math.Abs(gSym-g) > 1e-9*g {
			t.Fatalf("goodness not symmetric")
		}
	}
}

// TestCriterionTermAlgebra checks E_l term behaviour: zero for empty or
// link-free clusters, linear in internal links, and for f < 0.5 a merged
// cluster with only its parts' links scores below the sum of the parts
// (the denominator grows faster), which is what stops free-riding merges.
func TestCriterionTermAlgebra(t *testing.T) {
	if CriterionTerm(0, 0, 0.3) != 0 || CriterionTerm(5, 0, 0.3) != 0 {
		t.Fatal("empty/link-free clusters must contribute 0")
	}
	if 2*CriterionTerm(4, 10, 0.3) != CriterionTerm(4, 20, 0.3) {
		t.Fatal("term not linear in links")
	}
	parts := CriterionTerm(10, 40, 1.0/3) + CriterionTerm(10, 40, 1.0/3)
	merged := CriterionTerm(20, 80, 1.0/3)
	if merged >= parts {
		t.Fatalf("merging without cross links should lower E_l: %v vs %v", merged, parts)
	}
}
