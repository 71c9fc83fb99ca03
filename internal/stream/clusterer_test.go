package stream

import (
	"math"
	"math/rand"
	"testing"

	"rock/internal/dataset"
	"rock/internal/model"
)

// template makes the defining item set [base, base+n).
func template(base, n int) dataset.Transaction {
	t := make(dataset.Transaction, n)
	for i := range t {
		t[i] = dataset.Item(base + i)
	}
	return t
}

// draw samples a size-k subset of tpl; with k = 3/4 of |tpl| two draws are
// Jaccard ≈ 0.6 apart, comfortably above theta 0.5.
func draw(tpl dataset.Transaction, k int, rng *rand.Rand) dataset.Transaction {
	perm := rng.Perm(len(tpl))
	t := make(dataset.Transaction, k)
	for i := 0; i < k; i++ {
		t[i] = tpl[perm[i]]
	}
	t.Normalize()
	return t
}

// junk makes a transaction of globally unique items: no neighbors, ever.
var junkNext = 1 << 20

func junk(n int) dataset.Transaction {
	t := make(dataset.Transaction, n)
	for i := range t {
		t[i] = dataset.Item(junkNext)
		junkNext++
	}
	return t
}

func testConfig() Config {
	return Config{
		Theta:          0.5,
		ReclusterEvery: 64,
		MinPromote:     8,
		WindowSize:     128,
		Seed:           1,
	}
}

// TestNewRejectsBadTheta: θ outside [0,1], NaN included, is static
// misconfiguration and panics instead of silently pooling every arrival.
func TestNewRejectsBadTheta(t *testing.T) {
	for _, theta := range []float64{math.NaN(), -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("theta %v accepted", theta)
				}
			}()
			cfg := testConfig()
			cfg.Theta = theta
			New(cfg)
		}()
	}
}

// TestColdStartPromotesClusters: from an empty clusterer, draws from two
// separated templates pool up, the re-cluster promotes both groups as
// clusters (not four, not one), and subsequent draws are absorbed.
func TestColdStartPromotesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := template(0, 20), template(100, 20)
	c := New(testConfig())
	for i := 0; i < 200; i++ {
		tpl := a
		if i%2 == 1 {
			tpl = b
		}
		c.Observe(draw(tpl, 15, rng))
	}
	clusters, _, _ := c.Stats()
	if len(clusters) != 2 {
		t.Fatalf("want 2 clusters after cold start, got %d: %+v", len(clusters), clusters)
	}
	if c.metrics.Promoted.Load() == 0 || c.metrics.Absorbed.Load() == 0 {
		t.Fatalf("promoted %d, absorbed %d: both must be positive",
			c.metrics.Promoted.Load(), c.metrics.Absorbed.Load())
	}
	// Once clusters exist, fresh draws fold without pooling.
	for i := 0; i < 50; i++ {
		tpl := a
		if i%2 == 1 {
			tpl = b
		}
		if disp := c.Observe(draw(tpl, 15, rng)); !disp.Absorbed {
			t.Fatalf("draw %d pooled after clusters formed", i)
		}
	}
}

// TestSeedAndFold: a clusterer seeded from a snapshot absorbs member draws
// into the right cluster and pools genuine outliers.
func TestSeedAndFold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := template(0, 20), template(200, 20)
	snap := seededSnapshot(t, rng, a, b)
	c := New(testConfig())
	if err := c.Seed(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if disp := c.Observe(draw(a, 15, rng)); !disp.Absorbed || disp.Cluster != 0 {
			t.Fatalf("template-A draw %d: %+v, want absorbed into 0", i, disp)
		}
		if disp := c.Observe(draw(b, 15, rng)); !disp.Absorbed || disp.Cluster != 1 {
			t.Fatalf("template-B draw %d: %+v, want absorbed into 1", i, disp)
		}
	}
	if disp := c.Observe(junk(15)); disp.Absorbed {
		t.Fatal("junk transaction was absorbed")
	}
}

// seededSnapshot builds a two-cluster snapshot from template draws.
func seededSnapshot(t *testing.T, rng *rand.Rand, tpls ...dataset.Transaction) *model.Snapshot {
	t.Helper()
	snap := &model.Snapshot{Theta: 0.5, FTheta: (1 - 0.5) / (1 + 0.5), SimName: "jaccard"}
	for ci, tpl := range tpls {
		points := make([]int, 0, 20)
		for i := 0; i < 20; i++ {
			points = append(points, len(snap.Txns))
			snap.Txns = append(snap.Txns, draw(tpl, 15, rng))
		}
		snap.Sets = append(snap.Sets, model.Set{Cluster: ci, Norm: 1, Points: points})
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestBuildSnapshotCompiles: the built snapshot validates, carries stream
// stats, compiles, and labels template draws back to their clusters.
func TestBuildSnapshotCompiles(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := template(0, 20), template(200, 20)
	c := New(testConfig())
	if err := c.Seed(seededSnapshot(t, rng, a, b)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Observe(draw(a, 15, rng))
		c.Observe(draw(b, 15, rng))
	}
	c.Observe(junk(15))
	snap := c.BuildSnapshot()
	if snap == nil {
		t.Fatal("BuildSnapshot returned nil with live clusters")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.Stats == nil || snap.Stats.Points != 201 || snap.Stats.Outliers == 0 {
		t.Fatalf("bad stats: %+v", snap.Stats)
	}
	asn, err := model.Compile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if cl, _ := asn.Assign(draw(a, 15, rng)); cl != 0 {
			t.Fatalf("template-A draw labeled %d", cl)
		}
		if cl, _ := asn.Assign(draw(b, 15, rng)); cl != 1 {
			t.Fatalf("template-B draw labeled %d", cl)
		}
	}
}

// TestMergeTarget: a candidate rep set drawn from an existing cluster's
// distribution merges into it; one from a foreign distribution does not.
func TestMergeTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b := template(0, 20), template(200, 20)
	c := New(testConfig())
	if err := c.Seed(seededSnapshot(t, rng, a)); err != nil {
		t.Fatal(err)
	}
	same := make([]dataset.Transaction, 8)
	for i := range same {
		same[i] = draw(a, 15, rng)
	}
	if got := c.mergeTarget(same); got == nil || got.id != 0 {
		t.Fatalf("same-distribution reps did not merge into cluster 0: %v", got)
	}
	other := make([]dataset.Transaction, 8)
	for i := range other {
		other[i] = draw(b, 15, rng)
	}
	if got := c.mergeTarget(other); got != nil {
		t.Fatalf("foreign reps merged into cluster %d", got.id)
	}
}

// TestPromoteMergesDuplicates: pooled draws from an existing cluster's
// drifted twin merge back instead of spawning a duplicate cluster.
func TestPromoteMergesDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := template(0, 20)
	cfg := testConfig()
	cfg.ReclusterEvery = 32
	c := New(cfg)
	if err := c.Seed(seededSnapshot(t, rng, a)); err != nil {
		t.Fatal(err)
	}
	// Force draws into the pool directly (as if theta-misses), then
	// re-cluster: they must merge into cluster 0, not become cluster 1.
	c.mu.Lock()
	for i := 0; i < 40; i++ {
		c.total++
		c.pool.add(draw(a, 15, rng), c.total)
	}
	c.recluster()
	c.mu.Unlock()
	clusters, _, _ := c.Stats()
	if len(clusters) != 1 {
		t.Fatalf("duplicate cluster spawned: %+v", clusters)
	}
	if c.metrics.Merges.Load() != 1 {
		t.Fatalf("merges = %d, want 1", c.metrics.Merges.Load())
	}
	if clusters[0].Size <= 20 {
		t.Fatalf("merge did not grow cluster 0: size %d", clusters[0].Size)
	}
}

// TestAgeOut: junk that never promotes ages out of the pool.
func TestAgeOut(t *testing.T) {
	cfg := testConfig()
	cfg.ReclusterEvery = 16
	cfg.MinPromote = 1000 // never promote
	cfg.MaxAge = 20
	c := New(cfg)
	for i := 0; i < 100; i++ {
		c.Observe(junk(10))
	}
	if aged := c.metrics.Aged.Load(); aged == 0 {
		t.Fatal("nothing aged out")
	}
	_, poolSize, _ := c.Stats()
	if poolSize > 40 {
		t.Fatalf("pool grew unboundedly: %d", poolSize)
	}
}

// TestWindowRate: the sliding window tracks the recent outlier fraction and
// forgets old history.
func TestWindowRate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := template(0, 20)
	cfg := testConfig()
	cfg.WindowSize = 64
	c := New(cfg)
	if err := c.Seed(seededSnapshot(t, rng, a)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		c.Observe(junk(10))
	}
	if r := c.WindowRate(); r != 1 {
		t.Fatalf("all-junk window rate %v, want 1", r)
	}
	for i := 0; i < 64; i++ {
		c.Observe(draw(a, 15, rng))
	}
	if r := c.WindowRate(); r != 0 {
		t.Fatalf("all-member window rate %v, want 0", r)
	}
	if fill := c.WindowFill(); fill != 64 {
		t.Fatalf("window fill %d, want 64", fill)
	}
}

// TestRepRefreshTracksDrift: under gradual vocabulary rotation the same
// cluster keeps absorbing (no duplicate is spawned) and its representatives
// migrate onto the new vocabulary.
func TestRepRefreshTracksDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tpl := template(0, 20).Clone()
	c := New(testConfig())
	if err := c.Seed(seededSnapshot(t, rng, tpl)); err != nil {
		t.Fatal(err)
	}
	// Rotate 2 of 20 items per step, 8 steps: by the end 16/20 items are
	// fresh, far past theta-similarity with the original vocabulary — but
	// each step is small enough that draws keep folding.
	next := dataset.Item(1000)
	absorbed, total := 0, 0
	for step := 0; step < 8; step++ {
		for i := 0; i < 2; i++ {
			tpl[rng.Intn(len(tpl))] = next
			next++
		}
		tpl.Normalize()
		for i := 0; i < 100; i++ {
			total++
			if c.Observe(draw(tpl, 15, rng)).Absorbed {
				absorbed++
			}
		}
	}
	if absorbed < total*9/10 {
		t.Fatalf("only %d/%d draws absorbed under gradual drift", absorbed, total)
	}
	if created := c.metrics.ClustersCreated.Load(); created != 0 {
		t.Fatalf("gradual drift spawned %d duplicate clusters", created)
	}
	// Representatives must now be dominated by the rotated vocabulary.
	fresh := template(1000, int(next)-1000)
	c.mu.Lock()
	defer c.mu.Unlock()
	rotated := 0
	for _, r := range c.clusters[0].repTxns {
		if r.IntersectLen(fresh) > len(r)/2 {
			rotated++
		}
	}
	if rotated < len(c.clusters[0].repTxns)/2 {
		t.Fatalf("only %d/%d representatives follow the rotated vocabulary",
			rotated, len(c.clusters[0].repTxns))
	}
}
