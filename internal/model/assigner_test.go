package model

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"rock/internal/dataset"
	"rock/internal/rockcore"
)

// randomSnapshot builds a random but valid snapshot: nSets labeled sets over
// labeled transactions drawn from a universe of nItems item ids with baskets
// of up to maxLen items — including, deliberately, some empty transactions.
func randomSnapshot(rng *rand.Rand, simName string, theta float64, nSets, perSet, nItems, maxLen int) *Snapshot {
	fTheta := (1 - theta) / (1 + theta)
	n := nSets * perSet
	s := &Snapshot{Theta: theta, FTheta: fTheta, SimName: simName}
	for q := 0; q < n; q++ {
		ln := rng.Intn(maxLen + 1) // 0 .. maxLen: empty transactions included
		items := make([]dataset.Item, ln)
		for i := range items {
			items[i] = dataset.Item(rng.Intn(nItems))
		}
		s.Txns = append(s.Txns, dataset.NewTransaction(items...))
	}
	for c := 0; c < nSets; c++ {
		pts := make([]int, 0, perSet)
		for p := c * perSet; p < (c+1)*perSet; p++ {
			pts = append(pts, p)
		}
		s.Sets = append(s.Sets, Set{
			Cluster: c,
			Norm:    rockcore.ExpectedNeighbors(len(pts), fTheta),
			Points:  pts,
		})
	}
	return s
}

// randomProbe draws a query transaction, biased to share items with the
// labeled universe but sometimes empty, sometimes out-of-universe, and
// sometimes with duplicate items (NewTransaction normalizes them away; the
// raw duplicate form also gets probed through Assign directly).
func randomProbe(rng *rand.Rand, nItems, maxLen int) dataset.Transaction {
	switch rng.Intn(10) {
	case 0:
		return dataset.Transaction{} // empty
	case 1:
		// Entirely outside the labeled universe: must be an outlier for
		// theta > 0.
		t := make([]dataset.Item, 1+rng.Intn(maxLen))
		for i := range t {
			t[i] = dataset.Item(nItems + rng.Intn(nItems))
		}
		return dataset.NewTransaction(t...)
	default:
		t := make([]dataset.Item, 1+rng.Intn(maxLen))
		for i := range t {
			t[i] = dataset.Item(rng.Intn(nItems))
		}
		if rng.Intn(3) == 0 && len(t) > 1 {
			t[0] = t[1] // force a duplicate before normalization
		}
		return dataset.NewTransaction(t...)
	}
}

// TestCompiledAssignMatchesScan is the equivalence gate of the compiled
// path: across every built-in measure × a theta grid (including 0 and 1) ×
// random corpora, the posting-list assigner must return bit-identical
// (cluster, score) to the reference scan — outliers, empty transactions and
// duplicate items included.
func TestCompiledAssignMatchesScan(t *testing.T) {
	measures := []string{"jaccard", "dice", "overlap", "cosine"}
	thetas := []float64{0, 0.1, 0.25, 0.5, 0.73, 0.9, 1}
	rng := rand.New(rand.NewSource(42))
	for _, m := range measures {
		for _, theta := range thetas {
			t.Run(fmt.Sprintf("%s/theta=%v", m, theta), func(t *testing.T) {
				for trial := 0; trial < 3; trial++ {
					snap := randomSnapshot(rng, m, theta, 2+rng.Intn(4), 5+rng.Intn(20), 40, 8)
					a, err := Compile(snap)
					if err != nil {
						t.Fatal(err)
					}
					if !a.Compiled() {
						t.Fatal("built-in measure did not compile a posting index")
					}
					for probe := 0; probe < 200; probe++ {
						q := randomProbe(rng, 40, 8)
						gc, gs := a.Assign(q)
						wc, ws := a.AssignScan(q)
						if gc != wc || gs != ws {
							t.Fatalf("probe %v: compiled (%d, %v) != scan (%d, %v)", q, gc, gs, wc, ws)
						}
					}
				}
			})
		}
	}
}

// TestCompiledAssignNegativeItems: a model whose ids include negatives next
// to small non-negative ones compiles, and answers as the scan does.
func TestCompiledAssignNegativeItems(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shift := func(txn dataset.Transaction) dataset.Transaction {
		out := make(dataset.Transaction, len(txn))
		for i, it := range txn {
			out[i] = it - 5
		}
		return out
	}
	snap := randomSnapshot(rng, "jaccard", 0.4, 3, 20, 40, 8)
	for i, txn := range snap.Txns {
		snap.Txns[i] = shift(txn)
	}
	a, err := Compile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Compiled() {
		t.Fatal("built-in measure did not compile a posting index")
	}
	for probe := 0; probe < 300; probe++ {
		q := shift(randomProbe(rng, 40, 8))
		gc, gs := a.Assign(q)
		wc, ws := a.AssignScan(q)
		if gc != wc || gs != ws {
			t.Fatalf("probe %v: compiled (%d, %v) != scan (%d, %v)", q, gc, gs, wc, ws)
		}
	}
}

// TestAssignUnnormalizedFallsBack: a raw (unsorted / duplicated) query must
// take the scan path and still agree with scanning directly.
func TestAssignUnnormalizedFallsBack(t *testing.T) {
	a, err := Compile(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	raw := dataset.Transaction{3, 1, 2, 2} // not normalized on purpose
	gc, gs := a.Assign(raw)
	wc, ws := a.AssignScan(raw)
	if gc != wc || gs != ws {
		t.Fatalf("unnormalized probe: Assign (%d, %v) != AssignScan (%d, %v)", gc, gs, wc, ws)
	}
}

// TestCompileSkipsCustomMeasureGracefully: an unnormalized labeled
// transaction disables the index but not the assigner.
func TestCompileSkipsUnnormalizedTxns(t *testing.T) {
	s := testSnapshot()
	s.Txns[0] = dataset.Transaction{3, 2, 1}
	a, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Compiled() {
		t.Fatal("index built over unnormalized labeled transactions")
	}
	if c, _ := a.Assign(dataset.NewTransaction(1, 2, 3)); c != 0 {
		t.Fatalf("scan fallback assigned cluster %d, want 0", c)
	}
}

// TestCompileRejectsUnsortedSets: tie breaking keeps the first best set, so
// iteration order must follow cluster order; Compile refuses anything else.
func TestCompileRejectsUnsortedSets(t *testing.T) {
	s := testSnapshot()
	s.Sets[0], s.Sets[1] = s.Sets[1], s.Sets[0]
	if _, err := Compile(s); err == nil {
		t.Fatal("Compile accepted sets out of cluster order")
	}
}

// tieSnapshot builds two sets that score identically for probe {1}: both
// contain exactly one neighbor of it and share the same norm.
func tieSnapshot() *Snapshot {
	return &Snapshot{
		Theta:   0.5,
		FTheta:  1.0 / 3,
		SimName: "jaccard",
		Sets: []Set{
			{Cluster: 0, Norm: 2, Points: []int{0, 1}},
			{Cluster: 1, Norm: 2, Points: []int{2, 3}},
		},
		Txns: []dataset.Transaction{
			dataset.NewTransaction(1),      // neighbor of {1}
			dataset.NewTransaction(50, 51), // not
			dataset.NewTransaction(1),      // neighbor of {1}
			dataset.NewTransaction(60, 61), // not
		},
	}
}

// TestAssignTieKeepsLowerCluster is the tie regression test: with two sets
// scoring identically, both the compiled and the scan path must keep the
// lower cluster index (the first set in the Compile-asserted cluster order).
func TestAssignTieKeepsLowerCluster(t *testing.T) {
	a, err := Compile(tieSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	probe := dataset.NewTransaction(1)
	if c, s := a.Assign(probe); c != 0 || s != 0.5 {
		t.Fatalf("compiled tie: (%d, %v), want (0, 0.5)", c, s)
	}
	if c, s := a.AssignScan(probe); c != 0 || s != 0.5 {
		t.Fatalf("scan tie: (%d, %v), want (0, 0.5)", c, s)
	}
}

// TestCompiledAssignZeroAllocs gates the hot loop: steady-state compiled
// assignment must not allocate.
func TestCompiledAssignZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool; zero-alloc gate holds without -race only")
	}
	rng := rand.New(rand.NewSource(7))
	snap := randomSnapshot(rng, "jaccard", 0.4, 8, 50, 200, 12)
	a, err := Compile(snap)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]dataset.Transaction, 64)
	for i := range probes {
		probes[i] = randomProbe(rng, 200, 12)
	}
	// Warm the scratch pool once.
	for _, q := range probes {
		a.Assign(q)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		a.Assign(probes[i%len(probes)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("compiled Assign allocates %.1f objects/op, want 0", allocs)
	}
}

// benchModel is the reference benchmark model the EXPERIMENTS.md table and
// the CI regression guard both run against: 10 sets × 500 labeled
// transactions of ~12 items over a 1000-item universe — the PR-1 serving
// benchmark shape.
func benchModel(nSets, perSet int) (*Assigner, []dataset.Transaction) {
	rng := rand.New(rand.NewSource(1))
	snap := randomSnapshot(rng, "jaccard", 0.5, nSets, perSet, 1000, 16)
	a, err := Compile(snap)
	if err != nil {
		panic(err)
	}
	probes := make([]dataset.Transaction, 4096)
	for i := range probes {
		items := make([]dataset.Item, 12)
		for j := range items {
			items[j] = dataset.Item(rng.Intn(1000))
		}
		probes[i] = dataset.NewTransaction(items...)
	}
	return a, probes
}

// The benchassign sweep: scan vs compiled across sets × labeled-size. The
// daemon-level codec axis lives in internal/daemon's benchmarks.
func BenchmarkAssignScan(b *testing.B) {
	for _, shape := range []struct{ sets, perSet int }{{4, 100}, {10, 500}, {10, 2000}} {
		b.Run(fmt.Sprintf("sets=%d/labeled=%d", shape.sets, shape.sets*shape.perSet), func(b *testing.B) {
			a, probes := benchModel(shape.sets, shape.perSet)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.AssignScan(probes[i%len(probes)])
			}
		})
	}
}

func BenchmarkAssignCompiled(b *testing.B) {
	for _, shape := range []struct{ sets, perSet int }{{4, 100}, {10, 500}, {10, 2000}} {
		b.Run(fmt.Sprintf("sets=%d/labeled=%d", shape.sets, shape.sets*shape.perSet), func(b *testing.B) {
			a, probes := benchModel(shape.sets, shape.perSet)
			if !a.Compiled() {
				b.Fatal("reference model did not compile")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Assign(probes[i%len(probes)])
			}
		})
	}
}

// TestCompiledSpeedupGuard is the coarse CI regression guard: on the
// reference model the compiled path must be at least 3× the scan path. It
// only runs when ROCK_ASSIGN_GUARD=1 (the CI bench-smoke job sets it), so
// loaded developer machines don't see flaky timing failures in tier-1 runs.
func TestCompiledSpeedupGuard(t *testing.T) {
	if os.Getenv("ROCK_ASSIGN_GUARD") != "1" {
		t.Skip("set ROCK_ASSIGN_GUARD=1 to run the speedup guard")
	}
	a, probes := benchModel(10, 500)
	time1 := func(f func(dataset.Transaction)) time.Duration {
		// Warm up, then time a fixed probe count.
		for i := 0; i < 200; i++ {
			f(probes[i%len(probes)])
		}
		const n = 2000
		start := time.Now()
		for i := 0; i < n; i++ {
			f(probes[i%len(probes)])
		}
		return time.Since(start) / n
	}
	scan := time1(func(q dataset.Transaction) { a.AssignScan(q) })
	fast := time1(func(q dataset.Transaction) { a.Assign(q) })
	t.Logf("scan %v/op, compiled %v/op (%.1f×)", scan, fast, float64(scan)/float64(fast))
	if fast*3 > scan {
		t.Fatalf("compiled path %v/op is under 3× the scan path %v/op", fast, scan)
	}
}
