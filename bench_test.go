package rock_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each iteration regenerates the experiment end to end), plus
// ablation benchmarks for the design choices DESIGN.md calls out — the
// Figure 4 sparse link algorithm vs matrix squaring, the length-2 vs
// length-3 link definition, raw vs normalized goodness, theta sensitivity,
// and reservoir-sampling variants.
//
// Run with: go test -bench=. -benchmem
// (-short trims the heavy experiments to reduced workloads.)

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rock"
	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/experiments"
	"rock/internal/links"
	"rock/internal/rockcore"
	"rock/internal/sample"
	"rock/internal/sim"
	"rock/internal/simjoin"
)

// ---- Tables and figures ----

func BenchmarkTable1DataSetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table1(experiments.DefaultSeed); len(r.Rows) != 3 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFigure1LinkExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1()
		for _, c := range r.LinkChecks {
			if c.Got != c.Want {
				b.Fatalf("link check failed: %+v", c)
			}
		}
	}
}

func BenchmarkTable2Votes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Mushroom(b *testing.B) {
	if testing.Short() {
		b.Skip("full 8124-point clustering")
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.ROCK.Rows) != 21 {
			b.Fatalf("ROCK clusters = %d", len(r.ROCK.Rows))
		}
	}
}

func BenchmarkTable4MutualFunds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5SyntheticGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table5(experiments.DefaultSeed); r.Transactions != 114586 {
			b.Fatal("bad generation")
		}
	}
}

func BenchmarkTable6Misclassification(b *testing.B) {
	sizes := experiments.DefaultTable6SampleSizes
	thetas := experiments.DefaultTable6Thetas
	if testing.Short() {
		sizes = []int{1000, 2000}
		thetas = []float64{0.5}
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(experiments.DefaultSeed, sizes, thetas); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5Scalability(b *testing.B) {
	sizes := experiments.DefaultTable6SampleSizes
	thetas := experiments.DefaultFigure5Thetas
	if testing.Short() {
		sizes = []int{1000, 2000}
		thetas = []float64{0.5, 0.8}
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(experiments.DefaultSeed, sizes, thetas); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7VoteProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable89MushroomProfiles(b *testing.B) {
	if testing.Short() {
		b.Skip("full 8124-point clustering")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table89(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Per-phase microbenchmarks on the synthetic workload ----

// benchSample draws a basket sample once per benchmark (not timed).
func benchSample(b *testing.B, n int) []rock.Transaction {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	d := datagen.Basket(datagen.ScaledBasketConfig(10), rng)
	idx := sample.Indices(len(d.Txns), n, rng)
	sub := make([]rock.Transaction, len(idx))
	for i, p := range idx {
		sub[i] = d.Txns[p]
	}
	return sub
}

func benchNeighbors(b *testing.B, txns []rock.Transaction, theta float64) *links.Neighbors {
	b.Helper()
	return links.ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), links.Config{Theta: theta})
}

// ---- Inverted-index threshold join vs brute-force neighbor sweep ----

// neighborJoinCase is one cell of the speedup sweep: sample size, neighbor
// threshold and mean basket size (the paper's synthetic generator, mean 15).
type neighborJoinCase struct {
	n     int
	theta float64
	mean  float64
}

func (c neighborJoinCase) name() string {
	return fmt.Sprintf("n=%d/theta=%g/basket=%g", c.n, c.theta, c.mean)
}

// neighborJoinCases spans the sweep recorded in EXPERIMENTS.md. Short mode
// keeps only the small corpus so the CI bench smoke stays cheap.
func neighborJoinCases(short bool) []neighborJoinCase {
	if short {
		return []neighborJoinCase{{2000, 0.5, 15}}
	}
	return []neighborJoinCase{
		{2000, 0.5, 15},
		{5000, 0.2, 15},
		{5000, 0.5, 15},
		{5000, 0.8, 15},
		{5000, 0.5, 8},
		{5000, 0.5, 30},
		{20000, 0.5, 15},
		{20000, 0.8, 15},
	}
}

// joinSample draws n transactions from the Section 5.3 basket generator
// with the given mean basket size (std scaled proportionally).
func joinSample(tb testing.TB, n int, mean float64) []rock.Transaction {
	tb.Helper()
	cfg := datagen.DefaultBasketConfig()
	if d := 114586 / n; d > 1 {
		cfg = datagen.ScaledBasketConfig(d)
	}
	cfg.MeanSize = mean
	cfg.StdSize = 1.72 * mean / 15
	rng := rand.New(rand.NewSource(1))
	d := datagen.Basket(cfg, rng)
	idx := sample.Indices(len(d.Txns), n, rng)
	sub := make([]rock.Transaction, len(idx))
	for i, p := range idx {
		sub[i] = d.Txns[p]
	}
	return sub
}

func BenchmarkNeighborsBrute(b *testing.B) {
	for _, c := range neighborJoinCases(testing.Short()) {
		txns := joinSample(b, c.n, c.mean)
		s := sim.ByIndex(txns, sim.Jaccard)
		b.Run(c.name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				links.ComputeNeighbors(len(txns), s, links.Config{Theta: c.theta})
			}
		})
	}
}

func BenchmarkNeighborsIndexed(b *testing.B) {
	for _, c := range neighborJoinCases(testing.Short()) {
		txns := joinSample(b, c.n, c.mean)
		b.Run(c.name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simjoin.Join(txns, simjoin.Jaccard, c.theta, 0)
			}
		})
	}
}

// BenchmarkNeighborsMushroom joins the Table 3 records at the paper's
// θ = 0.8: dense categorical records on which the prefix filter prunes
// nothing, so Join takes the item-bitmap sweep.
func BenchmarkNeighborsMushroom(b *testing.B) {
	md := datagen.Mushroom(datagen.DefaultMushroomConfig(), rand.New(rand.NewSource(experiments.DefaultSeed)))
	txns := dataset.NewEncoder(md.Schema).EncodeAll(md.Records)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simjoin.Join(txns, simjoin.Jaccard, experiments.MushroomROCKConfig.Theta, 0)
	}
}

// joinEngines are simjoin's two exact engines, each forced regardless of
// Join's cost rule, so the equivalence test covers both on every corpus.
var joinEngines = []struct {
	name string
	join func([]rock.Transaction, simjoin.Measure, float64, int) *links.Neighbors
}{
	{"index", simjoin.JoinIndex},
	{"sweep", simjoin.JoinSweep},
}

// TestIndexedNeighborsMatchBrute proves the equivalence claim on the exact
// datasets the benchmark sweep uses: for every case (and every set measure
// on the mid-size case) both join engines return bit-identical
// Neighbors.Lists. Short mode trims to the small corpus, as the benchmarks
// do; a full run covers the 20k paper-scale corpora.
func TestIndexedNeighborsMatchBrute(t *testing.T) {
	for _, c := range neighborJoinCases(testing.Short() || raceDetectorEnabled) {
		txns := joinSample(t, c.n, c.mean)
		measures := []simjoin.Measure{simjoin.Jaccard}
		if c.n <= 5000 && c.theta == 0.5 && c.mean == 15 {
			measures = []simjoin.Measure{simjoin.Jaccard, simjoin.Dice, simjoin.Cosine, simjoin.Overlap}
		}
		for _, m := range measures {
			f, ok := rock.SimilarityByName(m.String())
			if !ok {
				t.Fatalf("measure %v not registered", m)
			}
			want := links.ComputeNeighbors(len(txns), sim.ByIndex(txns, f), links.Config{Theta: c.theta})
			for _, e := range joinEngines {
				got := e.join(txns, m, c.theta, 0)
				if !reflect.DeepEqual(got.Lists, want.Lists) {
					t.Errorf("%s measure=%v engine=%s: lists differ from brute force", c.name(), m, e.name)
				}
			}
		}
	}
}

func BenchmarkNeighborComputation1000(b *testing.B) {
	txns := benchSample(b, 1000)
	s := sim.ByIndex(txns, sim.Jaccard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links.ComputeNeighbors(len(txns), s, links.Config{Theta: 0.5, Workers: 1})
	}
}

func BenchmarkNeighborComputationParallel1000(b *testing.B) {
	txns := benchSample(b, 1000)
	s := sim.ByIndex(txns, sim.Jaccard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links.ComputeNeighbors(len(txns), s, links.Config{Theta: 0.5})
	}
}

// Ablation: the Figure 4 sparse algorithm vs bitset matrix squaring vs the
// naive O(n³) triple loop (Section 4.4's comparison).
func BenchmarkLinksFigure4Sparse1000(b *testing.B) {
	nb := benchNeighbors(b, benchSample(b, 1000), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links.Compute(nb, -1) // force sparse table
	}
}

func BenchmarkLinksFigure4Dense1000(b *testing.B) {
	nb := benchNeighbors(b, benchSample(b, 1000), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links.Compute(nb, links.DefaultDenseLimit)
	}
}

func BenchmarkLinksBitsetMatrix1000(b *testing.B) {
	nb := benchNeighbors(b, benchSample(b, 1000), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links.ComputeDenseMatrix(nb)
	}
}

func BenchmarkLinksNaiveMatrix400(b *testing.B) {
	nb := benchNeighbors(b, benchSample(b, 400), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links.ComputeNaiveMatrix(nb)
	}
}

// Ablation: the rejected length-3 link definition (Section 3.2) against
// length-2 on the same graph.
func BenchmarkLinksPath2Vs3(b *testing.B) {
	nb := benchNeighbors(b, benchSample(b, 300), 0.5)
	b.Run("path2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			links.Compute(nb, -1)
		}
	})
	b.Run("path3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			links.ComputePath3(nb)
		}
	})
}

// BenchmarkMergeLoopMushroom clusters the Table 3 records from their
// precomputed θ = 0.8 neighbor lists with the Table 3 configuration
// (K = 20), so each iteration times the link lists and the Figure 3 merge
// loop without the neighbor join.
func BenchmarkMergeLoopMushroom(b *testing.B) {
	md := datagen.Mushroom(datagen.DefaultMushroomConfig(), rand.New(rand.NewSource(experiments.DefaultSeed)))
	txns := dataset.NewEncoder(md.Schema).EncodeAll(md.Records)
	cfg := experiments.MushroomROCKConfig
	nb := simjoin.NewSource(txns, sim.Jaccard).ComputeNeighbors(links.Config{Theta: cfg.Theta})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rockcore.ClusterNeighbors(nb, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Clusters) < cfg.K {
			b.Fatalf("clusters = %d, want at least %d", len(res.Clusters), cfg.K)
		}
	}
}

// BenchmarkMergeLoopBasket clusters a 5000-transaction sample of the Table 5
// basket corpus from its precomputed θ = 0.5 neighbor lists at the Table 6
// operating point (K = 10, pruning and weeding), drawn as the Table 6
// pipeline draws it. Basket points have long link lists, which the mushroom
// records do not; each iteration times the link lists and the Figure 3
// merge loop without the neighbor join.
func BenchmarkMergeLoopBasket(b *testing.B) {
	pcfg := experiments.SyntheticPipelineConfig(5000, 0.5, experiments.DefaultSeed)
	d := datagen.Basket(datagen.DefaultBasketConfig(), rand.New(rand.NewSource(pcfg.Seed)))
	idx := sample.Indices(len(d.Txns), pcfg.SampleSize, rand.New(rand.NewSource(pcfg.Seed)))
	txns := make([]rock.Transaction, len(idx))
	for i, p := range idx {
		txns[i] = d.Txns[p]
	}
	pc := pcfg.Cluster
	cfg := rockcore.Config{
		K: pc.K, Theta: pc.Theta, MinNeighbors: pc.MinNeighbors,
		StopMultiple: pc.StopMultiple, MinClusterSize: pc.MinClusterSize,
	}
	nb := simjoin.NewSource(txns, sim.Jaccard).ComputeNeighbors(links.Config{Theta: cfg.Theta})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rockcore.ClusterNeighbors(nb, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Clusters) < cfg.K {
			b.Fatalf("clusters = %d, want at least %d", len(res.Clusters), cfg.K)
		}
	}
}

// Ablation: raw cross-link goodness (the "naive approach" of Section 4.2)
// vs the expected-link normalization, full clustering runs.
func BenchmarkGoodnessNormalization(b *testing.B) {
	txns := benchSample(b, 1000)
	s := sim.ByIndex(txns, sim.Jaccard)
	for _, raw := range []bool{false, true} {
		name := "normalized"
		if raw {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := rockcore.Cluster(len(txns), s, rockcore.Config{
					K: 10, Theta: 0.5, RawCrossLinkGoodness: raw,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Theta sensitivity: the full clustering at the paper's four settings
// (Figure 5's per-theta behaviour, fixed sample size).
func BenchmarkThetaSweep1000(b *testing.B) {
	txns := benchSample(b, 1000)
	s := sim.ByIndex(txns, sim.Jaccard)
	for _, theta := range []float64{0.5, 0.6, 0.7, 0.8} {
		b.Run(thetaName(theta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := rockcore.Cluster(len(txns), s, rockcore.Config{K: 10, Theta: theta})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func thetaName(t float64) string {
	switch t {
	case 0.5:
		return "theta=0.5"
	case 0.6:
		return "theta=0.6"
	case 0.7:
		return "theta=0.7"
	default:
		return "theta=0.8"
	}
}

// f(theta) sensitivity: Section 3.3 claims an inaccurate but reasonable f
// still works; time is invariant, so this benchmarks the clustering while
// the companion test suite asserts the quality.
func BenchmarkFSensitivity(b *testing.B) {
	txns := benchSample(b, 800)
	s := sim.ByIndex(txns, sim.Jaccard)
	for _, f := range []float64{0.2, 1.0 / 3, 0.5} {
		f := f
		b.Run(fName(f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := rockcore.Cluster(len(txns), s, rockcore.Config{
					K: 10, Theta: 0.5, F: func(float64) float64 { return f },
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fName(f float64) string {
	switch {
	case f < 0.3:
		return "f=0.2"
	case f < 0.4:
		return "f=1/3(paper)"
	default:
		return "f=0.5"
	}
}

// Labeling-phase throughput (Section 4.6): transactions labeled per second
// against a clustered sample.
func BenchmarkLabelingPhase(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := datagen.Basket(datagen.ScaledBasketConfig(10), rng)
	cfg := rock.PipelineConfig{
		Cluster:    rock.Config{K: 10, Theta: 0.5, MinNeighbors: 2},
		SampleSize: 1000,
		Seed:       1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr, err := rock.ClusterLarge(d.Txns, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if lr.Labeled == 0 {
			b.Fatal("nothing labeled")
		}
	}
}

// Reservoir sampling: Algorithm R vs the skip-based Algorithm X.
func BenchmarkReservoirAlgorithms(b *testing.B) {
	const stream, k = 1 << 20, 1024
	b.Run("algorithmR", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r := sample.NewReservoir(k, rng)
			for j := 0; j < stream; j++ {
				r.Add(j)
			}
		}
	})
	b.Run("algorithmX", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r := sample.NewSkipReservoir(k, rng)
			for j := 0; j < stream; j++ {
				r.Add(j)
			}
		}
	})
}

// The Section 2 [HKKM97] baseline end to end (apriori + hypergraph
// partitioning + transaction scoring) vs ROCK.
func BenchmarkSection2HKKMBaseline(b *testing.B) {
	if testing.Short() {
		b.Skip("apriori over the scaled basket workload")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Section2(experiments.DefaultSeed, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// Every algorithm head-to-head on a 1000-transaction basket sample — the
// repository's extension of the paper's comparison.
func BenchmarkBaselinesComparison(b *testing.B) {
	if testing.Short() {
		b.Skip("nine algorithms over a 1000-transaction sample")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Baselines(experiments.DefaultSeed, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// Funds clustering under the [ALSS95]-style correlation similarity — the
// "externally produced similarity" path of Section 5.1.
func BenchmarkFundsCorrelationSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FundsCorr(experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Serving hot path ----

// BenchmarkLabelerAssign measures the per-transaction labeling rule
// (Section 4.6) — the hot path rockd serves: neighbor tests against every
// labeled set, normalized by (|L_i|+1)^f(theta).
func BenchmarkLabelerAssign(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	probes := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77))).Txns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.Assign(probes[i%len(probes)])
	}
}

// BenchmarkLabelerAssignParallel is the same hot path under GOMAXPROCS
// goroutines sharing one Labeler — the access pattern of rockd's worker
// pool.
func BenchmarkLabelerAssignParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	probes := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77))).Txns
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			lab.Assign(probes[i%len(probes)])
			i++
		}
	})
}
