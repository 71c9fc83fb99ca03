package simjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/links"
	"rock/internal/sample"
	"rock/internal/sim"
)

var allMeasures = []Measure{Jaccard, Dice, Cosine, Overlap}

// engines are the two exact join engines, each forced regardless of Join's
// cost rule, so every equivalence test covers both.
var engines = []struct {
	name string
	join func([]dataset.Transaction, Measure, float64, int) *links.Neighbors
}{
	{"index", JoinIndex},
	{"sweep", JoinSweep},
}

// brute is the reference: the O(n²) sweep the join must match bit for bit.
func brute(txns []dataset.Transaction, m Measure, theta float64) *links.Neighbors {
	f, ok := sim.TxnByName(m.String())
	if !ok {
		panic("unregistered measure " + m.String())
	}
	return links.ComputeNeighbors(len(txns), sim.ByIndex(txns, f), links.Config{Theta: theta, Workers: 1})
}

// randomCorpus draws n transactions over a vocab of the given size, with a
// slice of deliberately empty transactions and a slice of exact duplicates —
// the edge cases the equivalence contract calls out.
func randomCorpus(rng *rand.Rand, n, vocab, maxItems int) []dataset.Transaction {
	txns := make([]dataset.Transaction, n)
	for i := range txns {
		switch {
		case rng.Float64() < 0.05:
			txns[i] = dataset.Transaction{} // empty
		case i > 0 && rng.Float64() < 0.15:
			txns[i] = txns[rng.Intn(i)].Clone() // duplicate of an earlier one
		default:
			k := 1 + rng.Intn(maxItems)
			items := make([]dataset.Item, k)
			for j := range items {
				items[j] = dataset.Item(rng.Intn(vocab))
			}
			txns[i] = dataset.NewTransaction(items...)
		}
	}
	return txns
}

// universeCorpus is randomCorpus over exactly vocab distinct items: a
// record holding every item pins the universe, so the sweep's bitmaps are
// exactly vocab bits wide.
func universeCorpus(rng *rand.Rand, n, vocab, maxItems int) []dataset.Transaction {
	all := make([]dataset.Item, vocab)
	for i := range all {
		all[i] = dataset.Item(3 * i) // sparse ids: the rank remap must compact them
	}
	txns := randomCorpus(rng, n, vocab, maxItems)
	for _, t := range txns {
		for k, it := range t {
			t[k] = all[it]
		}
	}
	return append(txns, dataset.NewTransaction(all...))
}

// TestJoinMatchesBruteForce is the central equivalence property: for random
// corpora × thresholds × all four set measures, both join engines produce
// exactly the brute-force neighbor lists. The universes of 63–129 items put
// the sweep's bitmaps on and either side of its 64-bit word and 128-bit
// block boundaries, and 7 workers exceed the smallest corpora's sizes.
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	corpora := [][]dataset.Transaction{
		nil,
		{dataset.NewTransaction(1, 2, 3)},
		{dataset.NewTransaction(1, 2, 3), dataset.NewTransaction(2, 3)},
		{{}, dataset.NewTransaction(4)},
		{{}, {}, {}},
		randomCorpus(rng, 60, 12, 6),    // dense: most pairs overlap
		randomCorpus(rng, 150, 200, 10), // sparse
		randomCorpus(rng, 200, 40, 15),  // mid, bigger baskets
	}
	for _, vocab := range []int{63, 64, 65, 128, 129} {
		corpora = append(corpora, universeCorpus(rng, 80, vocab, 2*vocab/3))
	}
	for ci, txns := range corpora {
		for _, m := range allMeasures {
			for _, theta := range []float64{0, 0.2, 0.5, 0.8, 1} {
				want := brute(txns, m, theta)
				for _, e := range engines {
					for _, workers := range []int{1, 3, 7} {
						got := e.join(txns, m, theta, workers)
						if !reflect.DeepEqual(got.Lists, want.Lists) {
							t.Errorf("corpus %d, %s, %v, theta=%v, workers=%d: lists differ\n got %v\nwant %v",
								ci, e.name, m, theta, workers, got.Lists, want.Lists)
						}
					}
				}
			}
		}
	}
}

// TestJoinThetaEdge exercises thresholds landing exactly on attainable
// similarity values, where a >= comparison differs from > by one float ULP:
// the filters must not lose pairs that sit exactly on theta.
func TestJoinThetaEdge(t *testing.T) {
	// Pairs of 4-item transactions sharing 2 items: Jaccard = 2/6, Dice =
	// 4/8, Cosine = 2/4, Overlap = 2/4 — all exactly representable or
	// exactly computed values a user can pass back as theta.
	txns := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3, 4),
		dataset.NewTransaction(3, 4, 5, 6),
		dataset.NewTransaction(5, 6, 7, 8),
		dataset.NewTransaction(1, 2, 3, 4), // duplicate
	}
	for _, m := range allMeasures {
		for _, theta := range []float64{2.0 / 6, 0.5, 2.0/6 + 1e-16, 0.5 + 1e-16, 1} {
			want := brute(txns, m, theta)
			for _, e := range engines {
				got := e.join(txns, m, theta, 1)
				if !reflect.DeepEqual(got.Lists, want.Lists) {
					t.Errorf("%s %v theta=%v: got %v want %v", e.name, m, theta, got.Lists, want.Lists)
				}
			}
		}
	}
}

// TestSourceRouting checks the engine-selection contract of Source.
func TestSourceRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	txns := randomCorpus(rng, 80, 30, 8)

	// Named measures on normalized data: indexed.
	if !NewSource(txns, sim.Jaccard).Indexed() {
		t.Error("jaccard source not indexed")
	}
	// Nil similarity selects Jaccard (matching rock.Config) and indexes.
	if !NewSource(txns, nil).Indexed() {
		t.Error("nil-similarity source not indexed")
	}
	// A custom similarity function cannot be indexed.
	custom := func(a, b dataset.Transaction) float64 { return sim.Jaccard(a, b) }
	if NewSource(txns, custom).Indexed() {
		t.Error("custom similarity claimed indexed")
	}
	// Unnormalized transactions force brute force.
	bad := append([]dataset.Transaction{{3, 1, 2}}, txns...)
	if NewSource(bad, sim.Jaccard).Indexed() {
		t.Error("unnormalized corpus claimed indexed")
	}

	// Whatever the routing decision, results match brute force — including
	// below MinIndexTheta, where the source itself switches engines.
	for _, theta := range []float64{0, MinIndexTheta / 2, 0.4, 0.9} {
		for _, f := range []sim.TxnFunc{sim.Jaccard, sim.Dice, custom} {
			want := links.ComputeNeighbors(len(txns), sim.ByIndex(txns, f), links.Config{Theta: theta, Workers: 1})
			got := NewSource(txns, f).ComputeNeighbors(links.Config{Theta: theta})
			if !reflect.DeepEqual(got.Lists, want.Lists) {
				t.Errorf("theta=%v: source lists differ from brute force", theta)
			}
		}
	}
}

// TestMinOverlapBounds verifies the filter bounds against exhaustive
// evaluation of the float predicate they are derived from.
func TestMinOverlapBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		m := allMeasures[rng.Intn(len(allMeasures))]
		la, lb := rng.Intn(30), rng.Intn(30)
		theta := rng.Float64()
		mn := la
		if lb < mn {
			mn = lb
		}
		want := mn + 1
		for i := 0; i <= mn; i++ {
			if m.Eval(i, la, lb) >= theta {
				want = i
				break
			}
		}
		if got := m.minOverlapPair(la, lb, theta); got != want {
			t.Fatalf("%v minOverlapPair(%d,%d,%v) = %d, want %d", m, la, lb, theta, got, want)
		}
		wantAny := la + 1
		for i := 0; i <= la; i++ {
			if m.Eval(i, la, i) >= theta {
				wantAny = i
				break
			}
		}
		if got := m.minOverlapAny(la, theta); got != wantAny {
			t.Fatalf("%v minOverlapAny(%d,%v) = %d, want %d", m, la, theta, got, wantAny)
		}
	}
}

// TestEvalMatchesSimPackage pins Measure.Eval to the sim package functions
// it mirrors: same intersection, same lengths, same float64 result.
func TestEvalMatchesSimPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		a := randomCorpus(rng, 1, 25, 12)[0]
		b := randomCorpus(rng, 1, 25, 12)[0]
		inter := a.IntersectLen(b)
		for _, m := range allMeasures {
			f, _ := sim.TxnByName(m.String())
			if got, want := m.Eval(inter, len(a), len(b)), f(a, b); got != want {
				t.Fatalf("%v: Eval=%v sim=%v (a=%v b=%v)", m, got, want, a, b)
			}
		}
	}
}

func TestMeasureByName(t *testing.T) {
	for _, m := range allMeasures {
		got, ok := MeasureByName(m.String())
		if !ok || got != m {
			t.Errorf("MeasureByName(%q) = %v, %v", m.String(), got, ok)
		}
		if _, ok := sim.TxnByName(m.String()); !ok {
			t.Errorf("measure %q not in sim registry", m.String())
		}
	}
	if _, ok := MeasureByName("euclidean"); ok {
		t.Error("unknown name resolved")
	}
}

// TestJoinLargerRandom runs a bigger randomized sweep, on both engines, so
// the prefix, length and positional filters all actually fire (it fails
// loudly if any of them over-prunes).
func TestJoinLargerRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("larger randomized equivalence sweep")
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		txns := randomCorpus(rng, 400, 60, 20)
		for _, m := range allMeasures {
			theta := 0.1 + 0.85*rng.Float64()
			want := brute(txns, m, theta)
			for _, e := range engines {
				got := e.join(txns, m, theta, 2)
				if !reflect.DeepEqual(got.Lists, want.Lists) {
					t.Errorf("seed=%d %s %v theta=%v: lists differ", seed, e.name, m, theta)
				}
			}
		}
	}
}

func ExampleJoin() {
	txns := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3),
		dataset.NewTransaction(1, 2, 4),
		dataset.NewTransaction(5, 6),
	}
	nb := Join(txns, Jaccard, 0.5, 1)
	fmt.Println(nb.Lists[0], nb.Lists[1], nb.Lists[2])
	// Output: [1] [0] []
}

// basketSample draws n transactions from the Section 5.3 basket generator
// with the given mean basket size, exactly as the root package's
// neighbor-join benchmarks do.
func basketSample(n int, mean float64) []dataset.Transaction {
	cfg := datagen.DefaultBasketConfig()
	if d := 114586 / n; d > 1 {
		cfg = datagen.ScaledBasketConfig(d)
	}
	cfg.MeanSize = mean
	cfg.StdSize = 1.72 * mean / 15
	rng := rand.New(rand.NewSource(1))
	d := datagen.Basket(cfg, rng)
	idx := sample.Indices(len(d.Txns), n, rng)
	sub := make([]dataset.Transaction, len(idx))
	for i, p := range idx {
		sub[i] = d.Txns[p]
	}
	return sub
}

// TestJoinEngineChoice pins Join's cost rule on corpora on both sides of
// it: the dense Table 3 records, where the prefix filter prunes nothing,
// take the sweep; the benchmark basket rows whose prefixes are selective
// enough, and a sparse corpus over a large universe, keep the index.
func TestJoinEngineChoice(t *testing.T) {
	md := datagen.Mushroom(datagen.DefaultMushroomConfig(), rand.New(rand.NewSource(1)))
	mushroom := dataset.NewEncoder(md.Schema).EncodeAll(md.Records)
	cases := []struct {
		name  string
		txns  []dataset.Transaction
		theta float64
		sweep bool
	}{
		{"table3", mushroom, 0.5, true},
		{"table3", mushroom, 0.8, true},
		{"table3", mushroom, 0.9, true},
		{"basket n=5000 mean=15", basketSample(5000, 15), 0.8, false},
		{"basket n=5000 mean=8", basketSample(5000, 8), 0.5, false},
		{"sparse", randomCorpus(rand.New(rand.NewSource(5)), 5000, 100000, 20), 0.5, false},
	}
	for _, c := range cases {
		_, counts := rankRecords(c.txns, Jaccard, c.theta)
		if got := preferSweep(counts, len(c.txns), (len(counts)+63)/64); got != c.sweep {
			t.Errorf("%s theta=%v: preferSweep = %v, want %v", c.name, c.theta, got, c.sweep)
		}
	}
	if testing.Short() {
		return
	}
	// The Table 3 records at the paper's threshold, through both engines.
	want := JoinIndex(mushroom, Jaccard, 0.8, 0)
	if got := JoinSweep(mushroom, Jaccard, 0.8, 0); !reflect.DeepEqual(got.Lists, want.Lists) {
		t.Error("table3 theta=0.8: sweep and index lists differ")
	}
}
