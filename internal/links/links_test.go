package links

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rock/internal/dataset"
	"rock/internal/sim"
)

// figure1Txns builds the paper's Figure 1 basket data: one cluster of all
// 3-subsets of {1..5}, a second of all 3-subsets of {1, 2, 6, 7}.
func figure1Txns() (txns []dataset.Transaction, firstCluster int) {
	items1 := []dataset.Item{1, 2, 3, 4, 5}
	items2 := []dataset.Item{1, 2, 6, 7}
	add := func(items []dataset.Item) {
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				for k := j + 1; k < len(items); k++ {
					txns = append(txns, dataset.NewTransaction(items[i], items[j], items[k]))
				}
			}
		}
	}
	add(items1)
	firstCluster = len(txns) // C(5,3) = 10
	add(items2)              // C(4,3) = 4
	return txns, firstCluster
}

func findTxn(t *testing.T, txns []dataset.Transaction, want ...dataset.Item) int {
	t.Helper()
	w := dataset.NewTransaction(want...)
	for i, tx := range txns {
		if tx.Equal(w) {
			return i
		}
	}
	t.Fatalf("transaction %v not found", w)
	return -1
}

// TestFigure1LinkCounts verifies the paper's worked example (Sections 1.2
// and 3.2): at theta = 0.5 under Jaccard, {1,2,6} has 5 links to {1,2,7}
// and only 3 links to {1,2,3}; {1,6,7} has 2 links to every transaction in
// the small cluster and 0 links to every other transaction in the big one.
func TestFigure1LinkCounts(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.5})
	table := Compute(nb, DefaultDenseLimit)

	t126 := findTxn(t, txns, 1, 2, 6)
	t127 := findTxn(t, txns, 1, 2, 7)
	t123 := findTxn(t, txns, 1, 2, 3)
	t167 := findTxn(t, txns, 1, 6, 7)
	t267 := findTxn(t, txns, 2, 6, 7)
	t134 := findTxn(t, txns, 1, 3, 4)
	t345 := findTxn(t, txns, 3, 4, 5)

	if got := table.Get(t126, t127); got != 5 {
		t.Errorf("link({1,2,6},{1,2,7}) = %d, want 5", got)
	}
	if got := table.Get(t126, t123); got != 3 {
		t.Errorf("link({1,2,6},{1,2,3}) = %d, want 3", got)
	}
	// "{1,6,7} has 2 links with every transaction in the smaller cluster"
	for _, j := range []int{t126, t127, t267} {
		if got := table.Get(t167, j); got != 2 {
			t.Errorf("link({1,6,7}, %v) = %d, want 2", txns[j], got)
		}
	}
	// "... and 0 links with every other transaction in the bigger cluster"
	// — i.e. the big-cluster transactions that do not contain both of the
	// shared items 1 and 2 (those containing both are bridged to {1,6,7}
	// through {1,2,6} and {1,2,7}).
	t145 := findTxn(t, txns, 1, 4, 5)
	for _, j := range []int{t134, t345, t145} {
		if got := table.Get(t167, j); got != 0 {
			t.Errorf("link({1,6,7}, %v) = %d, want 0", txns[j], got)
		}
	}
}

// TestFigure1PairExample12 checks Example 1.2's companion numbers: pairs in
// the same cluster containing {1,2} have 5 common neighbors, pairs across
// clusters containing {1,2} have 3.
func TestFigure1PairExample12(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.5})
	table := Compute(nb, DefaultDenseLimit)

	t123 := findTxn(t, txns, 1, 2, 3)
	t124 := findTxn(t, txns, 1, 2, 4)
	t126 := findTxn(t, txns, 1, 2, 6)
	if got := table.Get(t123, t124); got != 5 {
		t.Errorf("link({1,2,3},{1,2,4}) = %d, want 5", got)
	}
	if got := table.Get(t123, t126); got != 3 {
		t.Errorf("link({1,2,3},{1,2,6}) = %d, want 3", got)
	}
}

func TestNeighborListsExcludeSelfAndAreSorted(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.2})
	for i, l := range nb.Lists {
		if !sort.SliceIsSorted(l, func(a, b int) bool { return l[a] < l[b] }) {
			t.Fatalf("neighbor list %d not sorted: %v", i, l)
		}
		for _, j := range l {
			if int(j) == i {
				t.Fatalf("point %d is its own neighbor", i)
			}
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.4})
	for i := range nb.Lists {
		for _, j := range nb.Lists[i] {
			if !nb.Contains(int(j), int32(i)) {
				t.Fatalf("neighbor relation not symmetric: %d in list of %d but not vice versa", i, j)
			}
		}
	}
}

func TestParallelNeighborsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	txns := randomTxns(rng, 120, 40, 8)
	s := sim.ByIndex(txns, sim.Jaccard)
	seq := ComputeNeighbors(len(txns), s, Config{Theta: 0.3, Workers: 1})
	par := ComputeNeighbors(len(txns), s, Config{Theta: 0.3, Workers: 4})
	if !reflect.DeepEqual(seq.Lists, par.Lists) {
		t.Fatal("parallel neighbor lists differ from sequential")
	}
}

// TestComputeNeighborsRejectsBadTheta: θ outside [0,1], NaN included, is a
// programming error and panics instead of silently finding no neighbors.
func TestComputeNeighborsRejectsBadTheta(t *testing.T) {
	txns, _ := figure1Txns()
	for _, theta := range []float64{math.NaN(), -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("theta %v accepted", theta)
				}
			}()
			ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: theta})
		}()
	}
}

func TestThetaOneOnlyIdenticalNeighbors(t *testing.T) {
	txns := []dataset.Transaction{
		dataset.NewTransaction(1, 2),
		dataset.NewTransaction(1, 2),
		dataset.NewTransaction(1, 3),
	}
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 1})
	if got := nb.Degree(0); got != 1 {
		t.Errorf("degree(0) = %d, want 1 (only the identical twin)", got)
	}
	if got := nb.Degree(2); got != 0 {
		t.Errorf("degree(2) = %d, want 0", got)
	}
}

func TestThetaZeroEveryPairNeighbors(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0})
	for i := range nb.Lists {
		if nb.Degree(i) != len(txns)-1 {
			t.Fatalf("degree(%d) = %d, want %d", i, nb.Degree(i), len(txns)-1)
		}
	}
}

// bruteForceLinks counts common neighbors directly from the lists.
func bruteForceLinks(nb *Neighbors, i, j int) int {
	set := make(map[int32]bool)
	for _, x := range nb.Lists[i] {
		set[x] = true
	}
	c := 0
	for _, x := range nb.Lists[j] {
		if set[x] {
			c++
		}
	}
	return c
}

func randomTxns(rng *rand.Rand, n, universe, avgSize int) []dataset.Transaction {
	txns := make([]dataset.Transaction, n)
	for i := range txns {
		size := 1 + rng.Intn(2*avgSize)
		items := make([]dataset.Item, size)
		for k := range items {
			items[k] = dataset.Item(rng.Intn(universe))
		}
		txns[i] = dataset.NewTransaction(items...)
	}
	return txns
}

// TestLinkTableImplementationsAgree cross-checks the Figure 4 sparse
// algorithm on both table representations, the bitset matrix squaring, the
// naive matrix squaring and the brute-force common-neighbor count.
func TestLinkTableImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		txns := randomTxns(rng, 80, 30, 6)
		theta := []float64{0.1, 0.3, 0.5, 0.7, 0.9}[trial]
		nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: theta})
		dense := Compute(nb, len(txns))
		sparse := Compute(nb, -1)
		mat := ComputeDenseMatrix(nb)
		naive := ComputeNaiveMatrix(nb)
		if _, ok := dense.(*DenseTable); !ok {
			t.Fatal("expected dense table")
		}
		if _, ok := sparse.(*SparseTable); !ok {
			t.Fatal("expected sparse table")
		}
		for i := 0; i < len(txns); i++ {
			for j := i + 1; j < len(txns); j++ {
				want := bruteForceLinks(nb, i, j)
				for name, got := range map[string]int{
					"dense":  dense.Get(i, j),
					"sparse": sparse.Get(i, j),
					"matrix": mat.Get(i, j),
					"naive":  naive.Get(i, j),
				} {
					if got != want {
						t.Fatalf("theta=%v %s.Get(%d,%d) = %d, want %d", theta, name, i, j, got, want)
					}
				}
			}
		}
		if dense.NonZeroPairs() != sparse.NonZeroPairs() {
			t.Fatalf("NonZeroPairs disagree: %d vs %d", dense.NonZeroPairs(), sparse.NonZeroPairs())
		}
	}
}

func TestTableForEachConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	txns := randomTxns(rng, 60, 25, 5)
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.4})
	for _, table := range []Table{Compute(nb, len(txns)), Compute(nb, -1)} {
		for i := 0; i < table.N(); i++ {
			seen := make(map[int]int)
			table.ForEach(i, func(j, l int) {
				if j == i {
					t.Fatalf("ForEach(%d) visited self", i)
				}
				if _, dup := seen[j]; dup {
					t.Fatalf("ForEach(%d) visited %d twice", i, j)
				}
				seen[j] = l
			})
			for j := 0; j < table.N(); j++ {
				if j == i {
					continue
				}
				want := table.Get(i, j)
				if want == 0 {
					if _, ok := seen[j]; ok {
						t.Fatalf("ForEach(%d) visited zero-link %d", i, j)
					}
					continue
				}
				if seen[j] != want {
					t.Fatalf("ForEach(%d) link to %d = %d, want %d", i, j, seen[j], want)
				}
			}
		}
	}
}

// TestTableForEachPair: both tables visit every linked pair exactly once,
// smaller endpoint first, with its Get count; the dense one in row-major
// order, which is what lets the clustering core build every point's sorted
// link list in one pass.
func TestTableForEachPair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	txns := randomTxns(rng, 60, 25, 5)
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.4})
	for _, table := range []Table{Compute(nb, len(txns)), Compute(nb, -1)} {
		_, dense := table.(*DenseTable)
		seen := make(map[[2]int]bool)
		prev := [2]int{-1, -1}
		table.ForEachPair(func(i, j, l int) {
			p := [2]int{i, j}
			if i >= j || seen[p] {
				t.Fatalf("dense=%v: pair (%d,%d) out of order or repeated", dense, i, j)
			}
			if dense && (i < prev[0] || (i == prev[0] && j <= prev[1])) {
				t.Fatalf("dense pair (%d,%d) after (%d,%d)", i, j, prev[0], prev[1])
			}
			if want := table.Get(i, j); l != want || l == 0 {
				t.Fatalf("dense=%v: link(%d,%d) = %d, Get %d", dense, i, j, l, want)
			}
			seen[p], prev = true, p
		})
		if len(seen) != table.NonZeroPairs() {
			t.Fatalf("dense=%v: visited %d pairs, NonZeroPairs %d", dense, len(seen), table.NonZeroPairs())
		}
	}
}

func TestSubsetRemapsNeighbors(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.5})
	keep := []int{0, 2, 4, 6, 8, 10, 12}
	sub := nb.Subset(keep)
	if sub.N() != len(keep) {
		t.Fatalf("subset size %d, want %d", sub.N(), len(keep))
	}
	for newI, oldI := range keep {
		for _, newJ := range sub.Lists[newI] {
			oldJ := keep[newJ]
			if !nb.Contains(oldI, int32(oldJ)) {
				t.Fatalf("subset invented neighbor %d-%d", oldI, oldJ)
			}
		}
		// Count neighbors of oldI that are inside keep.
		want := 0
		for _, j := range nb.Lists[oldI] {
			for _, k := range keep {
				if int(j) == k {
					want++
				}
			}
		}
		if got := len(sub.Lists[newI]); got != want {
			t.Fatalf("subset degree(%d) = %d, want %d", newI, got, want)
		}
	}
}

func TestFilterMinDegree(t *testing.T) {
	txns := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3),
		dataset.NewTransaction(1, 2, 4),
		dataset.NewTransaction(9, 10), // isolated
	}
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.4})
	keep, out := nb.FilterMinDegree(1)
	if !reflect.DeepEqual(keep, []int{0, 1}) || !reflect.DeepEqual(out, []int{2}) {
		t.Fatalf("FilterMinDegree = %v, %v", keep, out)
	}
}

// TestDenseTableQuick property-tests the triangular index round trip.
func TestDenseTableQuick(t *testing.T) {
	f := func(i, j uint8) bool {
		n := 64
		a, b := int(i)%n, int(j)%n
		if a == b {
			return true
		}
		tab := NewDenseTable(n)
		tab.Add(a, b, 3)
		return tab.Get(a, b) == 3 && tab.Get(b, a) == 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPath3MatchesBruteForce checks the ablation's length-3 path counter on
// small random graphs.
func TestPath3MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	txns := randomTxns(rng, 30, 15, 4)
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.3})
	got := ComputePath3(nb)
	n := nb.N()
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		for _, j := range nb.Lists[i] {
			adj[i][j] = true
		}
	}
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			want := 0
			for x := 0; x < n; x++ {
				if !adj[p][x] || x == q {
					continue
				}
				for y := 0; y < n; y++ {
					if y == p || y == x || x == q {
						continue
					}
					if adj[x][y] && adj[y][q] && y != q {
						want++
					}
				}
			}
			if got.Get(p, q) != want {
				t.Fatalf("path3(%d,%d) = %d, want %d", p, q, got.Get(p, q), want)
			}
		}
	}
}
