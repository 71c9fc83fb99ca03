package links

import (
	"math/rand"
	"reflect"
	"testing"

	"rock/internal/sim"
)

func TestComputeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial, workers := range []int{2, 3, 8} {
		txns := randomTxns(rng, 150, 40, 7)
		nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.3})
		seqSparse := Compute(nb, -1)
		parSparse := ComputeParallel(nb, -1, workers)
		for i := 0; i < len(txns); i++ {
			for j := i + 1; j < len(txns); j++ {
				if got := parSparse.Get(i, j); got != seqSparse.Get(i, j) {
					t.Fatalf("trial %d sparse(%d,%d) = %d, want %d", trial, i, j, got, seqSparse.Get(i, j))
				}
			}
		}
		if parSparse.NonZeroPairs() != seqSparse.NonZeroPairs() {
			t.Fatalf("NonZeroPairs mismatch")
		}
	}
}

// randomGraph returns a symmetric, sorted neighbor structure on n points
// where each pair is adjacent with probability p.
func randomGraph(rng *rand.Rand, n int, p float64) *Neighbors {
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				lists[i] = append(lists[i], int32(j))
			}
		}
	}
	Mirror(lists)
	return &Neighbors{Lists: lists}
}

// TestDenseTableMatchesOracles checks the row-owned dense kernel, at every
// worker count, against two independent oracles: the bitset matrix
// squaring and the Figure 4 pair loop on the sparse table. Whole counter
// arrays are compared with the matrix oracle, so a stray write (the
// diagonal, another row) fails too. The cases cover n = 0, 1, 2, points
// with empty neighbor lists, a hub in the last row (the end of the table
// slice), and lists re-indexed by Subset.
func TestDenseTableMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Every even point's only neighbor is the last point.
	hub := &Neighbors{Lists: make([][]int32, 40)}
	for i := 0; i < 39; i += 2 {
		hub.Lists[i] = []int32{39}
		hub.Lists[39] = append(hub.Lists[39], int32(i))
	}
	txns := randomTxns(rng, 120, 30, 6)
	joined := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.3})
	keep, _ := joined.FilterMinDegree(3)
	cases := map[string]*Neighbors{
		"n=0":            {Lists: [][]int32{}},
		"n=1":            {Lists: [][]int32{nil}},
		"n=2 apart":      {Lists: [][]int32{nil, nil}},
		"n=2 adjacent":   {Lists: [][]int32{{1}, {0}}},
		"clique":         randomGraph(rng, 9, 1),
		"sparse":         randomGraph(rng, 97, 0.05),
		"dense":          randomGraph(rng, 60, 0.5),
		"last-row hub":   hub,
		"jaccard join":   joined,
		"subset of join": joined.Subset(keep),
	}
	for name, nb := range cases {
		n := nb.N()
		mat := ComputeDenseMatrix(nb)
		sparse := Compute(nb, -1)
		for _, workers := range []int{1, 2, 3, 8} {
			tab, ok := ComputeParallel(nb, n, workers).(*DenseTable)
			if !ok {
				t.Fatalf("%s workers=%d: not a dense table", name, workers)
			}
			if !reflect.DeepEqual(tab.vals, mat.vals) {
				t.Fatalf("%s workers=%d: dense counters differ from matrix squaring", name, workers)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if got, want := tab.Get(i, j), sparse.Get(i, j); got != want {
						t.Fatalf("%s workers=%d: link(%d,%d) = %d, Figure 4 sparse %d", name, workers, i, j, got, want)
					}
				}
			}
			if got, want := tab.NonZeroPairs(), sparse.NonZeroPairs(); got != want {
				t.Fatalf("%s workers=%d: NonZeroPairs %d, sparse %d", name, workers, got, want)
			}
		}
	}
}

// TestDenseForEachAscending: the dense ForEach walks the column above point
// i and then its row, so it must still visit exactly the non-zero links in
// ascending j order, as the Table interface documents.
func TestDenseForEachAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 2, 7, 50} {
		nb := randomGraph(rng, n, 0.3)
		tab := Compute(nb, n).(*DenseTable)
		for i := 0; i < n; i++ {
			var got, want []int
			tab.ForEach(i, func(j, l int) {
				if l != tab.Get(i, j) {
					t.Fatalf("n=%d ForEach(%d) link to %d = %d, Get %d", n, i, j, l, tab.Get(i, j))
				}
				got = append(got, j)
			})
			for j := 0; j < n; j++ {
				if j != i && tab.Get(i, j) > 0 {
					want = append(want, j)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d ForEach(%d) visited %v, want %v", n, i, got, want)
			}
		}
	}
}

func TestComputeParallelFallsBackSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	txns := randomTxns(rng, 40, 20, 5)
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.4})
	tab := ComputeParallel(nb, DefaultDenseLimit, 1)
	if _, ok := tab.(*DenseTable); !ok {
		t.Fatal("expected dense table from sequential fallback")
	}
}
