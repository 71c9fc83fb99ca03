package cure

import (
	"fmt"
	"math/rand"
	"testing"

	"rock/internal/dataset"
	"rock/internal/sim"
)

// TestScatterMedoidSeedsAtMedoid: with a clear densest point, the first
// selected index must be it, and the rest must follow the farthest-point
// rule (verified against Scatter seeded at the same point).
func TestScatterMedoidSeedsAtMedoid(t *testing.T) {
	// Points on a line; index 2 minimizes total distance.
	xs := []float64{0, 1, 2, 3, 4}
	dist := func(i, j int) float64 {
		d := xs[i] - xs[j]
		if d < 0 {
			d = -d
		}
		return d / 4 // keep dist in [0,1] so 1-dist acts like a similarity
	}
	got := ScatterMedoid(len(xs), 3, 0, dist, nil)
	if len(got) != 3 || got[0] != 2 {
		t.Fatalf("ScatterMedoid = %v, want medoid 2 first", got)
	}
	want := Scatter(len(xs), 3, 2, dist)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScatterMedoid = %v, Scatter from medoid = %v", got, want)
		}
	}
}

func TestScatterMedoidSubsetEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = rng.Float64()
	}
	dist := func(i, j int) float64 {
		d := pts[i] - pts[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	got := ScatterMedoid(n, 5, 32, dist, rng)
	if len(got) != 5 {
		t.Fatalf("want 5 indices, got %v", got)
	}
	seen := map[int]bool{}
	for _, ix := range got {
		if ix < 0 || ix >= n || seen[ix] {
			t.Fatalf("bad selection %v", got)
		}
		seen[ix] = true
	}
}

func TestScatterMedoidDegenerate(t *testing.T) {
	if got := ScatterMedoid(0, 3, 0, nil, nil); got != nil {
		t.Fatalf("n=0: got %v", got)
	}
	if got := ScatterMedoid(3, 0, 0, nil, nil); got != nil {
		t.Fatalf("count=0: got %v", got)
	}
	one := ScatterMedoid(1, 4, 0, func(i, j int) float64 { return 0 }, nil)
	if len(one) != 1 || one[0] != 0 {
		t.Fatalf("n=1: got %v", one)
	}
}

// scatterMedoidNaive is the per-pair reference: every ordered pair's
// distance evaluated in the medoid sums.
func scatterMedoidNaive(n, count, medoidCap int, dist func(i, j int) float64, rng *rand.Rand) []int {
	if n <= 0 || count <= 0 {
		return nil
	}
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	if medoidCap > 0 && n > medoidCap && rng != nil {
		cand = rng.Perm(n)[:medoidCap]
	}
	medoid, best := cand[0], -1.0
	for _, a := range cand {
		total := 0.0
		for _, b := range cand {
			if a != b {
				total += 1 - dist(a, b)
			}
		}
		if total > best {
			medoid, best = a, total
		}
	}
	return Scatter(n, count, medoid, dist)
}

// TestScatterMedoidMatchesPerPair: evaluating each unordered pair once
// picks exactly what the per-pair sums pick — ties, count > n and the
// random medoid subset included — and consumes the rng identically.
func TestScatterMedoidMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, count, medoidCap, levels int }{
		{1, 3, 0, 4}, {2, 1, 0, 2}, {7, 3, 0, 2}, {7, 10, 0, 3},
		{40, 8, 512, 5}, {40, 8, 16, 1000}, {600, 8, 512, 7}, {600, 700, 512, 1 << 20},
	} {
		// Symmetric distances on a coarse grid (few levels: many ties) with
		// non-terminating binary fractions, so float sums depend on order.
		d := make([]float64, tc.n*tc.n)
		for i := 0; i < tc.n; i++ {
			for j := i + 1; j < tc.n; j++ {
				v := float64(rng.Intn(tc.levels)) / float64(tc.levels) * 0.9
				d[i*tc.n+j], d[j*tc.n+i] = v, v
			}
		}
		dist := func(i, j int) float64 { return d[i*tc.n+j] }
		checkMatchesPerPair(t, fmt.Sprintf("%+v", tc), tc.n, tc.count, tc.medoidCap, dist, rng.Int63())
	}

	// 1 - Jaccard over transactions, whose diagonal is not all zero: an
	// empty transaction is at distance 1 from itself. Up to n = medoidCap
	// the scatter reads the medoid's matrix; above it the medoid comes from
	// a subset and the scatter calls dist.
	for _, tc := range []struct{ n, count, medoidCap int }{
		{12, 6, 0}, {64, 8, 64}, {100, 8, 64},
	} {
		txns := make([]dataset.Transaction, tc.n)
		for i := range txns {
			if i%5 == 2 {
				txns[i] = dataset.Transaction{}
				continue
			}
			txn := make(dataset.Transaction, 1+rng.Intn(6))
			for k := range txn {
				txn[k] = dataset.Item(rng.Intn(30))
			}
			txn.Normalize()
			txns[i] = txn
		}
		dist := func(i, j int) float64 { return 1 - sim.Jaccard(txns[i], txns[j]) }
		checkMatchesPerPair(t, fmt.Sprintf("transactions %+v", tc), tc.n, tc.count, tc.medoidCap, dist, rng.Int63())
	}
}

// checkMatchesPerPair runs ScatterMedoid and the per-pair reference on
// identically seeded rngs and requires the same picks and rng state.
func checkMatchesPerPair(t *testing.T, name string, n, count, medoidCap int, dist func(i, j int) float64, seed int64) {
	t.Helper()
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got := ScatterMedoid(n, count, medoidCap, dist, r1)
	want := scatterMedoidNaive(n, count, medoidCap, dist, r2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: ScatterMedoid %v, per-pair %v", name, got, want)
	}
	if a, b := r1.Int63(), r2.Int63(); a != b {
		t.Fatalf("%s: rng diverged after the call", name)
	}
}

// TestScatterPicksDistinct: the scatter never chooses an index twice — not
// when every distance is 0, and not when a point is farther from itself
// than from the chosen set (under 1 - Jaccard an empty transaction is at
// distance 1 from itself) — and it returns min(count, n) picks.
func TestScatterPicksDistinct(t *testing.T) {
	zero := func(i, j int) float64 { return 0 }
	if got := Scatter(5, 3, 2, zero); fmt.Sprint(got) != "[2 0 1]" {
		t.Fatalf("zero distances: Scatter = %v, want [2 0 1]", got)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		txns := make([]dataset.Transaction, n)
		for i := range txns {
			if rng.Intn(4) == 0 {
				continue // empty
			}
			txn := make(dataset.Transaction, 1+rng.Intn(4))
			for k := range txn {
				txn[k] = dataset.Item(rng.Intn(6))
			}
			txn.Normalize()
			txns[i] = txn
		}
		dist := func(i, j int) float64 {
			if i == j {
				t.Fatalf("dist(%d, %d) asked", i, j)
			}
			return 1 - sim.Jaccard(txns[i], txns[j])
		}
		count := 1 + rng.Intn(n+3)
		for name, got := range map[string][]int{
			"Scatter":       Scatter(n, count, rng.Intn(n), dist),
			"ScatterMedoid": ScatterMedoid(n, count, 8, dist, rng),
		} {
			seen := map[int]bool{}
			for _, ix := range got {
				if ix < 0 || ix >= n || seen[ix] {
					t.Fatalf("trial %d: %s(n=%d, count=%d) = %v", trial, name, n, count, got)
				}
				seen[ix] = true
			}
			if len(got) != min(count, n) {
				t.Fatalf("trial %d: %s(n=%d, count=%d) = %v, want %d picks", trial, name, n, count, got, min(count, n))
			}
		}
	}
}
