package cure

import (
	"math"
	"math/rand"
)

// Scatter selects up to count well-scattered candidates from n by CURE's
// farthest-point heuristic (Guha, Rastogi & Shim, SIGMOD 1998, §3.1): the
// selection starts from first and repeatedly adds the unchosen candidate
// whose minimum distance to the already-chosen set is largest (the lowest
// index on ties). Indices are in [0, n) and distinct; dist must be
// symmetric and is never asked for a point's distance to itself. The
// returned indices are in selection order (first element is first).
//
// The heuristic is metric-agnostic on purpose: cure's own merge step runs
// it under squared Euclidean distance over numeric points, and the sharded
// trainer (internal/train) runs it under 1 - similarity over categorical
// transactions to summarize shard clusters with representative points.
func Scatter(n, count, first int, dist func(i, j int) float64) []int {
	if n <= 0 || count <= 0 || first < 0 || first >= n {
		return nil
	}
	count = min(count, n)
	// minDist[i] is the distance from candidate i to the chosen set, -Inf
	// once i is chosen.
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	chosen := make([]int, 0, count)
	for next := first; ; {
		chosen = append(chosen, next)
		if len(chosen) == count {
			return chosen
		}
		minDist[next] = math.Inf(-1)
		best := -1
		for i, m := range minDist {
			if math.IsInf(m, -1) {
				continue
			}
			if d := dist(i, next); d < m {
				minDist[i] = d
			}
			if best < 0 || minDist[i] > minDist[best] {
				best = i
			}
		}
		next = best
	}
}

// ScatterMedoid runs Scatter seeded at the point set's medoid: the point
// with the smallest total distance to the others, i.e. (under dist = 1 - sim)
// the one with the greatest total similarity — the densest point, the natural
// anchor for a scatter over a categorical cluster. When n exceeds medoidCap
// the medoid is estimated on a random subset drawn from rng; the medoid only
// seeds the selection, so an approximate one is fine. medoidCap <= 0 or a nil
// rng disables subsetting. Without a subset every distance is evaluated
// once, in the medoid's matrix, and the scatter reads that matrix. Both the
// sharded trainer and the streaming clusterer derive their representative
// sets through this entry point.
func ScatterMedoid(n, count, medoidCap int, dist func(i, j int) float64, rng *rand.Rand) []int {
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
	// Each unordered pair is evaluated once (dist is symmetric); the row
	// sums then run in cand order, exactly as a per-pair evaluation would.
	// When cand is every point the matrix also serves the scatter, which
	// never reads its diagonal.
	k := len(cand)
	d := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := dist(cand[i], cand[j])
			d[i*k+j], d[j*k+i] = v, v
		}
	}
	medoid, best := cand[0], -1.0
	for i, a := range cand {
		total := 0.0
		for j := range cand {
			if i != j {
				total += 1 - d[i*k+j]
			}
		}
		if total > best {
			medoid, best = a, total
		}
	}
	if k == n {
		return Scatter(n, count, medoid, func(i, j int) float64 { return d[i*n+j] })
	}
	return Scatter(n, count, medoid, dist)
}
