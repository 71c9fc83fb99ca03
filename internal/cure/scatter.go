package cure

import "math/rand"

// Scatter selects up to count well-scattered candidates from n by CURE's
// farthest-point heuristic (Guha, Rastogi & Shim, SIGMOD 1998, §3.1): the
// selection starts from first and repeatedly adds the candidate whose
// minimum distance to the already-chosen set is largest. Indices are in
// [0, n); dist must be symmetric. The returned indices are in selection
// order (first element is first).
//
// The heuristic is metric-agnostic on purpose: cure's own merge step runs
// it under squared Euclidean distance over numeric points, and the sharded
// trainer (internal/train) runs it under 1 - similarity over categorical
// transactions to summarize shard clusters with representative points.
func Scatter(n, count, first int, dist func(i, j int) float64) []int {
	if n <= 0 || count <= 0 || first < 0 || first >= n {
		return nil
	}
	if count > n {
		count = n
	}
	chosen := make([]int, 1, count)
	chosen[0] = first
	// minDist[i] is the distance from candidate i to the chosen set.
	minDist := make([]float64, n)
	for i := 0; i < n; i++ {
		minDist[i] = dist(i, first)
	}
	for len(chosen) < count {
		best, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		chosen = append(chosen, best)
		for i := 0; i < n; i++ {
			if d := dist(i, best); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return chosen
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
	// When cand is every point the matrix also serves the scatter, so it
	// carries the diagonal too: dist(i, i) need not be 0 (under 1 - Jaccard
	// an empty transaction is at distance 1 from itself).
	k := len(cand)
	full := k == n
	d := make([]float64, k*k)
	for i := 0; i < k; i++ {
		if full {
			d[i*k+i] = dist(i, i)
		}
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
	if full {
		return Scatter(n, count, medoid, func(i, j int) float64 { return d[i*n+j] })
	}
	return Scatter(n, count, medoid, dist)
}
