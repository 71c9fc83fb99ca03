// Package links implements the neighbor and link machinery of Sections 3.1,
// 3.2 and 4.4 of the ROCK paper. A pair of points are neighbors when their
// similarity is at least theta; link(p, q) is the number of common neighbors
// of p and q (equivalently, the number of length-2 paths between them in the
// neighbor graph).
//
// Link computation is provided in three forms: the sparse neighbor-list
// algorithm of Figure 4 (O(Σ m_i²), the form ROCK uses; ComputeLists
// yields it as per-point link lists, Compute and ComputeParallel as a
// table), a dense adjacency-matrix-squaring algorithm (the O(n³)
// formulation Section 4.4 describes before dismissing it for sparse data),
// and a length-3 path variant used only by the ablation benchmarks
// (Section 3.2 discusses and rejects longer paths).
package links

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"rock/internal/sim"
)

// Neighbors holds, for every point, the sorted list of its neighbors. Self
// is never included: per the paper's examples (Section 3.2), links count
// common *third-party* neighbors only.
type Neighbors struct {
	Lists [][]int32
}

// N returns the number of points.
func (nb *Neighbors) N() int { return len(nb.Lists) }

// Degree returns the number of neighbors of point i.
func (nb *Neighbors) Degree(i int) int { return len(nb.Lists[i]) }

// MaxDegree returns m_m, the maximum number of neighbors over all points.
func (nb *Neighbors) MaxDegree() int {
	m := 0
	for _, l := range nb.Lists {
		if len(l) > m {
			m = len(l)
		}
	}
	return m
}

// AvgDegree returns m_a, the average number of neighbors per point.
func (nb *Neighbors) AvgDegree() float64 {
	if len(nb.Lists) == 0 {
		return 0
	}
	s := 0
	for _, l := range nb.Lists {
		s += len(l)
	}
	return float64(s) / float64(len(nb.Lists))
}

// Contains reports whether j is a neighbor of i.
func (nb *Neighbors) Contains(i int, j int32) bool {
	l := nb.Lists[i]
	lo, hi := 0, len(l)
	for lo < hi {
		mid := (lo + hi) / 2
		if l[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(l) && l[lo] == j
}

// Config controls neighbor and link computation.
type Config struct {
	// Theta is the similarity threshold of Section 3.1; pairs with
	// sim >= Theta are neighbors. Must lie in [0, 1].
	Theta float64
	// Workers bounds the number of goroutines used for the O(n²)
	// similarity evaluation. Zero means GOMAXPROCS; one gives the
	// paper's sequential behaviour.
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// NeighborSource produces the theta-neighbor lists of a point set. The
// brute-force pairwise sweep (SimSource) and the inverted-index threshold
// join (internal/simjoin) both implement it; callers that hold typed data
// pick the engine, while the clustering core consumes only the interface.
// Implementations must produce lists identical to ComputeNeighbors over the
// same points and similarity.
type NeighborSource interface {
	ComputeNeighbors(cfg Config) *Neighbors
}

// SimSource is the brute-force NeighborSource: an index-addressed similarity
// evaluated over all pairs. It handles any similarity — expert tables, Lp
// vectors, pairwise record rules — at O(n²) cost.
type SimSource struct {
	NumPoints int
	Sim       sim.Func
}

// ComputeNeighbors implements NeighborSource.
func (s SimSource) ComputeNeighbors(cfg Config) *Neighbors {
	return ComputeNeighbors(s.NumPoints, s.Sim, cfg)
}

// ComputeNeighbors evaluates the similarity of every pair of the n points
// and returns the neighbor lists. The similarity function must be symmetric;
// only pairs i < j are evaluated and the result is mirrored.
func ComputeNeighbors(n int, s sim.Func, cfg Config) *Neighbors {
	if math.IsNaN(cfg.Theta) || cfg.Theta < 0 || cfg.Theta > 1 {
		panic(fmt.Sprintf("links: theta %v out of [0,1]", cfg.Theta))
	}
	lists := make([][]int32, n)
	w := cfg.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		computeNeighborRows(0, n, n, s, cfg.Theta, lists)
	} else {
		// Rows i have n-1-i pairs each; interleave rows across workers
		// so the load balances without a work queue.
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += w {
					computeNeighborRow(i, n, s, cfg.Theta, lists)
				}
			}(g)
		}
		wg.Wait()
		// Mirror: lists currently hold only j > i entries.
	}
	Mirror(lists)
	return &Neighbors{Lists: lists}
}

func computeNeighborRows(lo, hi, n int, s sim.Func, theta float64, lists [][]int32) {
	for i := lo; i < hi; i++ {
		computeNeighborRow(i, n, s, theta, lists)
	}
}

// computeNeighborRow fills lists[i] with neighbors j > i.
func computeNeighborRow(i, n int, s sim.Func, theta float64, lists [][]int32) {
	var row []int32
	for j := i + 1; j < n; j++ {
		if s(i, j) >= theta {
			row = append(row, int32(j))
		}
	}
	lists[i] = row
}

// Mirror completes neighbor lists that contain only forward (j > i) entries
// so that every list holds all neighbors in sorted order. It is shared by
// every NeighborSource that generates pairs once, from the smaller index.
// Back-degrees are counted in a first pass so each merged list is allocated
// exactly once at its final size.
func Mirror(lists [][]int32) {
	n := len(lists)
	bd := make([]int, n)
	for i := 0; i < n; i++ {
		for _, j := range lists[i] {
			bd[j]++
		}
	}
	merged := make([][]int32, n)
	for i := 0; i < n; i++ {
		if bd[i] > 0 {
			merged[i] = make([]int32, 0, bd[i]+len(lists[i]))
		}
	}
	// Scanning i in ascending order writes each back section pre-sorted.
	for i := 0; i < n; i++ {
		for _, j := range lists[i] {
			merged[j] = append(merged[j], int32(i))
		}
	}
	for i := 0; i < n; i++ {
		// back entries are all < i, forward entries all > i, both sorted.
		if bd[i] > 0 {
			lists[i] = append(merged[i], lists[i]...)
		}
	}
}

// FilterMinDegree returns the indices of points with at least minDeg
// neighbors (the survivors) and those with fewer (the outliers). This is the
// first outlier-pruning mechanism of Section 4.6: isolated points never
// participate in clustering.
func (nb *Neighbors) FilterMinDegree(minDeg int) (keep, outliers []int) {
	for i, l := range nb.Lists {
		if len(l) >= minDeg {
			keep = append(keep, i)
		} else {
			outliers = append(outliers, i)
		}
	}
	return keep, outliers
}

// Subset re-indexes the neighbor structure onto the given subset of points
// (typically the survivors of outlier pruning). keep must be sorted; the
// returned structure has len(keep) points, and neighbors outside keep are
// dropped.
func (nb *Neighbors) Subset(keep []int) *Neighbors {
	// Dense remap array: this runs on the outlier-pruning path of every
	// clustering run, and the map version's hash lookups dominated it.
	remap := make([]int32, nb.N())
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range keep {
		remap[old] = int32(newID)
	}
	lists := make([][]int32, len(keep))
	for newID, old := range keep {
		var row []int32
		for _, j := range nb.Lists[old] {
			if nj := remap[j]; nj >= 0 {
				row = append(row, nj)
			}
		}
		lists[newID] = row
	}
	return &Neighbors{Lists: lists}
}
