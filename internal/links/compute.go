package links

import "math/bits"

// DefaultDenseLimit is the largest point count for which Compute picks the
// dense triangular table (n(n+1)/2 uint32 counters; 4096 points ≈ 32 MiB).
const DefaultDenseLimit = 4096

// Compute runs the sparse link-counting algorithm of Figure 4: every point
// contributes one link to each unordered pair of its neighbors, so after the
// pass link(p, q) equals the number of common neighbors of p and q. The
// complexity is O(Σ_i m_i²) — O(n·m_m·m_a) in the paper's notation.
//
// denseLimit selects the backing table: points counts up to the limit use
// the dense triangular array, larger inputs the sparse hash rows. Pass a
// negative limit to force sparse, or use DefaultDenseLimit. The dense table
// counts the same pairs grouped by output row (countDense, one worker).
func Compute(nb *Neighbors, denseLimit int) Table {
	if nb.N() <= denseLimit {
		return countDense(nb, 1)
	}
	t := NewSparseTable(nb.N())
	for _, l := range nb.Lists {
		for a := 0; a < len(l)-1; a++ {
			for b := a + 1; b < len(l); b++ {
				t.Add(int(l[a]), int(l[b]), 1)
			}
		}
	}
	return t
}

// ComputeDenseMatrix squares the boolean adjacency matrix directly — the
// O(n³) formulation Section 4.4 mentions first. It exists to validate the
// Figure 4 algorithm and to quantify, in the ablation benchmarks, how much
// the sparse algorithm saves; it should not be used for large inputs.
func ComputeDenseMatrix(nb *Neighbors) *DenseTable {
	n := nb.N()
	// Pack the adjacency matrix into bitset rows so the inner product is
	// a word-parallel popcount — a "blocked" matrix squaring.
	words := (n + 63) / 64
	adj := make([][]uint64, n)
	for i := 0; i < n; i++ {
		row := make([]uint64, words)
		for _, j := range nb.Lists[i] {
			row[j/64] |= 1 << (uint(j) % 64)
		}
		adj[i] = row
	}
	t := NewDenseTable(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 0
			ri, rj := adj[i], adj[j]
			for w := 0; w < words; w++ {
				c += popcount(ri[w] & rj[w])
			}
			// Common neighbors exclude the endpoints themselves; the
			// neighbor lists never contain self, but i may be a neighbor
			// of j (and vice versa) — those entries are x = i or x = j
			// with x a neighbor of itself, which cannot happen, so no
			// correction is needed here.
			if c > 0 {
				t.Add(i, j, c)
			}
		}
	}
	return t
}

// ComputeNaiveMatrix is the textbook triple loop over the adjacency matrix,
// kept as the slowest cross-check and as the baseline for the matrix-
// squaring ablation bench.
func ComputeNaiveMatrix(nb *Neighbors) *DenseTable {
	n := nb.N()
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		for _, j := range nb.Lists[i] {
			adj[i][j] = true
		}
	}
	t := NewDenseTable(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 0
			for l := 0; l < n; l++ {
				if adj[i][l] && adj[l][j] {
					c++
				}
			}
			if c > 0 {
				t.Add(i, j, c)
			}
		}
	}
	return t
}

// ComputePath3 counts length-3 paths between pairs of points in the neighbor
// graph: the alternative link definition Section 3.2 raises and rejects on
// cost grounds. link3(p, q) = Σ_{x∈N(p), y∈N(q)} [x~y], x,y distinct from
// p, q. Used only by the ablation benchmarks.
func ComputePath3(nb *Neighbors) *SparseTable {
	n := nb.N()
	t := NewSparseTable(n)
	for p := 0; p < n; p++ {
		for _, x32 := range nb.Lists[p] {
			x := int(x32)
			if x == p {
				continue
			}
			for _, y32 := range nb.Lists[x] {
				y := int(y32)
				if y == p {
					continue
				}
				// p - x - y - q for every neighbor q of y.
				for _, q32 := range nb.Lists[y] {
					q := int(q32)
					if q <= p || q == x || q == y {
						continue
					}
					t.Add(p, q, 1)
				}
			}
		}
	}
	return t
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
