package links

import (
	"runtime"
	"sync"
)

// ComputeParallel is Compute with the Figure 4 pair counting sharded across
// workers. The dense table runs the row-owned kernel (countDense) with one
// row stripe per worker; the sparse path accumulates per-worker tables that
// are merged at the end. workers <= 1 falls back to the sequential Compute.
func ComputeParallel(nb *Neighbors, denseLimit, workers int) Table {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return Compute(nb, denseLimit)
	}
	if nb.N() <= denseLimit {
		return countDense(nb, workers)
	}
	return computeParallelSparse(nb, workers)
}

// countDense is the dense table's one counting kernel. It reorganizes the
// Figure 4 loop by output row: row i of the triangular table holds
// link(i, j) for j > i, and link(i, j) counts the points x with i, j ∈ N(x).
// Neighbor lists are symmetric (x ∈ N(i) ⇔ i ∈ N(x)), so that is the number
// of x ∈ N(i) with j ∈ N(x); and since N(x) is sorted, its entries j > i
// form a suffix found by binary search. Every (x, i < j) triple of Figure 4
// is visited exactly once, just grouped by i instead of by x.
//
// Worker g owns the rows i ≡ g (mod workers) and writes only inside them,
// so counting needs no synchronization, and each row's writes stay within
// one contiguous n-i counter slice. Interleaving the rows balances the
// shrinking row lengths across workers.
func countDense(nb *Neighbors, workers int) *DenseTable {
	t := NewDenseTable(nb.N())
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			countRows(nb, t, g, workers)
		}(g)
	}
	wg.Wait()
	return t
}

// countRows fills rows first, first+stride, ... of t.
func countRows(nb *Neighbors, t *DenseTable, first, stride int) {
	n := t.n
	for i := first; i < n; i += stride {
		// row[j] is link(i, j) for i < j < n: row i's segment of vals,
		// re-based so it is addressed by j directly. Entries j <= i
		// belong to earlier rows and are never touched.
		base := t.rowBase(i)
		row := t.vals[base-i : base+n-i]
		for _, x := range nb.Lists[i] {
			l := nb.Lists[x]
			// First position in N(x) holding a point > i.
			lo, hi := 0, len(l)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if int(l[mid]) <= i {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			for _, j := range l[lo:] {
				row[j]++
			}
		}
	}
}

func computeParallelSparse(nb *Neighbors, workers int) *SparseTable {
	// Per-worker partial tables avoid all synchronization during
	// counting; the merge sums map entries.
	parts := make([]*SparseTable, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := NewSparseTable(nb.N())
			for i := g; i < len(nb.Lists); i += workers {
				l := nb.Lists[i]
				for a := 0; a < len(l)-1; a++ {
					for b := a + 1; b < len(l); b++ {
						p.Add(int(l[a]), int(l[b]), 1)
					}
				}
			}
			parts[g] = p
		}(g)
	}
	wg.Wait()

	// Merge rows in parallel too: row i of the result is the sum of row i
	// across the partial tables, and rows are independent.
	out := NewSparseTable(nb.N())
	wg = sync.WaitGroup{}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < nb.N(); i += workers {
				var row map[int32]uint32
				for _, p := range parts {
					pr := p.rows[i]
					if len(pr) == 0 {
						continue
					}
					if row == nil {
						row = make(map[int32]uint32, len(pr))
					}
					for j, v := range pr {
						row[j] += v
					}
				}
				out.rows[i] = row
			}
		}(g)
	}
	wg.Wait()
	return out
}
