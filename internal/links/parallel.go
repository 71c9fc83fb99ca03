package links

import (
	"runtime"
	"sync"
)

// ComputeParallel is Compute with the Figure 4 pair counting sharded across
// workers. Both tables are filled from the row-owned kernel (countRow): the
// dense table with one row stripe per worker, the sparse table from
// ComputeLists. workers <= 1 falls back to the sequential Compute.
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
	t := NewSparseTable(nb.N())
	for i, l := range ComputeLists(nb, workers) {
		if len(l) == 0 {
			continue
		}
		row := make(map[int32]uint32, len(l))
		for _, e := range l {
			row[e.ID] = uint32(e.N)
		}
		t.rows[i] = row
	}
	return t
}

// countDense is the dense table's counting pass. Row i of the triangular
// table holds link(i, j) for j > i; worker g owns the rows i ≡ g (mod
// workers) and writes only inside them, so counting needs no
// synchronization, and each row's writes stay within one contiguous n-i
// counter slice. Interleaving the rows balances the shrinking row lengths
// across workers.
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
		// Row i's segment of vals, re-based so it is addressed by j
		// directly. Entries j <= i belong to earlier rows and are never
		// touched.
		base := t.rowBase(i)
		countRow(nb, i, t.vals[base-i:base+n-i])
	}
}

// countRow is the one Figure 4 counting loop, reorganized by output row:
// it adds link(i, j) to row[j] for every j > i. link(i, j) counts the
// points x with i, j ∈ N(x). Neighbor lists are symmetric (x ∈ N(i) ⇔
// i ∈ N(x)), so that is the number of x ∈ N(i) with j ∈ N(x); and since
// N(x) is sorted, its entries j > i form a suffix found by binary search.
// Over all rows every (x, i < j) triple of Figure 4 is visited exactly
// once, just grouped by i instead of by x.
func countRow(nb *Neighbors, i int, row []uint32) {
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
