package links

import (
	"runtime"
	"slices"
	"sync"
)

// Link is one entry of a point's link list: a partner point and the number
// of links to it.
type Link struct{ ID, N int32 }

// fwdChunk is the size, in entries, of the blocks a ComputeLists worker
// copies its rows' forward halves into. It is a variable so that tests can
// run graphs whose point count exceeds it.
var fwdChunk = 1 << 16

// ComputeLists returns, for every point i, the partners j with
// link(i, j) > 0 and their counts, sorted by j: the non-zero entries of
// the link table's row i, without the table. This is the form the Figure 3
// merge loop consumes, so the product never holds the n(n+1)/2 triangle
// Section 4.5 names as the worst-case space: it holds one n-entry counter
// per worker and O(n + link pairs) entries.
//
// Worker g owns the rows i ≡ g (mod workers) and counts each one into its
// own counter with countRow, the kernel the dense table uses. It then
// scans the counter over (i, n), moving each non-zero j, in order, into a
// scratch row and zeroing it for the worker's next row, and copies the
// scratch row into a shared block. A sequential transpose then gives every
// pair i < j its second entry, in j's list; taking rows in ascending i
// order writes each list's older half already sorted, ahead of its forward
// half. workers <= 0 means GOMAXPROCS.
func ComputeLists(nb *Neighbors, workers int) [][]Link {
	n := nb.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	fwd := make([][]Link, n) // row i's partners j > i
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cnt := make([]uint32, n)
			var scratch, block []Link
			for i := g; i < n; i += workers {
				countRow(nb, i, cnt)
				scratch = scratch[:0]
				for j := i + 1; j < n; j++ {
					if c := cnt[j]; c != 0 {
						scratch = append(scratch, Link{int32(j), int32(c)})
						cnt[j] = 0
					}
				}
				if len(scratch) == 0 {
					continue
				}
				if cap(block)-len(block) < len(scratch) {
					block = make([]Link, 0, max(fwdChunk, len(scratch)))
				}
				start := len(block)
				block = append(block, scratch...)
				fwd[i] = block[start:len(block):len(block)]
			}
		}(g)
	}
	wg.Wait()

	// Size every list exactly, in one arena, then fill: when row i is
	// reached, every older partner of i has already been placed, so i's
	// forward half goes after them, and i takes its place in each forward
	// partner's list.
	off := make([]int, n+1) // list i is arena[off[i]:off[i+1]]
	for i, row := range fwd {
		off[i+1] += len(row)
		for _, e := range row {
			off[e.ID+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	arena := make([]Link, off[n])
	next := slices.Clone(off[:n]) // each list's write position
	for i, row := range fwd {
		next[i] += copy(arena[next[i]:], row)
		for _, e := range row {
			arena[next[e.ID]] = Link{int32(i), e.N}
			next[e.ID]++
		}
	}
	lists := make([][]Link, n)
	for i := range lists {
		lists[i] = arena[off[i]:off[i+1]:off[i+1]]
	}
	return lists
}
