package links

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestComputeListsSpaceLinear: ComputeLists allocates O(n + link pairs)
// bytes even when n exceeds a worker's block and every point's partners
// are scattered over the whole id range, so a row's partners span almost
// (i, n) while holding only a few entries. Reserving a row's span instead
// of its entries allocates Θ(n²) here.
func TestComputeListsSpaceLinear(t *testing.T) {
	defer func(c int) { fwdChunk = c }(fwdChunk)
	fwdChunk = 64
	const n = 6000
	rng := rand.New(rand.NewSource(7))
	lists := make([][]int32, n)
	for i := range lists {
		for k := 0; k < 2; k++ {
			if j := rng.Intn(n); j != i && !slices.Contains(lists[i], int32(j)) {
				lists[i] = append(lists[i], int32(j))
				lists[j] = append(lists[j], int32(i))
			}
		}
	}
	for _, l := range lists {
		slices.Sort(l)
	}
	nb := &Neighbors{Lists: lists}

	for _, workers := range []int{1, 2, 7} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got := ComputeLists(nb, workers)
		runtime.ReadMemStats(&after)
		entries := 0
		for _, l := range got {
			entries += len(l)
		}
		// Per point: the forward-half and list headers, the arena offsets
		// and one counter per worker. Per worker: one partly filled block.
		// Per entry: the arena, the forward halves with the tails their
		// blocks were cut at, and the scratch rows' growth.
		bound := uint64(80*n + workers*(4*n+8*fwdChunk) + 32*entries + 1<<16)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
			t.Errorf("workers=%d: %d bytes allocated for n=%d and %d entries, bound %d", workers, alloc, n, entries, bound)
		}
	}
}
