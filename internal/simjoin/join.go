package simjoin

import (
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"rock/internal/dataset"
	"rock/internal/links"
	"rock/internal/sim"
)

// posting is one prefix-index entry: record id and the position of the
// indexed item within the record's frequency-remapped item array.
type posting struct {
	id  int32
	pos int32
}

// Join computes the theta-neighbor lists of the corpus under measure m. The
// result is bit-identical to
//
//	links.ComputeNeighbors(len(txns), sim.ByIndex(txns, f), cfg)
//
// for the corresponding similarity f. Transactions must be normalized
// (sorted, duplicate-free) — Source checks this and falls back to brute
// force otherwise. theta <= 0 defeats every filter (any pair, even two empty
// transactions, qualifies), so that case is delegated to the brute-force
// path as well.
//
// Two exact engines share the document-frequency ranking, and Join picks
// one per call from the prefix-posting counts the ranking yields (see
// preferSweep): the prefix index (JoinIndex), which is sub-quadratic when
// prefixes are selective, and the item-bitmap sweep (JoinSweep), which
// wins on dense corpora where the prefixes prune nothing.
func Join(txns []dataset.Transaction, m Measure, theta float64, workers int) *links.Neighbors {
	return join(txns, m, theta, workers, preferSweep)
}

// JoinIndex is Join forced onto the prefix-index engine.
func JoinIndex(txns []dataset.Transaction, m Measure, theta float64, workers int) *links.Neighbors {
	return join(txns, m, theta, workers, func([]int32, int, int) bool { return false })
}

// JoinSweep is Join forced onto the item-bitmap sweep.
func JoinSweep(txns []dataset.Transaction, m Measure, theta float64, workers int) *links.Neighbors {
	return join(txns, m, theta, workers, func([]int32, int, int) bool { return true })
}

// join runs the engine sweep selects, given the ranked corpus's per-item
// prefix-posting counts, its size and its bitmap width in words.
func join(txns []dataset.Transaction, m Measure, theta float64, workers int, sweep func(counts []int32, n, words int) bool) *links.Neighbors {
	if theta <= 0 {
		return bruteForce(txns, m, theta, workers)
	}
	n := len(txns)
	lists := make([][]int32, n)
	if n > 1 {
		ix, counts := rankRecords(txns, m, theta)
		var stripe func(g, w int)
		if words := (len(counts) + 63) / 64; sweep(counts, n, words) {
			bm := ix.bitmaps((words + 1) / 2)
			stripe = func(g, w int) { sweepStripe(ix, bm, m, theta, g, w, lists) }
		} else {
			ix.fillPostings(counts)
			stripe = func(g, w int) { probeStripe(ix, m, theta, g, w, lists) }
		}
		w := workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > n {
			w = n
		}
		if w <= 1 {
			stripe(0, 1)
		} else {
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					stripe(g, w)
				}(g)
			}
			wg.Wait()
		}
	}
	links.Mirror(lists)
	return &links.Neighbors{Lists: lists}
}

// hitPerWord is the cost of one prefix-index candidate hit (posting read,
// dedup stamp, length and positional filters, early-exit merge) in units of
// one sweep word (AND + popcount + count update). Measured single-worker on
// a 2-vCPU Xeon over the benchjoin basket rows and the Table 3 records:
// ≈22–44 ns per hit against ≈2–5 ns per word. At 8, the rows where the rule
// picks the index (8H/(pairs·W) of 0.48–0.63) are the ones where the two
// engines' medians lie within 16% of each other with the index ahead or
// level, and every row from 1.4 up runs 1.36–8.8× faster on the sweep
// (EXPERIMENTS.md).
const hitPerWord = 8

// preferSweep reports whether the item-bitmap sweep is expected to beat the
// prefix index. Item r's c_r prefix postings generate c_r(c_r−1)/2
// candidate hits, so the index does H = Σ c_r(c_r−1)/2 hits where the sweep
// does n(n−1)/2 · words word operations.
func preferSweep(counts []int32, n, words int) bool {
	var hits float64
	for _, c := range counts {
		hits += float64(c) * float64(c-1) / 2
	}
	pairs := float64(n) * float64(n-1) / 2
	return hitPerWord*hits >= pairs*float64(words)
}

// bruteForce is the exact fallback used when theta prunes nothing.
func bruteForce(txns []dataset.Transaction, m Measure, theta float64, workers int) *links.Neighbors {
	f, _ := sim.TxnByName(m.String())
	return links.ComputeNeighbors(len(txns), sim.ByIndex(txns, f), links.Config{Theta: theta, Workers: workers})
}

// String returns the sim-package registry name of the measure.
func (m Measure) String() string {
	switch m {
	case Jaccard:
		return "jaccard"
	case Dice:
		return "dice"
	case Cosine:
		return "cosine"
	default:
		return "overlap"
	}
}

// index is the immutable shared state the stripe workers read. postings is
// filled only when the prefix-index engine runs.
type index struct {
	recs     [][]int32 // per record: item ranks, sorted ascending (rarest first)
	beta     []int32   // per record length: minOverlapAny
	postings [][]posting
}

// rankRecords remaps items by ascending document frequency and returns the
// ranked records together with each rank's prefix-posting count.
//
// The remap does double duty: prefixes hold each record's *rarest* items, so
// posting lists stay short exactly where they are probed most, and items
// common across natural clusters (high document frequency) sort to the ends
// of records where the prefix filter never touches them.
func rankRecords(txns []dataset.Transaction, m Measure, theta float64) (*index, []int32) {
	n := len(txns)

	// Document frequency per item. Transactions are duplicate-free, so each
	// record contributes at most 1 per item.
	df := make(map[dataset.Item]int32)
	maxLen := 0
	for _, t := range txns {
		if len(t) > maxLen {
			maxLen = len(t)
		}
		for _, it := range t {
			df[it]++
		}
	}

	// Rank items by (frequency, item id) ascending; ties broken by id keep
	// the remap deterministic.
	uniq := make([]dataset.Item, 0, len(df))
	for it := range df {
		uniq = append(uniq, it)
	}
	sort.Slice(uniq, func(a, b int) bool {
		if df[uniq[a]] != df[uniq[b]] {
			return df[uniq[a]] < df[uniq[b]]
		}
		return uniq[a] < uniq[b]
	})
	rank := make(map[dataset.Item]int32, len(uniq))
	for r, it := range uniq {
		rank[it] = int32(r)
	}

	ix := &index{recs: make([][]int32, n), beta: make([]int32, maxLen+1)}
	flat := make([]int32, 0, totalItems(txns))
	for i, t := range txns {
		start := len(flat)
		for _, it := range t {
			flat = append(flat, rank[it])
		}
		rec := flat[start:len(flat):len(flat)]
		slices.Sort(rec)
		ix.recs[i] = rec
	}
	for l := 1; l <= maxLen; l++ {
		ix.beta[l] = int32(m.minOverlapAny(l, theta))
	}

	counts := make([]int32, len(uniq))
	for i, rec := range ix.recs {
		for _, r := range rec[:prefixLen(ix, i)] {
			counts[r]++
		}
	}
	return ix, counts
}

// fillPostings indexes every record on its filter prefix. Lists are
// allocated at their exact counts and filled in record-id order, so every
// list is sorted by id (the probe binary-searches on it).
func (ix *index) fillPostings(counts []int32) {
	ix.postings = make([][]posting, len(counts))
	for r, c := range counts {
		if c > 0 {
			ix.postings[r] = make([]posting, 0, c)
		}
	}
	for i, rec := range ix.recs {
		for p, r := range rec[:prefixLen(ix, i)] {
			ix.postings[r] = append(ix.postings[r], posting{id: int32(i), pos: int32(p)})
		}
	}
}

// bitmaps returns the records as bitmaps over item ranks in blocks of 128
// items, stored block by block: bit r of record i is bit r&63 of word
// (r>>6)&1 of block (r>>7)*n + i. This layout lets the sweep stream one
// block of every j > i past record i's block held in registers; a per-pair
// loop over the W words of row-major bitmaps spilled its state and ran
// ~1.6× slower on the Table 3 records.
func (ix *index) bitmaps(blocks int) [][2]uint64 {
	n := len(ix.recs)
	bm := make([][2]uint64, blocks*n)
	for i, rec := range ix.recs {
		for _, r := range rec {
			bm[int(r>>7)*n+i][(r>>6)&1] |= 1 << (uint(r) & 63)
		}
	}
	return bm
}

// prefixLen returns the filter-prefix length of record i: a pair reaching
// theta must share an item within both records' prefixes, so only these
// positions are indexed and probed. Empty records have no prefix.
func prefixLen(ix *index, i int) int {
	l := len(ix.recs[i])
	if l == 0 {
		return 0
	}
	return l - int(ix.beta[l]) + 1
}

func totalItems(txns []dataset.Transaction) int {
	s := 0
	for _, t := range txns {
		s += len(t)
	}
	return s
}

// sweepStripe fills lists[i] with the neighbors j > i for every record i
// in the worker's stripe by testing every such pair: the popcount of the
// two bitmaps' AND is the exact intersection size, and the pair qualifies
// iff it reaches minOverlapPair — the smallest size passing the float
// predicate, so the decision matches the brute-force path bit for bit.
// Rows are disjoint across workers; links.Mirror completes the lists.
func sweepStripe(ix *index, bm [][2]uint64, m Measure, theta float64, g, w int, lists [][]int32) {
	n := len(ix.recs)
	lens := make([]int32, n)
	var present []int32 // the distinct record lengths, for the per-row memo
	seenLen := make([]bool, len(ix.beta))
	for j, rec := range ix.recs {
		lens[j] = int32(len(rec))
		if !seenLen[len(rec)] {
			seenLen[len(rec)] = true
			present = append(present, int32(len(rec)))
		}
	}
	// alphaByLen holds row i's minOverlapPair by partner length. A length
	// the length filter rules out gets min(li, l)+1, which no intersection
	// reaches.
	alphaByLen := make([]int32, len(ix.beta))
	inter := make([]int32, n)
	var row []int32
	for i := g; i < n; i += w {
		li := int(lens[i])
		if li == 0 {
			continue
		}
		for _, l := range present {
			alphaByLen[l] = int32(m.minOverlapPair(li, int(l), theta))
		}
		// Count |i ∩ j| for every j > i one bitmap block at a time; blocks
		// where record i has no item contribute nothing and are skipped.
		// The last block's pass also applies the threshold.
		last := len(bm) - n
		for bm[last+i] == ([2]uint64{}) {
			last -= n
		}
		cnt := inter[i+1:]
		clear(cnt)
		for off := 0; off < last; off += n {
			if a := bm[off+i]; a != ([2]uint64{}) {
				countBlock(cnt, a, bm[off+i+1:off+n])
			}
		}
		row = collectRow(row[:0], i, cnt, bm[last+i], bm[last+i+1:last+n], lens[i+1:], alphaByLen)
		if len(row) > 0 {
			lists[i] = slices.Clone(row)
		}
	}
}

// collectRow appends i+1+k to row for every k where cnt[k] plus
// |a ∩ blk[k]| reaches record i+1+k's threshold.
func collectRow(row []int32, i int, cnt []int32, a [2]uint64, blk [][2]uint64, lens, alphaByLen []int32) []int32 {
	blk = blk[:len(cnt)]
	lens = lens[:len(cnt)]
	for k, b := range blk {
		if cnt[k]+int32(bits.OnesCount64(a[0]&b[0])+bits.OnesCount64(a[1]&b[1])) >= alphaByLen[lens[k]] {
			row = append(row, int32(i+1+k))
		}
	}
	return row
}

// countBlock adds |a ∩ blk[k]| to cnt[k] for every k.
func countBlock(cnt []int32, a [2]uint64, blk [][2]uint64) {
	blk = blk[:len(cnt)]
	for k, b := range blk {
		cnt[k] += int32(bits.OnesCount64(a[0]&b[0]) + bits.OnesCount64(a[1]&b[1]))
	}
}

// probeStripe fills lists[i] with the verified neighbors j > i for every
// record i in the worker's stripe. Rows are disjoint across workers, so no
// synchronization is needed; links.Mirror completes the lists afterwards.
func probeStripe(ix *index, m Measure, theta float64, g, w int, lists [][]int32) {
	n := len(ix.recs)
	// seen deduplicates candidates within one probe: a pair sharing k prefix
	// items would otherwise be generated k times. alphaByLen memoizes the
	// per-length minimum-overlap bound across one probe (stamped, so neither
	// array is cleared between records).
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	alphaByLen := make([]int32, len(ix.beta))
	alphaStamp := make([]int32, len(ix.beta))
	for i := range alphaStamp {
		alphaStamp[i] = -1
	}
	// Verified neighbors are collected in a bitmap and extracted in id
	// order afterwards — cheaper than sorting each row, and the extraction
	// scan doubles as the reset.
	found := make([]uint64, (n+63)/64)

	for i := g; i < n; i += w {
		ti := ix.recs[i]
		li := len(ti)
		if li == 0 {
			continue
		}
		cnt := 0
		self := int32(i)
		for pi, r := range ti[:prefixLen(ix, i)] {
			pl := ix.postings[r]
			// Pairs are generated once, by the smaller id; entries are
			// sorted by id, so binary-search straight past j <= i.
			lo, hi := 0, len(pl)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if pl[mid].id <= self {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			for _, pe := range pl[lo:] {
				j := pe.id
				if seen[j] == self {
					continue
				}
				seen[j] = self
				tj := ix.recs[j]
				lj := len(tj)
				var alpha int
				if alphaStamp[lj] == self {
					alpha = int(alphaByLen[lj])
				} else {
					alpha = m.minOverlapPair(li, lj, theta)
					alphaByLen[lj] = int32(alpha)
					alphaStamp[lj] = self
				}
				mn := li
				if lj < mn {
					mn = lj
				}
				if alpha > mn {
					continue // length filter: no intersection size suffices
				}
				// This hit is the pair's smallest shared item — a smaller
				// one would sit earlier in both prefixes and have been hit
				// first. So every other shared item lies after both
				// positions: bound the intersection by the shorter suffix
				// (positional filter), and on survival count only the
				// suffixes, with the hit contributing 1.
				pj := int(pe.pos)
				rem := li - pi - 1
				if r := lj - pj - 1; r < rem {
					rem = r
				}
				if 1+rem < alpha {
					continue
				}
				if inter, full := intersectAtLeast(ti[pi+1:], tj[pj+1:], alpha-1); full && m.Eval(inter+1, li, lj) >= theta {
					found[j>>6] |= 1 << (uint(j) & 63)
					cnt++
				}
			}
		}
		if cnt == 0 {
			continue
		}
		row := make([]int32, 0, cnt)
		for w := i >> 6; len(row) < cnt; w++ {
			x := found[w]
			if x == 0 {
				continue
			}
			found[w] = 0
			base := int32(w << 6)
			for ; x != 0; x &= x - 1 {
				row = append(row, base+int32(bits.TrailingZeros64(x)))
			}
		}
		lists[i] = row
	}
}

// intersectAtLeast merge-intersects two sorted rank arrays, abandoning as
// soon as the intersection provably cannot reach alpha. It returns the exact
// intersection size and full=true when the merge ran to completion; on early
// exit full is false and the pair is known to fail the threshold. alpha may
// be <= 0, in which case the merge always completes.
// The caller guarantees the bound holds on entry (the positional filter);
// matches never shrink it, so it is re-checked only when a mismatch consumes
// an element from one side.
func intersectAtLeast(a, b []int32, alpha int) (inter int, full bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
			if inter+len(a)-i < alpha {
				return 0, false
			}
		case a[i] > b[j]:
			j++
			if inter+len(b)-j < alpha {
				return 0, false
			}
		default:
			inter++
			i++
			j++
		}
	}
	return inter, true
}
