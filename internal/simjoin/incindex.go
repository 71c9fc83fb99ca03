package simjoin

import (
	"cmp"
	"slices"

	"rock/internal/dataset"
	"rock/internal/links"
)

// IncIndex is the incremental form of the inverted-index threshold join:
// transactions arrive one at a time, and every Insert returns the new
// record's exact theta-neighbors among all previously inserted records. The
// neighbor lists it maintains are bit-identical to running the batch Join
// over the same prefix of the stream — the property the streaming clusterer
// (internal/stream) depends on and the equivalence test pins down.
//
// Exactness under insertion rests on one observation: the prefix filter is
// correct under ANY fixed total order of items, not just the DF order the
// batch index uses — a qualifying pair must share an item within both
// records' filter prefixes regardless of how items are ranked, as long as
// both records are ranked under the same order. So the incremental index
// freezes an item's rank at first sight (appending new items to the end of
// the order) and keeps every posting valid across inserts. The DF order only
// buys speed: rare-first prefixes keep posting lists short where they are
// probed most. To recover that property as frequencies accumulate, the index
// re-ranks all items by document frequency and rebuilds its postings each
// time the corpus doubles, which amortizes to O(1) rebuild work per insert.
//
// Below MinIndexTheta (or at theta <= 0, where the filters prune nothing)
// the index degrades to an exact brute-force scan per insert, mirroring the
// batch Source policy.
type IncIndex struct {
	m       Measure
	theta   float64
	indexed bool

	txns  []dataset.Transaction
	lists [][]int32 // mirrored neighbor lists, maintained per insert

	// Indexed-path state. rank freezes each item's position in the current
	// total order; df counts documents per item for the next re-rank.
	rank     map[dataset.Item]int32
	df       map[dataset.Item]int32
	recs     [][]int32 // per record: item ranks, sorted ascending
	postings [][]posting
	beta     []int32 // minOverlapAny memo by record length; 0 = unset
	maxLen   int

	rebuildAt int

	// Probe scratch, stamped per insert.
	seen []int32
}

// NewIncIndex creates an empty incremental index for the given measure and
// threshold. Theta must lie in [0, 1].
func NewIncIndex(m Measure, theta float64) *IncIndex {
	return &IncIndex{
		m:         m,
		theta:     theta,
		indexed:   theta >= MinIndexTheta,
		rank:      map[dataset.Item]int32{},
		df:        map[dataset.Item]int32{},
		rebuildAt: 64,
	}
}

// Len returns the number of inserted transactions.
func (ix *IncIndex) Len() int { return len(ix.txns) }

// Txn returns the i-th inserted transaction (shared, not a copy).
func (ix *IncIndex) Txn(i int) dataset.Transaction { return ix.txns[i] }

// Neighbors returns a view of the maintained neighbor lists. The returned
// structure shares the index's backing arrays and remains valid (and
// current) across subsequent Inserts; callers that need a stable snapshot
// must copy.
func (ix *IncIndex) Neighbors() *links.Neighbors {
	return &links.Neighbors{Lists: ix.lists}
}

// Insert adds t to the index and returns its id and the sorted list of its
// theta-neighbors among the records inserted before it (nil when it has
// none). The transaction is normalized in a copy if needed; the stored form
// is retained by the index.
func (ix *IncIndex) Insert(t dataset.Transaction) (id int32, neighbors []int32) {
	if !t.IsNormalized() {
		c := append(dataset.Transaction(nil), t...)
		c.Normalize()
		t = c
	}
	id = int32(len(ix.txns))
	if ix.indexed {
		neighbors = ix.insertIndexed(id, t)
	} else {
		neighbors = ix.insertBrute(id, t)
	}
	ix.txns = append(ix.txns, t)

	// Mirror: the new id is larger than every existing one, so appending it
	// keeps each earlier list sorted — exactly what links.Mirror produces.
	ix.lists = append(ix.lists, neighbors)
	for _, j := range neighbors {
		ix.lists[j] = append(ix.lists[j], id)
	}

	if ix.indexed && len(ix.txns) >= ix.rebuildAt {
		ix.rebuild()
		ix.rebuildAt = 2 * len(ix.txns)
	}
	return id, neighbors
}

// insertBrute verifies t against every stored record with the full merge
// intersection — the exact fallback for thresholds the filters cannot serve.
func (ix *IncIndex) insertBrute(id int32, t dataset.Transaction) []int32 {
	var row []int32
	rt := asRanks(t)
	for j, tj := range ix.txns {
		inter, _ := intersectAtLeast(rt, asRanks(tj), 0)
		if ix.m.Eval(inter, len(t), len(tj)) >= ix.theta {
			row = append(row, int32(j))
		}
	}
	return row
}

// asRanks reinterprets a normalized transaction as a sorted int32 slice for
// the shared merge-intersection helper.
func asRanks(t dataset.Transaction) []int32 {
	if len(t) == 0 {
		return nil
	}
	r := make([]int32, len(t))
	for i, it := range t {
		r[i] = int32(it)
	}
	return r
}

// insertIndexed ranks t under the current order (assigning fresh ranks to
// unseen items), probes the posting lists with the same filter chain the
// batch probe applies, and then indexes t's own filter prefix.
func (ix *IncIndex) insertIndexed(id int32, t dataset.Transaction) []int32 {
	for _, it := range t {
		ix.df[it]++
		if _, ok := ix.rank[it]; !ok {
			ix.rank[it] = int32(len(ix.rank))
			ix.postings = append(ix.postings, nil)
		}
	}
	rec := make([]int32, len(t))
	for i, it := range t {
		rec[i] = ix.rank[it]
	}
	slices.Sort(rec)
	if len(t) > ix.maxLen {
		ix.maxLen = len(t)
		ix.beta = append(ix.beta, make([]int32, ix.maxLen+1-len(ix.beta))...)
	}

	row := ix.probe(id, rec)

	ix.recs = append(ix.recs, rec)
	for p, r := range rec[:ix.prefixLen(len(rec))] {
		ix.postings[r] = append(ix.postings[r], posting{id: id, pos: int32(p)})
	}
	return row
}

// prefixLen returns the filter-prefix length for a record of length l,
// memoizing minOverlapAny per length (it depends only on measure and theta).
func (ix *IncIndex) prefixLen(l int) int {
	if l == 0 {
		return 0
	}
	if ix.beta[l] == 0 {
		ix.beta[l] = int32(ix.m.minOverlapAny(l, ix.theta))
	}
	return l - int(ix.beta[l]) + 1
}

// probe generates and verifies candidates for the ranked record rec. It is
// probeStripe's filter chain with the roles reversed: the new record probes
// the prefixes of every earlier record. All filters are symmetric in the
// pair, so the result is identical to the batch direction.
func (ix *IncIndex) probe(self int32, rec []int32) []int32 {
	li := len(rec)
	if li == 0 || len(ix.recs) == 0 {
		return nil
	}
	for len(ix.seen) < len(ix.recs) {
		ix.seen = append(ix.seen, -1)
	}
	var (
		row        []int32
		alphaByLen = make(map[int]int, 4)
	)
	for pi, r := range rec[:ix.prefixLen(li)] {
		for _, pe := range ix.postings[r] {
			j := pe.id
			if ix.seen[j] == self {
				continue
			}
			ix.seen[j] = self
			tj := ix.recs[j]
			lj := len(tj)
			alpha, ok := alphaByLen[lj]
			if !ok {
				alpha = ix.m.minOverlapPair(li, lj, ix.theta)
				alphaByLen[lj] = alpha
			}
			mn := li
			if lj < mn {
				mn = lj
			}
			if alpha > mn {
				continue // length filter
			}
			// First hit = the pair's smallest shared item (smaller shared
			// items would sit earlier in both prefixes): every other shared
			// item lies after both positions, so the shorter suffix bounds
			// the remaining intersection.
			pj := int(pe.pos)
			rem := li - pi - 1
			if r := lj - pj - 1; r < rem {
				rem = r
			}
			if 1+rem < alpha {
				continue // positional filter
			}
			if inter, full := intersectAtLeast(rec[pi+1:], tj[pj+1:], alpha-1); full && ix.m.Eval(inter+1, li, lj) >= ix.theta {
				row = append(row, j)
			}
		}
	}
	slices.Sort(row)
	return row
}

// Retain keeps only the records at the ascending indices keep and renumbers
// them 0…len(keep)-1, as if a fresh index had been fed them in that order:
// every neighbor list is restricted to the kept records and remapped the
// way links.Neighbors.Subset does, and later Inserts return what that fresh
// index would return. Document frequencies are recounted from the
// survivors and the rank order starts afresh, so items seen only in
// dropped records leave the index.
//
// Retain reuses the lists' storage: rows returned by earlier Inserts and
// views from earlier Neighbors calls are invalid afterwards.
func (ix *IncIndex) Retain(keep []int) {
	remap := make([]int32, len(ix.txns))
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range keep {
		remap[old] = int32(newID)
	}
	// Every kept index is at least its new id, so compacting in ascending
	// order never overwrites a record still to be read.
	for newID, old := range keep {
		row := ix.lists[old][:0]
		for _, j := range ix.lists[old] {
			if nj := remap[j]; nj >= 0 {
				row = append(row, nj)
			}
		}
		if len(row) == 0 {
			row = nil
		}
		ix.lists[newID] = row
		ix.txns[newID] = ix.txns[old]
		if ix.indexed {
			ix.recs[newID] = ix.recs[old]
		}
	}
	m := len(keep)
	clear(ix.lists[m:])
	clear(ix.txns[m:])
	ix.lists, ix.txns = ix.lists[:m], ix.txns[:m]
	// Probe stamps are ids, which restart at 0.
	ix.seen = ix.seen[:0]
	if !ix.indexed {
		return
	}
	clear(ix.recs[m:])
	ix.recs = ix.recs[:m]
	ix.df = make(map[dataset.Item]int32, len(ix.df))
	for _, t := range ix.txns {
		for _, it := range t {
			ix.df[it]++
		}
	}
	ix.rank = make(map[dataset.Item]int32, len(ix.df))
	ix.rebuild()
	ix.rebuildAt = max(64, 2*m)
}

// rebuild re-ranks every item by (document frequency, item id) ascending and
// reindexes the corpus — the batch rankRecords and fillPostings applied to
// the accumulated stream. Ranks frozen since the last rebuild stay mutually
// consistent in between, so this is purely a performance refresh, never a
// correctness one.
func (ix *IncIndex) rebuild() {
	type key struct {
		df int32
		it dataset.Item
	}
	keys := make([]key, 0, len(ix.df))
	for it, df := range ix.df {
		keys = append(keys, key{df, it})
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.df, b.df); c != 0 {
			return c
		}
		return cmp.Compare(a.it, b.it)
	})
	for r, k := range keys {
		ix.rank[k.it] = int32(r)
	}
	for i, t := range ix.txns {
		rec := ix.recs[i][:0]
		for _, it := range t {
			rec = append(rec, ix.rank[it])
		}
		slices.Sort(rec)
		ix.recs[i] = rec
	}
	counts := make([]int32, len(keys))
	for _, rec := range ix.recs {
		for _, r := range rec[:ix.prefixLen(len(rec))] {
			counts[r]++
		}
	}
	ix.postings = make([][]posting, len(keys))
	for r, c := range counts {
		if c > 0 {
			ix.postings[r] = make([]posting, 0, c)
		}
	}
	for i, rec := range ix.recs {
		for p, r := range rec[:ix.prefixLen(len(rec))] {
			ix.postings[r] = append(ix.postings[r], posting{id: int32(i), pos: int32(p)})
		}
	}
}
