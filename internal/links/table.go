package links

import "fmt"

// Table is a symmetric table of link counts between points. Both
// implementations (dense triangular array, sparse hash rows) are produced by
// Compute and behave identically; tests cross-check them.
type Table interface {
	// N returns the number of points.
	N() int
	// Get returns link(i, j), the number of common neighbors of i and j.
	Get(i, j int) int
	// ForEach calls fn for every j with link(i, j) > 0, in ascending j
	// order for the dense table and unspecified order for the sparse one.
	ForEach(i int, fn func(j, links int))
	// ForEachPair calls fn once for every unordered pair i < j with
	// link(i, j) > 0: in row-major order (i, then j ascending) for the
	// dense table, unspecified order for the sparse one.
	ForEachPair(fn func(i, j, links int))
	// NonZeroPairs returns the number of unordered pairs with a positive
	// link count: the table's size, equal to rockcore.Stats.LinkPairs on
	// the same graph.
	NonZeroPairs() int
}

// DenseTable stores links in an upper-triangular uint32 array; it is the
// right choice when n is small enough that n(n+1)/2 counters fit comfortably
// in memory (Section 4.5 notes the n(n+1)/2 worst-case space).
type DenseTable struct {
	n    int
	vals []uint32
}

// NewDenseTable returns an n-point dense table with all counts zero.
func NewDenseTable(n int) *DenseTable {
	return &DenseTable{n: n, vals: make([]uint32, n*(n+1)/2)}
}

func (t *DenseTable) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if j >= t.n || i < 0 {
		panic(fmt.Sprintf("links: index (%d,%d) out of range n=%d", i, j, t.n))
	}
	return t.rowBase(i) + (j - i)
}

// rowBase is the offset of link(i, i) in vals; row i's entries for
// j = i..n-1 follow it contiguously.
func (t *DenseTable) rowBase(i int) int { return i*t.n - i*(i-1)/2 }

// N returns the number of points.
func (t *DenseTable) N() int { return t.n }

// Get returns link(i, j).
func (t *DenseTable) Get(i, j int) int { return int(t.vals[t.idx(i, j)]) }

// Add increments link(i, j) by d.
func (t *DenseTable) Add(i, j, d int) { t.vals[t.idx(i, j)] += uint32(d) }

// ForEach visits the non-zero links of point i in ascending j order: first
// column i of the rows above it (link(j, i) sits at rowBase(j) + i - j, a
// stride that shrinks by one per row), then row i's own contiguous segment.
func (t *DenseTable) ForEach(i int, fn func(j, links int)) {
	n := t.n
	if i < 0 || i >= n {
		panic(fmt.Sprintf("links: point %d out of range n=%d", i, n))
	}
	k := i
	for j := 0; j < i; j++ {
		if v := t.vals[k]; v > 0 {
			fn(j, int(v))
		}
		k += n - 1 - j
	}
	base := t.rowBase(i)
	for d, v := range t.vals[base+1 : base+n-i] {
		if v > 0 {
			fn(i+1+d, int(v))
		}
	}
}

// ForEachPair visits every unordered pair with positive links in one
// sequential walk of the triangle, row by row.
func (t *DenseTable) ForEachPair(fn func(i, j, links int)) {
	for i := 0; i < t.n; i++ {
		base := t.rowBase(i)
		for d, v := range t.vals[base+1 : base+t.n-i] {
			if v > 0 {
				fn(i, i+1+d, int(v))
			}
		}
	}
}

// NonZeroPairs counts unordered pairs with positive links.
func (t *DenseTable) NonZeroPairs() int {
	c := 0
	t.ForEachPair(func(_, _, _ int) { c++ })
	return c
}

// SparseTable stores one hash row per point holding only its non-zero link
// counterparts. Each unordered pair is stored twice (in both rows) so that
// ForEach needs no merging; Section 4.5's O(min{n·m_m·m_a, n²}) space bound
// applies.
type SparseTable struct {
	rows []map[int32]uint32
}

// NewSparseTable returns an n-point sparse table with all counts zero.
func NewSparseTable(n int) *SparseTable {
	return &SparseTable{rows: make([]map[int32]uint32, n)}
}

// N returns the number of points.
func (t *SparseTable) N() int { return len(t.rows) }

// Get returns link(i, j).
func (t *SparseTable) Get(i, j int) int {
	if t.rows[i] == nil {
		return 0
	}
	return int(t.rows[i][int32(j)])
}

// Add increments link(i, j) by d, maintaining symmetry.
func (t *SparseTable) Add(i, j, d int) {
	if t.rows[i] == nil {
		t.rows[i] = make(map[int32]uint32, 8)
	}
	if t.rows[j] == nil {
		t.rows[j] = make(map[int32]uint32, 8)
	}
	t.rows[i][int32(j)] += uint32(d)
	t.rows[j][int32(i)] += uint32(d)
}

// ForEach visits the non-zero links of point i (order unspecified).
func (t *SparseTable) ForEach(i int, fn func(j, links int)) {
	for j, v := range t.rows[i] {
		fn(int(j), int(v))
	}
}

// ForEachPair visits every unordered pair with positive links, each once
// from the row of its smaller endpoint (order unspecified).
func (t *SparseTable) ForEachPair(fn func(i, j, links int)) {
	for i, r := range t.rows {
		for j, v := range r {
			if int(j) > i {
				fn(i, int(j), int(v))
			}
		}
	}
}

// NonZeroPairs counts unordered pairs with positive links.
func (t *SparseTable) NonZeroPairs() int {
	c := 0
	for _, r := range t.rows {
		c += len(r)
	}
	return c / 2
}
