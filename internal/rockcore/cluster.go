package rockcore

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rock/internal/iheap"
	"rock/internal/links"
	"rock/internal/sim"
)

// Config controls a run of the ROCK clustering algorithm.
type Config struct {
	// K is the desired number of clusters. Per Section 5.2 it is a hint:
	// the algorithm may stop with more clusters when no cross links remain,
	// and outlier weeding may remove clusters entirely.
	K int
	// Theta is the neighbor similarity threshold of Section 3.1.
	Theta float64
	// F maps theta to the f(theta) of Section 3.3. Nil selects DefaultF,
	// the paper's (1-theta)/(1+theta).
	F func(theta float64) float64
	// MinNeighbors prunes points with fewer neighbors before clustering —
	// the first outlier mechanism of Section 4.6. Zero keeps every point.
	MinNeighbors int
	// StopMultiple, when > 1, pauses the merge loop once the number of
	// remaining clusters reaches ceil(StopMultiple·K) and weeds out
	// clusters with fewer than MinClusterSize points — the second outlier
	// mechanism of Section 4.6 ("stop ... at a small multiple of the
	// expected number of clusters ... then weed out the clusters that have
	// very little support").
	StopMultiple float64
	// MinClusterSize is the support threshold for weeding. Zero disables
	// weeding even when StopMultiple is set.
	MinClusterSize int
	// DenseLimit selects the link-table representation (see links.Compute).
	// Zero means links.DefaultDenseLimit.
	DenseLimit int
	// Workers bounds parallelism in the O(n²) neighbor computation.
	Workers int
	// RawCrossLinkGoodness, when true, replaces the goodness measure with
	// the raw cross-link count — the "naive approach" Section 4.2 warns
	// lets large clusters swallow everything. Used only by the ablation
	// benchmarks.
	RawCrossLinkGoodness bool
	// TraceMerges records every merge step in Result.Trace: the goodness
	// at merge time, the sizes joined, and the cross-link count. The
	// trace supports dendrogram-style analysis and data-driven choice of
	// K (see BestK).
	TraceMerges bool
}

func (c Config) f() float64 {
	if c.F != nil {
		return c.F(c.Theta)
	}
	return DefaultF(c.Theta)
}

func (c Config) denseLimit() int {
	if c.DenseLimit == 0 {
		return links.DefaultDenseLimit
	}
	return c.DenseLimit
}

// Stats records diagnostics about a clustering run.
type Stats struct {
	// Points is the number of input points; Pruned of those were dropped
	// by the MinNeighbors rule, and Weeded by the small-cluster rule.
	Points, Pruned, Weeded int
	// Merges is the number of merge steps performed.
	Merges int
	// StoppedNoLinks reports that merging stopped because no pair of
	// remaining clusters had any cross links (Section 4.3's second stop
	// condition), leaving more than K clusters.
	StoppedNoLinks bool
	// MaxDegree and AvgDegree describe the neighbor graph (m_m and m_a in
	// the paper's complexity analysis).
	MaxDegree int
	AvgDegree float64
	// LinkPairs is the number of unordered point pairs with positive link
	// counts — the link table's size.
	LinkPairs int
}

// MergeStep describes one agglomeration step for trace consumers.
type MergeStep struct {
	// Goodness is g(u, v) at merge time.
	Goodness float64
	// SizeA and SizeB are the sizes of the merged clusters.
	SizeA, SizeB int
	// InternalA and InternalB are the merged clusters' internal link sums,
	// so criterion trajectories can be reconstructed exactly.
	InternalA, InternalB int
	// CrossLinks is link[u, v].
	CrossLinks int
	// Remaining is the number of live clusters after this merge.
	Remaining int
}

// ClusterStat describes one final cluster.
type ClusterStat struct {
	Size int
	// InternalLinks is Σ link(p, q) over the cluster's unordered point
	// pairs.
	InternalLinks int
	// CriterionTerm is the cluster's contribution to E_l.
	CriterionTerm float64
}

// Result is the outcome of a clustering run.
type Result struct {
	// Clusters holds the member point indices of each cluster, each sorted
	// ascending; clusters are ordered by decreasing size, ties by first
	// member.
	Clusters [][]int
	// ClusterStats aligns with Clusters.
	ClusterStats []ClusterStat
	// Outliers are points removed by either outlier mechanism.
	Outliers []int
	// Criterion is the value of E_l (Section 3.3) for the final clustering.
	Criterion float64
	// F is the f(theta) value used.
	F float64
	// Trace is the merge history (only when Config.TraceMerges).
	Trace []MergeStep
	Stats Stats
}

// Cluster computes neighbors under cfg.Theta using the given similarity and
// clusters the n points via the brute-force O(n²) neighbor sweep. Callers
// holding typed data that admits a faster neighbor engine (e.g. the
// inverted-index join of internal/simjoin) use ClusterSource instead.
func Cluster(n int, s sim.Func, cfg Config) (*Result, error) {
	return ClusterSource(links.SimSource{NumPoints: n, Sim: s}, cfg)
}

// ClusterSource clusters the points whose neighbor graph the given source
// produces. The source decides how sim >= theta pairs are found — brute
// force or indexed join — and every source yields identical lists, so the
// clustering result is independent of the engine.
func ClusterSource(src links.NeighborSource, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nb := src.ComputeNeighbors(links.Config{Theta: cfg.Theta, Workers: cfg.Workers})
	return ClusterNeighbors(nb, cfg)
}

func (c Config) validate() error {
	if c.K <= 0 {
		return errors.New("rockcore: K must be positive")
	}
	if c.Theta < 0 || c.Theta > 1 {
		return fmt.Errorf("rockcore: theta %v out of [0,1]", c.Theta)
	}
	return nil
}

// ClusterNeighbors clusters points whose neighbor graph has already been
// computed. It applies MinNeighbors pruning, computes the link table with
// the Figure 4 algorithm, and runs the Figure 3 merge loop.
func ClusterNeighbors(nb *links.Neighbors, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := nb.N()
	res := &Result{F: cfg.f()}
	res.Stats.Points = n
	if n == 0 {
		return res, nil
	}

	// Outlier mechanism 1: drop isolated points.
	orig := identity(n)
	if cfg.MinNeighbors > 0 {
		keep, out := nb.FilterMinDegree(cfg.MinNeighbors)
		if len(out) > 0 {
			res.Outliers = append(res.Outliers, out...)
			res.Stats.Pruned = len(out)
			nb = nb.Subset(keep)
			orig = keep
			n = len(keep)
		}
	}
	res.Stats.MaxDegree = nb.MaxDegree()
	res.Stats.AvgDegree = nb.AvgDegree()

	table := links.ComputeParallel(nb, cfg.denseLimit(), cfg.Workers)
	res.Stats.LinkPairs = table.NonZeroPairs()

	st := newState(table, cfg)
	st.run()

	res.Stats.Merges = st.merges
	res.Stats.StoppedNoLinks = st.stoppedNoLinks
	res.Stats.Weeded = len(st.weeded)
	for _, w := range st.weeded {
		res.Outliers = append(res.Outliers, orig[w])
	}
	sort.Ints(res.Outliers)

	res.Trace = st.trace

	// Collect the final clusters, mapping members back to original indices.
	type finalCluster struct {
		members []int
		stat    ClusterStat
	}
	var finals []finalCluster
	for _, c := range st.active() {
		members := make([]int, len(c.members))
		for i, m := range c.members {
			members[i] = orig[m]
		}
		sort.Ints(members)
		term := CriterionTerm(c.size, c.internal, res.F)
		finals = append(finals, finalCluster{
			members: members,
			stat:    ClusterStat{Size: c.size, InternalLinks: c.internal, CriterionTerm: term},
		})
		res.Criterion += term
	}
	sort.Slice(finals, func(i, j int) bool {
		a, b := finals[i].members, finals[j].members
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a[0] < b[0]
	})
	for _, f := range finals {
		res.Clusters = append(res.Clusters, f.members)
		res.ClusterStats = append(res.ClusterStats, f.stat)
	}
	return res, nil
}

func identity(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

// clusterState is one live cluster in the merge loop. Cross-link maps and
// local heaps are maintained lazily: merged or weeded clusters keep their
// ids forever (new clusters get fresh ids), so entries pointing at dead ids
// are recognizably stale and are skipped on read instead of being deleted —
// which keeps hash-map and heap-index churn out of the hot loop.
type clusterState struct {
	size     int
	members  []int32
	internal int             // Σ link(p,q) over unordered intra-cluster pairs
	links    map[int32]int32 // cross-link counts; may contain stale (dead) ids
	heap     iheap.Lazy      // local heap q[i]; stale entries skipped at top
	best     float64         // cached g(i, max q[i]) as last published to Q
	rev      int32           // revision of the latest global-heap entry
}

// state carries the whole Figure 3 algorithm.
type state struct {
	cfg            Config
	pow            *sizePow
	cs             []*clusterState // indexed by cluster id; nil once dead
	global         iheap.Lazy      // the global heap Q (lazy)
	activeCount    int
	merges         int
	weeded         []int32
	stoppedNoLinks bool
	weedAt         int // pause point for outlier weeding; 0 = disabled
	trace          []MergeStep
}

// negInf is the global-heap priority of a cluster with an empty local heap.
var negInf = math.Inf(-1)

func newState(table links.Table, cfg Config) *state {
	n := table.N()
	st := &state{
		cfg:         cfg,
		pow:         newSizePow(cfg.f()),
		cs:          make([]*clusterState, n, 2*n),
		activeCount: n,
	}
	if cfg.StopMultiple > 1 && cfg.MinClusterSize > 0 {
		st.weedAt = int(math.Ceil(cfg.StopMultiple * float64(cfg.K)))
	}
	// Steps 1-4 of Figure 3: one cluster per point, local heaps from the
	// link table, global heap keyed by each cluster's best goodness.
	for i := 0; i < n; i++ {
		st.cs[i] = &clusterState{size: 1, members: []int32{int32(i)}}
	}
	// One table pass per point gathers its links into a reused buffer, so
	// the degree is known before the map is sized.
	var row [][2]int32
	for i := 0; i < n; i++ {
		c := st.cs[i]
		row = row[:0]
		table.ForEach(i, func(j, l int) { row = append(row, [2]int32{int32(j), int32(l)}) })
		c.links = make(map[int32]int32, len(row))
		for _, e := range row {
			c.links[e[0]] = e[1]
			c.heap.Push(iheap.LazyEntry{Key: e[0], Pri: st.goodness(int(e[1]), 1, 1)})
		}
		c.best = st.localBest(i)
		st.global.Push(iheap.LazyEntry{Key: int32(i), Rev: 0, Pri: c.best})
	}
	return st
}

func (st *state) goodness(crossLinks, ni, nj int) float64 {
	if st.cfg.RawCrossLinkGoodness {
		return float64(crossLinks)
	}
	return st.pow.goodness(crossLinks, ni, nj)
}

// localBest pops stale entries (dead targets) off cluster id's local heap
// and returns the goodness of its best live merge candidate, or -Inf.
func (st *state) localBest(id int) float64 {
	h := &st.cs[id].heap
	for {
		top, ok := h.Top()
		if !ok {
			return negInf
		}
		if st.cs[top.Key] != nil {
			return top.Pri
		}
		h.Pop()
	}
}

// localMax returns the best live merge candidate of cluster id, which
// localBest has already surfaced to the heap top.
func (st *state) localMax(id int) (int, bool) {
	st.localBest(id)
	top, ok := st.cs[id].heap.Top()
	if !ok || st.cs[top.Key] == nil {
		return 0, false
	}
	return int(top.Key), true
}

// publish refreshes cluster id's cached best priority and, if it changed,
// pushes a fresh revision to the global heap (superseding older entries).
func (st *state) publish(id int) {
	c := st.cs[id]
	best := st.localBest(id)
	if best == c.best {
		return // the entry at revision c.rev is still in the heap and valid
	}
	c.best = best
	c.rev++
	st.global.Push(iheap.LazyEntry{Key: int32(id), Rev: c.rev, Pri: best})
}

// globalMax pops stale entries off the global heap and returns the live
// cluster with the highest best-merge goodness.
func (st *state) globalMax() (int, float64, bool) {
	for {
		top, ok := st.global.Top()
		if !ok {
			return 0, 0, false
		}
		c := st.cs[top.Key]
		if c != nil && top.Rev == c.rev {
			return int(top.Key), top.Pri, true
		}
		st.global.Pop()
	}
}

// run executes the while-loop of Figure 3 (steps 5-18).
func (st *state) run() {
	for st.activeCount > st.cfg.K {
		if st.weedAt > 0 && st.activeCount <= st.weedAt {
			st.weed()
			st.weedAt = 0
			continue
		}
		u, pri, ok := st.globalMax()
		if !ok || math.IsInf(pri, -1) {
			// No remaining pair of clusters has any cross links; per
			// Section 4.3 the clustering stops here. Outlier weeding
			// still applies to the surviving clusters.
			st.stoppedNoLinks = true
			if st.weedAt > 0 {
				st.weed()
				st.weedAt = 0
			}
			return
		}
		v, ok := st.localMax(u)
		if !ok {
			panic("rockcore: global heap priority out of sync with local heap")
		}
		st.merge(u, v, pri)
	}
}

// merge implements steps 9-17 of Figure 3 for clusters u and v; goodness is
// g(u, v) at merge time, recorded in the trace.
func (st *state) merge(u, v int, goodness float64) {
	cu, cv := st.cs[u], st.cs[v]
	w := len(st.cs)
	cw := &clusterState{
		size:     cu.size + cv.size,
		members:  append(append(make([]int32, 0, cu.size+cv.size), cu.members...), cv.members...),
		internal: cu.internal + cv.internal + int(cu.links[int32(v)]),
		links:    make(map[int32]int32, len(cu.links)+len(cv.links)),
	}
	st.cs = append(st.cs, cw)
	st.cs[u], st.cs[v] = nil, nil // step 17: u and v are dead from here on

	// q[w]'s entries are exactly the live clusters previously linked to u
	// or v; stale ids in the old maps are skipped here and thereby
	// garbage-collected.
	for x, l := range cu.links {
		if st.cs[x] != nil {
			cw.links[x] = l
		}
	}
	for x, l := range cv.links {
		if st.cs[x] != nil {
			cw.links[x] += l
		}
	}
	for x, l := range cw.links {
		cx := st.cs[x]
		cx.links[int32(w)] = l
		g := st.goodness(int(l), cx.size, cw.size)
		cx.heap.Push(iheap.LazyEntry{Key: int32(w), Pri: g})
		cw.heap.Push(iheap.LazyEntry{Key: x, Pri: g})
		st.publish(int(x))
	}
	st.publish(w)

	st.activeCount--
	st.merges++
	if st.cfg.TraceMerges {
		st.trace = append(st.trace, MergeStep{
			Goodness:   goodness,
			SizeA:      cu.size,
			SizeB:      cv.size,
			InternalA:  cu.internal,
			InternalB:  cv.internal,
			CrossLinks: int(cu.links[int32(v)]),
			Remaining:  st.activeCount,
		})
	}
}

// weed implements the second outlier mechanism of Section 4.6: at the pause
// point, clusters with support below MinClusterSize are removed outright and
// their members become outliers; merging then resumes toward K.
func (st *state) weed() {
	var victims []int
	for id, c := range st.cs {
		if c != nil && c.size < st.cfg.MinClusterSize {
			victims = append(victims, id)
		}
	}
	// Never weed below K clusters.
	if st.activeCount-len(victims) < st.cfg.K {
		sort.Slice(victims, func(i, j int) bool {
			if st.cs[victims[i]].size != st.cs[victims[j]].size {
				return st.cs[victims[i]].size < st.cs[victims[j]].size
			}
			return victims[i] < victims[j]
		})
		victims = victims[:st.activeCount-st.cfg.K]
	}
	// Kill first, then republish neighbors (their best candidates may
	// have just died).
	touched := make(map[int32]bool)
	for _, id := range victims {
		c := st.cs[id]
		st.weeded = append(st.weeded, c.members...)
		for x := range c.links {
			touched[x] = true
		}
		st.cs[id] = nil
		st.activeCount--
	}
	for x := range touched {
		if st.cs[x] != nil {
			st.publish(int(x))
		}
	}
}

// active returns the live clusters.
func (st *state) active() []*clusterState {
	out := make([]*clusterState, 0, st.activeCount)
	for _, c := range st.cs {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}
