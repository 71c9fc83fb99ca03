package rockcore

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

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
	// DenseLimit is ignored: the merge loop's link lists come straight
	// from the neighbor graph (links.ComputeLists), with no link table.
	// The field stays so existing configurations keep compiling.
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
	// counts: the non-zero entries of the Figure 4 link table, and half
	// the total length of the per-point link lists the merge loop starts
	// from.
	LinkPairs int
	// Timings are the wall-clock durations of the run's phases. They vary
	// from run to run, so comparisons of results for identity leave them
	// out.
	Timings
}

// Timings records where a clustering run spent its time. The phases do not
// overlap, so their sum is at most the run's wall time.
type Timings struct {
	// Neighbors is the θ-neighbor computation. Only ClusterSource (and so
	// Cluster) computes neighbors; it is zero when the caller supplies the
	// neighbor lists to ClusterNeighbors.
	Neighbors time.Duration
	// Links is the Figure 4 link computation, which yields every point's
	// sorted link list.
	Links time.Duration
	// Heap is steps 1-4 of Figure 3: the local heaps and the global heap,
	// built over the link lists.
	Heap time.Duration
	// Merge is the Figure 3 merge loop, weeding excluded.
	Merge time.Duration
	// Weed is the Section 4.6 small-cluster weeding.
	Weed time.Duration
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
	start := time.Now()
	nb := src.ComputeNeighbors(links.Config{Theta: cfg.Theta, Workers: cfg.Workers})
	neighbors := time.Since(start)
	res, err := ClusterNeighbors(nb, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats.Neighbors = neighbors
	return res, nil
}

func (c Config) validate() error {
	if c.K <= 0 {
		return errors.New("rockcore: K must be positive")
	}
	if math.IsNaN(c.Theta) || c.Theta < 0 || c.Theta > 1 {
		return fmt.Errorf("rockcore: theta %v out of [0,1]", c.Theta)
	}
	return nil
}

// ClusterNeighbors clusters points whose neighbor graph has already been
// computed. It applies MinNeighbors pruning, counts every point's links with
// the Figure 4 algorithm straight into per-point link lists (no n×n link
// table), and runs the Figure 3 merge loop on them.
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

	start := time.Now()
	lists := links.ComputeLists(nb, cfg.Workers)
	heapStart := time.Now()
	st := newState(lists, cfg)
	mergeStart := time.Now()
	st.run()
	res.Stats.Links = heapStart.Sub(start)
	res.Stats.Heap = mergeStart.Sub(heapStart)
	res.Stats.Weed = st.weedTime
	res.Stats.Merge = time.Since(mergeStart) - st.weedTime
	res.Stats.LinkPairs = st.linkPairs

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

// link is one entry of a cluster's cross-link list: another cluster's id
// and the number of cross links to it.
type link = links.Link

func byID(a, b link) int { return cmp.Compare(a.ID, b.ID) }

// clusterState is one live cluster in the merge loop. Merged or weeded
// clusters keep their ids forever and new clusters get fresh, increasing
// ids, so a cross-link list stays sorted by id when a new cluster's entry is
// appended, and entries pointing at dead ids are recognizably stale: they
// are skipped on read (and dropped when the list is next merged), as are
// dead targets at the top of the local heap, instead of being deleted. When
// an append would outgrow a list whose dead entries outnumber its live
// ones, the list sheds them in place instead, so a long-lived cluster's
// list does not double in capacity with every few merges around it.
//
// The cross-link list holds every linked cluster, but the local heap holds
// only the older ones: each linked pair (a, b), a < b, is a merge candidate
// in b's heap alone. A new cluster is the newest id, so its heap is built
// from its whole list once and never gains an entry afterwards.
type clusterState struct {
	size     int
	members  []int32
	internal int        // Σ link(p,q) over unordered intra-cluster pairs
	links    []link     // cross-link counts sorted by id; may hold dead ids
	dead     int        // entries of links whose cluster is dead
	heap     iheap.Lazy // local heap q[i] over older linked clusters; stale entries skipped at top
}

// linksTo returns the cross-link count to cluster id (0 when unlinked).
func (c *clusterState) linksTo(id int) int {
	i, ok := slices.BinarySearchFunc(c.links, link{ID: int32(id)}, byID)
	if !ok {
		return 0
	}
	return int(c.links[i].N)
}

// state carries the whole Figure 3 algorithm.
type state struct {
	cfg            Config
	pow            *sizePow
	cs             []*clusterState // indexed by cluster id; nil once dead
	global         *iheap.Heap     // the global heap Q: per live id, its local heap top's goodness and id
	activeCount    int
	linkPairs      int
	merges         int
	weeded         []int32
	stoppedNoLinks bool
	weedAt         int // pause point for outlier weeding; 0 = disabled
	weedTime       time.Duration
	trace          []MergeStep
}

// negInf is the global-heap priority of a cluster with an empty local heap.
var negInf = math.Inf(-1)

// newState takes ownership of lists, point i's sorted link list (as
// links.ComputeLists returns it), as the singleton clusters' cross-link
// lists.
func newState(lists [][]link, cfg Config) *state {
	n := len(lists)
	st := &state{
		cfg:         cfg,
		pow:         newSizePow(cfg.f()),
		cs:          make([]*clusterState, n, 2*n),
		global:      iheap.NewWithCapacity(2 * n),
		activeCount: n,
	}
	if cfg.StopMultiple > 1 && cfg.MinClusterSize > 0 {
		st.weedAt = int(math.Ceil(cfg.StopMultiple * float64(cfg.K)))
	}
	// Steps 1-4 of Figure 3: one cluster per point, local heaps from the
	// link lists, global heap keyed by each cluster's best goodness. Each
	// point's local heap holds only the lower-numbered points it has links
	// to — the prefix of its sorted list — so every linked pair is in
	// exactly one heap and the heap sizes sum to the linked pair count.
	for i, l := range lists {
		c := &clusterState{size: 1, members: []int32{int32(i)}, links: l}
		st.cs[i] = c
		older, _ := slices.BinarySearchFunc(l, link{ID: int32(i)}, byID)
		st.linkPairs += older
		es := make([]iheap.LazyEntry, older)
		for k, e := range l[:older] {
			es[k] = iheap.LazyEntry{Key: e.ID, Pri: st.goodness(int(e.N), 1, 1)}
		}
		c.heap.Init(es)
		pri, partner := st.localBest(i)
		st.global.Push(i, pri, partner)
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
// and returns the goodness and id of its best live merge candidate, or
// (-Inf, -1) when none is left.
func (st *state) localBest(id int) (float64, int) {
	h := &st.cs[id].heap
	for {
		top, ok := h.Top()
		if !ok {
			return negInf, -1
		}
		if st.cs[top.Key] != nil {
			return top.Pri, int(top.Key)
		}
		h.Pop()
	}
}

// publish refreshes cluster id's entry in the global heap to the goodness
// and partner of its best live merge candidate.
func (st *state) publish(id int) {
	pri, partner := st.localBest(id)
	st.global.Update(id, pri, partner)
}

// kill marks cluster id dead and drops it from the global heap.
func (st *state) kill(id int) {
	st.cs[id] = nil
	st.global.Remove(id)
}

// run executes the while-loop of Figure 3 (steps 5-18).
func (st *state) run() {
	for st.activeCount > st.cfg.K {
		if st.weedAt > 0 && st.activeCount <= st.weedAt {
			st.weed()
			st.weedAt = 0
			continue
		}
		// Q orders by goodness, then partner, then id, so its top is the
		// lexicographically first max-goodness pair (u, v), u < v.
		v, pri, u, ok := st.global.Max()
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
		st.merge(u, v, pri)
	}
}

// merge implements steps 9-17 of Figure 3 for clusters u < v; goodness is
// g(u, v) at merge time, recorded in the trace.
func (st *state) merge(u, v int, goodness float64) {
	cu, cv := st.cs[u], st.cs[v]
	cross := cu.linksTo(v)
	w := len(st.cs)
	cw := &clusterState{
		size:     cu.size + cv.size,
		members:  append(append(make([]int32, 0, cu.size+cv.size), cu.members...), cv.members...),
		internal: cu.internal + cv.internal + cross,
	}
	st.cs = append(st.cs, cw)
	st.kill(u) // step 17: u and v are dead from here on
	st.kill(v)
	st.activeCount--

	// q[w]'s entries are exactly the live clusters previously linked to u
	// or v, all older than w, so w's local heap is built from all of them
	// at once and theirs gain nothing. Each neighbor's list gains w for
	// its own later merges. A neighbor's Q entry goes stale only when its
	// heap top was u or v: every other top is still live and unchanged.
	cw.links = st.mergeLinks(cu.links, cv.links)
	es := make([]iheap.LazyEntry, len(cw.links))
	for k, e := range cw.links {
		cx := st.cs[e.ID]
		if len(cx.links) == cap(cx.links) && cx.dead > len(cx.links)-cx.dead {
			cx.links = slices.DeleteFunc(cx.links, func(e link) bool { return st.cs[e.ID] == nil })
			cx.dead = 0
		}
		cx.links = append(cx.links, link{ID: int32(w), N: e.N})
		es[k] = iheap.LazyEntry{Key: e.ID, Pri: st.goodness(int(e.N), cx.size, cw.size)}
		if top, ok := cx.heap.Top(); ok && (int(top.Key) == u || int(top.Key) == v) {
			st.publish(int(e.ID))
		}
	}
	cw.heap.Init(es)
	pri, partner := st.localBest(w)
	st.global.Push(w, pri, partner)

	st.merges++
	if st.cfg.TraceMerges {
		st.trace = append(st.trace, MergeStep{
			Goodness:   goodness,
			SizeA:      cu.size,
			SizeB:      cv.size,
			InternalA:  cu.internal,
			InternalB:  cv.internal,
			CrossLinks: cross,
			Remaining:  st.activeCount,
		})
	}
}

// mergeLinks returns the union of the sorted cross-link lists of two
// clusters that have just died, summing the counts of ids present in both
// and dropping dead ids. Each live id's own list holds one entry per
// parent, now dead, and its dead count grows to match.
func (st *state) mergeLinks(a, b []link) []link {
	out := make([]link, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var e link
		parents := 1
		switch {
		case j == len(b) || (i < len(a) && a[i].ID < b[j].ID):
			e = a[i]
			i++
		case i == len(a) || b[j].ID < a[i].ID:
			e = b[j]
			j++
		default:
			e = link{ID: a[i].ID, N: a[i].N + b[j].N}
			parents = 2
			i++
			j++
		}
		if cx := st.cs[e.ID]; cx != nil {
			cx.dead += parents
			out = append(out, e)
		}
	}
	return out
}

// weed implements the second outlier mechanism of Section 4.6: at the pause
// point, clusters with support below MinClusterSize are removed outright and
// their members become outliers; merging then resumes toward K.
func (st *state) weed() {
	start := time.Now()
	defer func() { st.weedTime += time.Since(start) }()
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
	var touched []link
	for _, id := range victims {
		c := st.cs[id]
		st.weeded = append(st.weeded, c.members...)
		touched = append(touched, c.links...)
		st.kill(id)
		st.activeCount--
	}
	for _, e := range touched {
		if cx := st.cs[e.ID]; cx != nil {
			cx.dead++
			st.publish(int(e.ID))
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
