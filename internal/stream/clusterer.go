// Package stream is the online tier of the pipeline: a clusterer that folds
// an unbounded transaction stream into an evolving ROCK clustering and
// periodically publishes it as model snapshots the serving fleet hot-reloads.
//
// The batch trainer (internal/train) answers "cluster this corpus"; this
// package answers "keep a clustering current while the corpus never stops
// arriving". The design keeps the paper's machinery but swaps the static
// corpus for a bounded working set:
//
//   - Every cluster is summarized by a few representative transactions
//     (CURE-style scatter, cure.ScatterMedoid) plus a reservoir-sampled
//     labeled subset for the published model.
//   - The representatives of all clusters form a small link universe
//     maintained incrementally in a links.Dynamic bitset. An arrival's link
//     count to a cluster is computed against that universe, and the fold
//     decision is the paper's Eq. 2 goodness criterion with n_j = 1:
//     crossLinks(t, C) / ((n+1)^(1+2f) - n^(1+2f) - 1).
//   - An item → slot posting index over the live representatives
//     (simjoin.Postings, the kernel the serving assigner's §4.6 labeling
//     runs too) answers every theta-adjacency question about them — an
//     arrival's neighbors, a new representative's neighbors, which clusters
//     a pool group could merge into — from exact intersection counts and
//     the same float predicate as internal/sim; above theta 0 only
//     representatives sharing an item with the query are examined.
//   - Arrivals that fit no cluster land in a bounded outlier pool indexed by
//     the incremental prefix-filter join (simjoin.IncIndex). The pool is
//     periodically re-clustered with the full ROCK algorithm; dense groups
//     are promoted to new clusters (or merged into an existing one they
//     duplicate), stale singletons age out.
//   - A sliding window of fold outcomes yields the rolling outlier rate —
//     the drift score. The publisher refuses to ship a generation whose rate
//     regresses past a bound, so a drifting stream degrades into "stale
//     model keeps serving" rather than "broken model reaches the fleet".
package stream

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"rock/internal/dataset"
	"rock/internal/links"
	"rock/internal/rockcore"
	"rock/internal/simjoin"
)

// Config parameterizes the online clusterer. The zero value of every field
// selects a sensible default; Theta alone must be set deliberately.
type Config struct {
	// Theta is the neighbor similarity threshold (Section 3.1).
	Theta float64
	// SimName names the transaction similarity ("jaccard", "dice",
	// "overlap", "cosine"); empty selects "jaccard".
	SimName string
	// F maps theta to the f(theta) exponent; nil selects the paper's
	// (1-theta)/(1+theta).
	F func(theta float64) float64

	// NumRep is the number of representative transactions kept per cluster
	// (default 8). Representatives are what arrivals are compared against.
	// The comparison is posting-driven: an arrival costs one counter bump
	// per (item, representative containing it) plus one count-form
	// similarity per representative sharing an item, not a similarity
	// evaluation per representative of every cluster.
	NumRep int
	// MinFoldGoodness is the Eq. 2 goodness an arrival must reach against
	// its best cluster to be absorbed (default 0.2). True members score an
	// order of magnitude above it; points with a single marginal neighbor
	// and no shared link structure score below it and go to the pool.
	MinFoldGoodness float64
	// MinMergeGoodness is the rep-set goodness above which a pool cluster
	// is merged into an existing cluster instead of promoted as a new one
	// (default: MinFoldGoodness). This is what keeps a re-clustered pool
	// from spawning duplicates of clusters that already exist.
	MinMergeGoodness float64
	// MaxLabel caps the labeled reservoir per cluster (default 128),
	// matching the batch trainer's per-cluster labeled-set cap.
	MaxLabel int
	// PendingCap bounds the recent-absorb buffer fueling representative
	// refresh (default 32); RefreshEvery is how many absorptions between
	// refreshes (default 32). Refresh re-scatters representatives from the
	// current ones plus the pending buffer, which is how representatives
	// track a drifting cluster.
	PendingCap   int
	RefreshEvery int

	// PoolCap bounds the outlier pool (default 4096); reaching it forces a
	// re-cluster. ReclusterEvery re-clusters after that many pooled
	// arrivals (default 512). MinPromote is the minimum pool-cluster size
	// promoted to a real cluster (default 8); MinNeighbors is the
	// isolation prune inside the pool re-cluster (default 2). MaxAge ages
	// un-promoted pool entries out after that many total arrivals
	// (default 8192).
	PoolCap        int
	ReclusterEvery int
	MinPromote     int
	MinNeighbors   int
	MaxAge         int

	// WindowSize is the sliding window (in arrivals) over which the
	// rolling outlier rate — the drift score — is computed (default 2048).
	WindowSize int

	// Seed seeds the internal RNG (reservoir sampling, scatter medoid
	// estimation).
	Seed int64
}

func (c *Config) simName() string {
	if c.SimName == "" {
		return "jaccard"
	}
	return c.SimName
}

func (c *Config) numRep() int {
	if c.NumRep <= 0 {
		return 8
	}
	return c.NumRep
}

func (c *Config) minFoldGoodness() float64 {
	if c.MinFoldGoodness <= 0 {
		return 0.2
	}
	return c.MinFoldGoodness
}

func (c *Config) minMergeGoodness() float64 {
	if c.MinMergeGoodness <= 0 {
		return c.minFoldGoodness()
	}
	return c.MinMergeGoodness
}

func (c *Config) maxLabel() int {
	if c.MaxLabel <= 0 {
		return 128
	}
	return c.MaxLabel
}

func (c *Config) pendingCap() int {
	if c.PendingCap <= 0 {
		return 32
	}
	return c.PendingCap
}

func (c *Config) refreshEvery() int {
	if c.RefreshEvery <= 0 {
		return 32
	}
	return c.RefreshEvery
}

func (c *Config) poolCap() int {
	if c.PoolCap <= 0 {
		return 4096
	}
	return c.PoolCap
}

func (c *Config) reclusterEvery() int {
	if c.ReclusterEvery <= 0 {
		return 512
	}
	return c.ReclusterEvery
}

func (c *Config) minPromote() int {
	if c.MinPromote <= 0 {
		return 8
	}
	return c.MinPromote
}

func (c *Config) minNeighbors() int {
	if c.MinNeighbors <= 0 {
		return 2
	}
	return c.MinNeighbors
}

func (c *Config) maxAge() int {
	if c.MaxAge <= 0 {
		return 8192
	}
	return c.MaxAge
}

func (c *Config) windowSize() int {
	if c.WindowSize <= 0 {
		return 2048
	}
	return c.WindowSize
}

// cluster is one live cluster: a stable id, the representative transactions
// registered in the shared link universe, a reservoir-sampled labeled subset
// for publishing, and a short buffer of recent absorptions that feeds
// representative refresh.
type cluster struct {
	id   int
	size int64
	// repTxns and repSlots align: repSlots[i] is repTxns[i]'s slot in the
	// Dynamic link universe.
	repTxns  []dataset.Transaction
	repSlots []int32
	// labeled is the reservoir (cap Config.MaxLabel); labeledSeen counts
	// every candidate ever offered, driving uniform reservoir sampling.
	labeled     []dataset.Transaction
	labeledSeen int64
	// pending holds recent absorptions awaiting the next rep refresh.
	pending       []dataset.Transaction
	sinceRefresh  int
	lastAbsorbSeq int64
}

// Clusterer is the online ROCK clusterer. All methods are safe for
// concurrent use; internally a single mutex serializes stream mutation, so
// one Clusterer behaves like a single logical consumer of the stream.
type Clusterer struct {
	mu      sync.Mutex
	cfg     Config
	theta   float64
	f       float64
	measure simjoin.Measure
	rng     *rand.Rand

	d *links.Dynamic
	// reps indexes the live representatives of d by item, at their d
	// slots; owner[s] is the id of the cluster owning slot s.
	reps     *simjoin.Postings
	owner    []int32
	repProbe simjoin.ProbeScratch
	clusters []*cluster // stable id = position; clusters are never removed
	nextID   int

	// bestCluster scratch, cleared after each use: the arrival's neighbor
	// probe over d's slots, direct adjacencies per cluster id, and the ids
	// with a nonzero count.
	probe  []uint64
	direct []int32
	cands  []int32

	pool *pool

	total int64 // arrivals observed

	// Sliding outlier window: a ring of 0/1 outcomes per arrival.
	window    []uint8
	windowPos int
	windowLen int
	windowSum int

	metrics Metrics
}

// Disposition reports what Observe did with one arrival.
type Disposition struct {
	// Absorbed is true when the arrival folded into a cluster; Cluster is
	// then that cluster's stable id. When false the arrival went to the
	// outlier pool.
	Absorbed bool
	Cluster  int
}

// New builds a Clusterer. It panics when the similarity name is unknown or
// theta is outside [0,1] — both are static misconfiguration, not runtime
// conditions.
func New(cfg Config) *Clusterer {
	if math.IsNaN(cfg.Theta) || cfg.Theta < 0 || cfg.Theta > 1 {
		panic("stream: theta out of [0,1]")
	}
	measure, ok := simjoin.MeasureByName(cfg.simName())
	if !ok {
		panic("stream: unknown similarity " + cfg.simName())
	}
	fFunc := cfg.F
	if fFunc == nil {
		fFunc = rockcore.DefaultF
	}
	c := &Clusterer{
		cfg:     cfg,
		theta:   cfg.Theta,
		f:       fFunc(cfg.Theta),
		measure: measure,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		d:       links.NewDynamic(),
		reps:    simjoin.NewPostings(measure, cfg.Theta, nil),
		pool:    newPool(measure, cfg.Theta),
		window:  make([]uint8, cfg.windowSize()),
	}
	return c
}

// Metrics returns the clusterer's metrics block. The pointer is stable for
// the clusterer's lifetime.
func (c *Clusterer) Metrics() *Metrics { return &c.metrics }

// Observe folds one transaction into the clustering: absorbed into the best
// cluster when its Eq. 2 goodness clears MinFoldGoodness, pooled otherwise.
// Pooling may trigger a pool re-cluster (promotion, merge, age-out) inline.
func (c *Clusterer) Observe(t dataset.Transaction) Disposition {
	start := time.Now()
	if !t.IsNormalized() {
		t = t.Clone()
		t.Normalize()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++

	best, bestG := c.bestCluster(t)
	if best != nil && bestG >= c.cfg.minFoldGoodness() {
		c.absorb(best, t)
		c.pushWindow(0)
		c.metrics.Absorbed.Add(1)
		c.metrics.FoldLatency.Observe(time.Since(start))
		return Disposition{Absorbed: true, Cluster: best.id}
	}
	c.poolAdd(t)
	c.pushWindow(1)
	c.metrics.Outliered.Add(1)
	c.metrics.FoldLatency.Observe(time.Since(start))
	return Disposition{}
}

// bestCluster evaluates the arrival against the clusters it is adjacent to
// and returns the best-goodness candidate. The link universe is the set of
// all live representatives: N(t) within it is the probe bitset, and
// crossLinks(t, C) = sum over C's reps r of |N(t) ∩ N(r)|, plus one for each
// rep directly theta-adjacent to t (the arrival itself witnesses that pair —
// without the bonus a single-representative cluster could never score).
// A cluster with no rep adjacent to t is no candidate, so only the clusters
// owning a slot in the rep index's answer are scored, in ascending id — the
// order of c.clusters, which keeps the strict > on the first maximum.
func (c *Clusterer) bestCluster(t dataset.Transaction) (*cluster, float64) {
	if len(c.clusters) == 0 {
		return nil, 0
	}
	if need := (c.d.Slots() + 63) / 64; len(c.probe) < need {
		c.probe = make([]uint64, need)
	}
	for len(c.direct) < len(c.clusters) {
		c.direct = append(c.direct, 0)
	}
	adj := c.reps.Probe(&c.repProbe, t)
	for _, s := range adj {
		c.d.Mark(c.probe, s)
		o := c.owner[s]
		if c.direct[o] == 0 {
			c.cands = append(c.cands, o)
		}
		c.direct[o]++
	}
	slices.Sort(c.cands)
	var best *cluster
	bestG := 0.0
	for _, o := range c.cands {
		cl := c.clusters[o]
		cross := int(c.direct[o])
		for _, s := range cl.repSlots {
			cross += c.d.Common(c.probe, s)
		}
		g := float64(cross) / rockcore.ExpectedCrossLinks(len(cl.repSlots), 1, c.f)
		if g > bestG {
			bestG, best = g, cl
		}
		c.direct[o] = 0
	}
	c.cands = c.cands[:0]
	for _, s := range adj {
		c.probe[s>>6] = 0
	}
	return best, bestG
}

// absorb adds t to cl: size, labeled reservoir, pending buffer, and a
// representative refresh every RefreshEvery absorptions.
func (c *Clusterer) absorb(cl *cluster, t dataset.Transaction) {
	cl.size++
	cl.lastAbsorbSeq = c.total
	c.reservoirAdd(cl, t)
	if len(cl.pending) >= c.cfg.pendingCap() {
		copy(cl.pending, cl.pending[1:])
		cl.pending = cl.pending[:len(cl.pending)-1]
	}
	cl.pending = append(cl.pending, t)
	cl.sinceRefresh++
	if cl.sinceRefresh >= c.cfg.refreshEvery() {
		cl.sinceRefresh = 0
		c.refreshReps(cl)
	}
}

// reservoirAdd offers t to cl's labeled reservoir (algorithm R).
func (c *Clusterer) reservoirAdd(cl *cluster, t dataset.Transaction) {
	cl.labeledSeen++
	if len(cl.labeled) < c.cfg.maxLabel() {
		cl.labeled = append(cl.labeled, t)
		return
	}
	if j := c.rng.Int63n(cl.labeledSeen); j < int64(len(cl.labeled)) {
		cl.labeled[j] = t
	}
}

// refreshReps re-scatters cl's representatives from the pending buffer of
// recent absorptions and re-registers them in the link universe. This is
// the mechanism by which representatives follow a drifting cluster: the
// scatter runs over what the cluster absorbed lately, so the old
// representatives are replaced outright rather than competing — the
// farthest-point scatter would otherwise keep stale representatives forever
// precisely because drift makes them the most scattered extremes. Only when
// the buffer is thinner than the representative count do the current
// representatives pad out the candidate set.
func (c *Clusterer) refreshReps(cl *cluster) {
	cands := make([]dataset.Transaction, 0, len(cl.repTxns)+len(cl.pending))
	cands = append(cands, cl.pending...)
	if len(cands) < c.cfg.numRep() {
		cands = append(cands, cl.repTxns...)
	}
	cl.pending = cl.pending[:0]
	if len(cands) == 0 {
		return
	}
	reps := c.scatterTxns(cands)
	for _, s := range cl.repSlots {
		c.d.Remove(s)
		c.reps.Remove(s)
	}
	cl.repSlots = cl.repSlots[:0]
	c.registerReps(cl, reps)
}

// scatterMedoidCap bounds the medoid estimation subset; rep refresh works on
// tens of candidates so the cap never binds there, but promotion can hand
// hundreds of members to the scatter.
const scatterMedoidCap = 512

// registerReps installs reps as cl's representatives, wiring each into the
// Dynamic link universe and the rep index with its theta-adjacencies
// against every live representative — including reps of cl inserted
// earlier in this call.
func (c *Clusterer) registerReps(cl *cluster, reps []dataset.Transaction) {
	cl.repTxns = reps
	for _, r := range reps {
		s := c.d.Add(c.reps.Probe(&c.repProbe, r))
		c.reps.Add(s, r)
		for int(s) >= len(c.owner) {
			c.owner = append(c.owner, -1)
		}
		c.owner[s] = int32(cl.id)
		cl.repSlots = append(cl.repSlots, s)
	}
}

// pushWindow records one fold outcome (1 = pooled) in the sliding window.
func (c *Clusterer) pushWindow(bit uint8) {
	if c.windowLen == len(c.window) {
		c.windowSum -= int(c.window[c.windowPos])
	} else {
		c.windowLen++
	}
	c.window[c.windowPos] = bit
	c.windowSum += int(bit)
	c.windowPos = (c.windowPos + 1) % len(c.window)
}

// WindowRate returns the rolling outlier rate — the drift score: the
// fraction of the last WindowSize arrivals that fit no cluster.
func (c *Clusterer) WindowRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windowRateLocked()
}

func (c *Clusterer) windowRateLocked() float64 {
	if c.windowLen == 0 {
		return 0
	}
	return float64(c.windowSum) / float64(c.windowLen)
}

// WindowFill returns how many arrivals the window currently covers.
func (c *Clusterer) WindowFill() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windowLen
}

// Arrivals returns the number of transactions observed so far.
func (c *Clusterer) Arrivals() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// ClusterStat describes one live cluster for introspection endpoints.
type ClusterStat struct {
	ID      int   `json:"id"`
	Size    int64 `json:"size"`
	Reps    int   `json:"reps"`
	Labeled int   `json:"labeled"`
}

// Stats returns a point-in-time view of the clusterer's state.
func (c *Clusterer) Stats() (clusters []ClusterStat, poolSize int, windowRate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	clusters = make([]ClusterStat, len(c.clusters))
	for i, cl := range c.clusters {
		clusters[i] = ClusterStat{ID: cl.id, Size: cl.size, Reps: len(cl.repTxns), Labeled: len(cl.labeled)}
	}
	return clusters, c.pool.len(), c.windowRateLocked()
}
