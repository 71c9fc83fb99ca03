package stream

import (
	"slices"

	"rock/internal/cure"
	"rock/internal/dataset"
	"rock/internal/rockcore"
	"rock/internal/simjoin"
)

// pool is the bounded outlier buffer: arrivals that fit no cluster, indexed
// by the incremental prefix-filter join so a re-cluster has their
// theta-neighbor lists ready without an O(n²) pass.
type pool struct {
	idx  *simjoin.IncIndex
	seqs []int64 // arrival sequence number per pool entry
	// sinceRecluster counts pooled arrivals since the last re-cluster.
	sinceRecluster int
}

func newPool(m simjoin.Measure, theta float64) *pool {
	return &pool{idx: simjoin.NewIncIndex(m, theta)}
}

func (p *pool) len() int { return p.idx.Len() }

func (p *pool) add(t dataset.Transaction, seq int64) {
	p.idx.Insert(t)
	p.seqs = append(p.seqs, seq)
	p.sinceRecluster++
}

// reset keeps the pool entries at the ascending indices keep.
func (p *pool) reset(keep []int) {
	p.idx.Retain(keep)
	for i, k := range keep {
		p.seqs[i] = p.seqs[k]
	}
	p.seqs = p.seqs[:len(keep)]
}

// poolAdd pools one arrival and re-clusters the pool when due: after
// ReclusterEvery pooled arrivals, or immediately at PoolCap.
func (c *Clusterer) poolAdd(t dataset.Transaction) {
	c.pool.add(t, c.total)
	if c.pool.sinceRecluster >= c.cfg.reclusterEvery() || c.pool.len() >= c.cfg.poolCap() {
		c.recluster()
	}
}

// recluster runs the full ROCK algorithm over the pool. Dense groups of at
// least MinPromote entries leave the pool: merged into an existing cluster
// when their representative sets share enough link structure (the pool
// re-discovering a cluster that already exists — common right after a drift
// step), promoted as a brand-new cluster otherwise. Entries that stay
// un-promoted past MaxAge arrivals age out, and the pool index keeps the
// survivors' neighbor lists.
func (c *Clusterer) recluster() {
	c.pool.sinceRecluster = 0
	c.metrics.Reclusters.Add(1)
	taken := make([]bool, c.pool.len())

	if c.pool.len() > 0 {
		res, err := rockcore.ClusterNeighbors(c.pool.idx.Neighbors(), rockcore.Config{
			K:            1, // merge until no cross links remain; promotion picks the dense survivors
			Theta:        c.theta,
			F:            c.cfg.F,
			MinNeighbors: c.cfg.minNeighbors(),
		})
		if err == nil {
			for _, members := range res.Clusters {
				if len(members) < c.cfg.minPromote() {
					continue
				}
				txns := make([]dataset.Transaction, len(members))
				for i, m := range members {
					txns[i] = c.pool.idx.Txn(m)
					taken[m] = true
				}
				c.promote(txns)
			}
		}
	}

	// Age out what remains; the pool index keeps the survivors.
	var keep []int
	aged := 0
	horizon := c.total - int64(c.cfg.maxAge())
	for i := 0; i < c.pool.len(); i++ {
		if taken[i] {
			continue
		}
		if c.pool.seqs[i] <= horizon {
			aged++
			continue
		}
		keep = append(keep, i)
	}
	// A full pool whose entries neither promote nor age out would re-cluster
	// on every arrival; shed the oldest entries down to half capacity.
	if over := len(keep) - c.cfg.poolCap()/2; over > 0 && len(keep) >= c.cfg.poolCap() {
		aged += over
		keep = keep[over:]
	}
	c.metrics.Aged.Add(int64(aged))
	c.pool.reset(keep)
}

// promote turns one dense pool group into cluster membership: merged into an
// existing cluster when the rep-set goodness clears MinMergeGoodness,
// created as a new cluster otherwise. Either way the group's transactions
// count as promoted — they found a home after being pooled.
func (c *Clusterer) promote(txns []dataset.Transaction) {
	reps := c.scatterTxns(txns)
	if target := c.mergeTarget(reps); target != nil {
		for _, t := range txns {
			target.size++
			c.reservoirAdd(target, t)
		}
		// Refresh with the promoted group's representatives AND the
		// target's current ones in the pending buffer: the re-scatter then
		// summarizes the union of both distributions.
		target.pending = append(target.pending, target.repTxns...)
		target.pending = append(target.pending, reps...)
		c.refreshReps(target)
		target.sinceRefresh = 0
		c.metrics.Promoted.Add(int64(len(txns)))
		c.metrics.Merges.Add(1)
		return
	}
	cl := &cluster{id: c.nextID, size: int64(len(txns))}
	c.nextID++
	for _, t := range txns {
		c.reservoirAdd(cl, t)
	}
	c.registerReps(cl, reps)
	c.clusters = append(c.clusters, cl)
	c.metrics.Promoted.Add(int64(len(txns)))
	c.metrics.ClustersCreated.Add(1)
}

// scatterTxns picks representative transactions for a member set via the
// medoid-seeded farthest-point scatter, under 1 - sim from item bitmaps.
func (c *Clusterer) scatterTxns(txns []dataset.Transaction) []dataset.Transaction {
	picked := cure.ScatterMedoid(len(txns), c.cfg.numRep(), scatterMedoidCap,
		newItemBitmaps(c.measure, txns).dist, c.rng)
	reps := make([]dataset.Transaction, len(picked))
	for i, p := range picked {
		reps[i] = txns[p]
	}
	return reps
}

// mergeTarget returns the existing cluster the candidate representative set
// duplicates, or nil. The test is Eq. 2 goodness computed at representative
// granularity: the link universe is the union of the two rep sets, and
// crossLinks is the sum over cross pairs of their common-neighbor counts
// plus one per directly adjacent pair (same bonus as the fold path). Two
// rep sets drawn from the same distribution are densely adjacent and score
// far above MinMergeGoodness; genuinely distinct clusters score zero.
//
// Only clusters owning a rep adjacent to some candidate rep are scored, in
// ascending id. That skips no winner: every cross term needs an adjacency
// between the two sets — a direct pair, or a common neighbor k, which lies
// in one set and is adjacent to a member of the other — so a skipped
// cluster scores exactly 0, which never beats bestG = 0.
func (c *Clusterer) mergeTarget(cand []dataset.Transaction) *cluster {
	var ids []int32
	for _, r := range cand {
		for _, s := range c.reps.Probe(&c.repProbe, r) {
			ids = append(ids, c.owner[s])
		}
	}
	slices.Sort(ids)
	var best *cluster
	bestG := 0.0
	for _, id := range slices.Compact(ids) {
		cl := c.clusters[id]
		g := c.repSetGoodness(cand, cl.repTxns)
		if g > bestG {
			bestG, best = g, cl
		}
	}
	if best != nil && bestG >= c.cfg.minMergeGoodness() {
		return best
	}
	return nil
}

func (c *Clusterer) repSetGoodness(a, b []dataset.Transaction) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	u := make([]dataset.Transaction, 0, len(a)+len(b))
	u = append(u, a...)
	u = append(u, b...)
	n := len(u)
	bm := newItemBitmaps(c.measure, u)
	adj := make([]bool, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if bm.sim(i, j) >= c.theta {
				adj[i*n+j] = true
				adj[j*n+i] = true
			}
		}
	}
	cross := 0
	for i := 0; i < len(a); i++ {
		for j := len(a); j < n; j++ {
			if adj[i*n+j] {
				cross++
			}
			for k := 0; k < n; k++ {
				if adj[i*n+k] && adj[j*n+k] {
					cross++
				}
			}
		}
	}
	return float64(cross) / rockcore.ExpectedCrossLinks(len(a), len(b), c.f)
}
