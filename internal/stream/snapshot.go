package stream

import (
	"fmt"

	"rock/internal/model"
	"rock/internal/rockcore"
)

// BuildSnapshot freezes the current clustering into a publishable model
// snapshot: one labeled set per live cluster (the reservoir), cluster
// indices assigned contiguously in stable-id order, Section 4.6 norms
// re-derived from the reservoir sizes, and TrainStats carrying the stream's
// arrival counts and rolling outlier rate. Returns nil when no clusters
// exist yet — there is nothing a fleet could serve.
func (c *Clusterer) BuildSnapshot() *model.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buildSnapshotLocked()
}

func (c *Clusterer) buildSnapshotLocked() *model.Snapshot {
	snap := &model.Snapshot{
		Theta:   c.theta,
		FTheta:  c.f,
		SimName: c.cfg.simName(),
	}
	for _, cl := range c.clusters {
		if len(cl.labeled) == 0 {
			continue
		}
		points := make([]int, len(cl.labeled))
		for i, t := range cl.labeled {
			points[i] = len(snap.Txns)
			snap.Txns = append(snap.Txns, t)
		}
		snap.Sets = append(snap.Sets, model.Set{
			Cluster: len(snap.Sets),
			Norm:    rockcore.ExpectedNeighbors(len(points), c.f),
			Points:  points,
		})
	}
	if len(snap.Sets) == 0 {
		return nil
	}
	outliers := c.metrics.Outliered.Load() - c.metrics.Promoted.Load()
	if outliers < 0 {
		outliers = 0
	}
	if outliers > c.total {
		outliers = c.total
	}
	snap.Stats = &model.TrainStats{
		Points:      c.total,
		Outliers:    outliers,
		OutlierRate: c.windowRateLocked(),
	}
	return snap
}

// Seed primes an empty clusterer from a previously published snapshot —
// the restart path: the daemon resumes folding into the clusters the fleet
// is already serving instead of re-discovering them through the pool. The
// snapshot must have been trained with the same similarity and theta, or
// the fold criterion would not mean the same thing it did at publish time.
func (c *Clusterer) Seed(snap *model.Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.clusters) != 0 || c.total != 0 {
		return fmt.Errorf("stream: Seed on a non-empty clusterer")
	}
	if snap.SimName != c.cfg.simName() {
		return fmt.Errorf("stream: snapshot similarity %q, clusterer uses %q", snap.SimName, c.cfg.simName())
	}
	if snap.Theta != c.theta {
		return fmt.Errorf("stream: snapshot theta %v, clusterer uses %v", snap.Theta, c.theta)
	}
	for _, set := range snap.Sets {
		if len(set.Points) == 0 {
			continue
		}
		cl := &cluster{id: c.nextID, size: int64(len(set.Points))}
		c.nextID++
		for _, p := range set.Points {
			// The fold treats transactions as item sets, as Observe does;
			// the rep index counts intersections over normalized ones.
			t := snap.Txns[p]
			if !t.IsNormalized() {
				t = t.Clone()
				t.Normalize()
			}
			c.reservoirAdd(cl, t)
		}
		c.registerReps(cl, c.scatterTxns(cl.labeled))
		c.clusters = append(c.clusters, cl)
	}
	return nil
}
