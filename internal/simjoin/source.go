package simjoin

import (
	"rock/internal/dataset"
	"rock/internal/links"
	"rock/internal/sim"
)

// MinIndexTheta is the smallest threshold for which the indexed join is
// selected. Below it the length and prefix filters prune almost nothing
// (for a typical basket of 15 items, theta = 0.05 already forces a
// full-length prefix), so the brute-force sweep — with no index build, no
// candidate deduplication — is the better engine; and at exactly 0 the
// index is wrong, since even pairs sharing no item qualify.
const MinIndexTheta = 0.05

// Source computes neighbor lists for a transaction corpus, selecting Join
// (prefix index or item-bitmap sweep) when it applies and the brute-force
// pairwise sweep otherwise. It implements links.NeighborSource, which is
// how rock.ClusterTransactions and the pipeline pick the indexed path
// without the core clustering code knowing about transactions at all.
type Source struct {
	txns    []dataset.Transaction
	f       sim.TxnFunc
	measure Measure
	indexed bool
}

// NewSource builds a neighbor source for the corpus under similarity f
// (nil selects Jaccard, matching rock.Config). The indexed engine is used
// when f is one of the registered set measures and every transaction is
// normalized; custom similarity functions fall back to brute force, which
// accepts anything.
func NewSource(txns []dataset.Transaction, f sim.TxnFunc) *Source {
	if f == nil {
		f = sim.Jaccard
	}
	s := &Source{txns: txns, f: f}
	if m, ok := MeasureOf(f); ok && allNormalized(txns) {
		s.measure = m
		s.indexed = true
	}
	return s
}

// Indexed reports whether the corpus and similarity admit the indexed join
// (the threshold still decides per call; see MinIndexTheta).
func (s *Source) Indexed() bool { return s.indexed }

// ComputeNeighbors returns the theta-neighbor lists, bit-identical to the
// brute-force path whichever engine runs.
func (s *Source) ComputeNeighbors(cfg links.Config) *links.Neighbors {
	if s.indexed && cfg.Theta >= MinIndexTheta {
		return Join(s.txns, s.measure, cfg.Theta, cfg.Workers)
	}
	return links.ComputeNeighbors(len(s.txns), sim.ByIndex(s.txns, s.f), cfg)
}

// allNormalized reports whether every transaction is sorted and duplicate-
// free — the precondition for the merge intersections of the indexed join.
// The check is one linear pass, negligible next to either join engine.
func allNormalized(txns []dataset.Transaction) bool {
	for _, t := range txns {
		if !t.IsNormalized() {
			return false
		}
	}
	return true
}
