package rock

import (
	"sort"

	"rock/internal/links"
	"rock/internal/rockcore"
	"rock/internal/sim"
	"rock/internal/simjoin"
)

// MergeStep is one recorded agglomeration step (see Config.TraceMerges).
type MergeStep = rockcore.MergeStep

// ClusterStat describes one final cluster (size, internal links, E_l term).
type ClusterStat = rockcore.ClusterStat

// BestK suggests a natural cluster count from a merge trace by locating the
// peak of the criterion function E_l along the merge sequence (the paper:
// "the best clusters are the ones that maximize the value of the criterion
// function"). Run the clusterer with Config{K: 1, TraceMerges: true} and
// pass Result.Trace and Result.F.
func BestK(trace []MergeStep, f float64) int { return rockcore.BestK(trace, f) }

// CriterionTrajectory reconstructs E_l after every merge of a trace; its
// peak is an alternative data-driven stopping point (the paper's best
// clusterings maximize E_l).
func CriterionTrajectory(trace []MergeStep, f float64) []float64 {
	return rockcore.CriterionTrajectory(trace, f)
}

// Components clusters transactions as the connected components of the
// theta-neighbor graph — the QROCK simplification (Dutta, Mahanta & Pujari
// 2005): for well-separated categorical data ROCK's clusters coincide with
// the components, and this variant needs neither K nor the goodness
// machinery. Components are returned largest first; singletons last.
func Components(txns []Transaction, theta float64, similarity TxnSimilarity) [][]int {
	if similarity == nil {
		similarity = sim.Jaccard
	}
	// Same engine selection as ClusterTransactions: the set-similarity join
	// (prefix index or bitmap sweep, by its cost rule) for the named set
	// measures, brute force otherwise.
	nb := simjoin.NewSource(txns, similarity).ComputeNeighbors(links.Config{Theta: theta})
	comps := rockcore.ConnectedComponents(nb.Lists)
	sortClustersBySize(comps)
	return comps
}

// ComponentsSim is Components under an arbitrary index-addressed similarity.
func ComponentsSim(n int, similarity func(i, j int) float64, theta float64) [][]int {
	nb := links.ComputeNeighbors(n, similarity, links.Config{Theta: theta})
	comps := rockcore.ConnectedComponents(nb.Lists)
	sortClustersBySize(comps)
	return comps
}

func sortClustersBySize(cs [][]int) {
	for _, c := range cs {
		sort.Ints(c)
	}
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i]) != len(cs[j]) {
			return len(cs[i]) > len(cs[j])
		}
		return cs[i][0] < cs[j][0]
	})
}
