package train

import (
	"math/rand"
	"sort"

	"rock/internal/cure"
	"rock/internal/dataset"
	"rock/internal/links"
	"rock/internal/rockcore"
	"rock/internal/sim"
	"rock/internal/simjoin"
)

// mergeFan bounds the number of summaries handled by one direct
// mergeSummaries call. The rep-level neighbor join is quadratic in how many
// same-cluster representatives are pooled, so at hundreds of shards (a 10M+
// corpus under a small budget derives 1024) a flat merge over every summary
// at once is intractable. Above the fan, summaries merge hierarchically:
// batches of mergeFan merge locally, each merged group is condensed back to
// numRep representatives by the same farthest-point scatter that built the
// shard summaries, and the condensed summaries recurse.
const mergeFan = 384

// mergeAll agglomerates shard-cluster summaries into at most k global
// clusters, directly when few, hierarchically when many. Returns, for each
// global cluster, the indices of its member summaries, ordered by total
// member count descending (ties by first summary index).
func mergeAll(sums []summary, simF sim.TxnFunc, theta, fTheta float64, k, workers, numRep int, rng *rand.Rand) [][]int {
	if len(sums) <= mergeFan {
		return mergeSummaries(sums, simF, theta, fTheta, k, workers)
	}
	var supers []summary
	var members [][]int // supers[i] covers these indices into sums
	for start := 0; start < len(sums); start += mergeFan {
		end := start + mergeFan
		if end > len(sums) {
			end = len(sums)
		}
		batch := sums[start:end]
		for _, g := range mergeSummaries(batch, simF, theta, fTheta, k, workers) {
			var pooled []dataset.Transaction
			var orig []int
			size := 0
			for _, si := range g {
				pooled = append(pooled, batch[si].reps...)
				orig = append(orig, start+si)
				size += batch[si].size
			}
			supers = append(supers, summary{
				size: size,
				reps: scatterReps(pooled, simF, numRep, rng),
			})
			members = append(members, orig)
		}
	}
	var merged [][]int
	if len(supers) < len(sums) {
		merged = mergeAll(supers, simF, theta, fTheta, k, workers, numRep, rng)
	} else {
		// No batch merged anything — there are no cross links at this theta
		// (e.g. every shard cluster is a singleton). Recursing would never
		// shrink the input; the batch-level groups are the final answer,
		// exactly as the flat merge's "no cross links" stop.
		merged = make([][]int, len(supers))
		for i := range merged {
			merged[i] = []int{i}
		}
	}
	out := make([][]int, len(merged))
	sizes := make([]int, len(merged))
	for i, g := range merged {
		for _, si := range g {
			out[i] = append(out[i], members[si]...)
			sizes[i] += supers[si].size
		}
		sort.Ints(out[i])
	}
	sort.Sort(&groupsBySize{out, sizes})
	return out
}

type groupsBySize struct {
	groups [][]int
	sizes  []int
}

func (g *groupsBySize) Len() int { return len(g.groups) }
func (g *groupsBySize) Less(i, j int) bool {
	if g.sizes[i] != g.sizes[j] {
		return g.sizes[i] > g.sizes[j]
	}
	return g.groups[i][0] < g.groups[j][0]
}
func (g *groupsBySize) Swap(i, j int) {
	g.groups[i], g.groups[j] = g.groups[j], g.groups[i]
	g.sizes[i], g.sizes[j] = g.sizes[j], g.sizes[i]
}

// scatterReps condenses a pooled set of representatives back down to numRep
// well-scattered ones: medoid seed (estimated on a random subset past
// medoidCap, as in summarize), then farthest-point selection under
// dist = 1 - sim.
func scatterReps(pts []dataset.Transaction, simF sim.TxnFunc, numRep int, rng *rand.Rand) []dataset.Transaction {
	if len(pts) <= numRep {
		return pts
	}
	chosen := cure.ScatterMedoid(len(pts), numRep, medoidCap, func(i, j int) float64 {
		return 1 - simF(pts[i], pts[j])
	}, rng)
	out := make([]dataset.Transaction, len(chosen))
	for i, ci := range chosen {
		out[i] = pts[ci]
	}
	return out
}

// mergeSummaries agglomerates shard clusters into at most k global clusters
// by link goodness between their representative points: the representatives
// of all summaries are pooled, their theta-neighbor graph and link lists are
// computed exactly as in the in-core algorithm (via simjoin/links), and
// summaries are merged greedily by rockcore's goodness measure over their
// pooled representative sets. Two halves of one underlying cluster that
// landed in different shards have mutually similar representatives — a
// near-clique in the neighbor graph, hence many cross links — while
// representatives of unrelated clusters share no neighbors, so the loop
// stops on its own when only genuinely distinct clusters remain (the
// paper's "no cross links" stop condition, lifted to shard granularity).
//
// Returns, for each global cluster, the indices of its member summaries,
// ordered by total member count descending.
func mergeSummaries(sums []summary, simF sim.TxnFunc, theta, fTheta float64, k, workers int) [][]int {
	if len(sums) == 0 {
		return nil
	}

	// Pool the representatives, remembering each one's owning summary.
	var reps []dataset.Transaction
	var owner []int
	for si, s := range sums {
		for _, r := range s.reps {
			reps = append(reps, r)
			owner = append(owner, si)
		}
	}

	nb := simjoin.NewSource(reps, simF).ComputeNeighbors(links.Config{Theta: theta, Workers: workers})
	lists := links.ComputeLists(nb, workers)

	// Cross-link counts between groups of summaries (each group starts as
	// one summary), each unordered rep pair counted once. Links between two
	// reps of the same summary are internal and do not drive merging.
	mk := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	cross := make(map[[2]int]int)
	for p, l := range lists {
		for _, e := range l {
			if q := int(e.ID); q > p && owner[p] != owner[q] {
				cross[mk(owner[p], owner[q])] += int(e.N)
			}
		}
	}

	// Greedy agglomeration over groups of summaries. The cross map is kept
	// at group granularity throughout — when b merges into a, b's edges fold
	// into a's — so each merge costs one O(|cross|) scan, not a rescan of
	// every group pair. At hundreds of shards the summary count C reaches
	// the thousands; anything superlinear in C per merge step dominates the
	// whole pipeline.
	parent := make([]int, len(sums))
	repCount := make([]int, len(sums))
	for i := range parent {
		parent[i] = i
		repCount[i] = len(sums[i].reps)
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	live := len(sums)
	for live > k && len(cross) > 0 {
		// Map iteration order is random, so break goodness ties by pair
		// order to keep merges deterministic across runs.
		bestA, bestB, bestG := -1, -1, 0.0
		for pr, cl := range cross {
			g := rockcore.Goodness(cl, repCount[pr[0]], repCount[pr[1]], fTheta)
			if g > bestG || (g == bestG && bestA >= 0 &&
				(pr[0] < bestA || (pr[0] == bestA && pr[1] < bestB))) {
				bestA, bestB, bestG = pr[0], pr[1], g
			}
		}
		if bestA < 0 {
			break // no cross links left between any two groups
		}
		parent[bestB] = bestA
		repCount[bestA] += repCount[bestB]
		for pr, cl := range cross {
			if pr[0] != bestB && pr[1] != bestB {
				continue
			}
			delete(cross, pr)
			if other := pr[0] + pr[1] - bestB; other != bestA {
				cross[mk(bestA, other)] += cl
			}
		}
		live--
	}

	// Collect groups, largest total member count first (ties by first
	// summary index, keeping the order deterministic).
	byRoot := map[int][]int{}
	for i := range sums {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	type group struct {
		members []int
		size    int
	}
	var groups []group
	for _, members := range byRoot {
		sort.Ints(members)
		size := 0
		for _, si := range members {
			size += sums[si].size
		}
		groups = append(groups, group{members: members, size: size})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].size != groups[j].size {
			return groups[i].size > groups[j].size
		}
		return groups[i].members[0] < groups[j].members[0]
	})
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = g.members
	}
	return out
}
