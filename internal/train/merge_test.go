package train

import (
	"math/rand"
	"testing"

	"rock/internal/dataset"
	"rock/internal/sim"
)

// syntheticSummaries fabricates perShard summaries for each of k well
// separated "true clusters": cluster c owns items [c*100, c*100+30) and each
// summary's representatives are random 25-item subsets of that range, so
// same-cluster reps are Jaccard ≈ 0.7 neighbors at theta 0.5 while reps of
// different clusters share nothing.
func syntheticSummaries(k, perCluster, numRep int, rng *rand.Rand) []summary {
	var sums []summary
	for c := 0; c < k; c++ {
		base := c * 100
		for s := 0; s < perCluster; s++ {
			sum := summary{shard: s, size: 50 + rng.Intn(50)}
			for r := 0; r < numRep; r++ {
				var t dataset.Transaction
				for _, off := range rng.Perm(30)[:25] {
					t = append(t, dataset.Item(base+off))
				}
				t.Normalize()
				sum.reps = append(sum.reps, t)
			}
			sums = append(sums, sum)
		}
	}
	// Interleave clusters the way shard completion would.
	rng.Shuffle(len(sums), func(i, j int) { sums[i], sums[j] = sums[j], sums[i] })
	return sums
}

// TestMergeAllHierarchical drives mergeAll past mergeFan (500 summaries,
// two recursion levels) and requires the hierarchy to reproduce the exact
// partition: every summary grouped with all of its true cluster and nothing
// else.
func TestMergeAllHierarchical(t *testing.T) {
	const k, perCluster, numRep = 5, 100, 4
	rng := rand.New(rand.NewSource(9))
	sums := syntheticSummaries(k, perCluster, numRep, rng)
	if len(sums) <= mergeFan {
		t.Fatalf("test corpus %d summaries does not exceed mergeFan %d", len(sums), mergeFan)
	}
	simF := sim.Jaccard
	fTheta := 0.5 / 1.5 // f(0.5) = (1-0.5)/(1+0.5)
	groups := mergeAll(sums, simF, 0.5, fTheta, k, 1, numRep, rand.New(rand.NewSource(1)))
	if len(groups) != k {
		t.Fatalf("merged into %d groups, want %d", len(groups), k)
	}
	seen := 0
	for _, g := range groups {
		if len(g) != perCluster {
			t.Fatalf("group size %d, want %d", len(g), perCluster)
		}
		item := int(sums[g[0]].reps[0][0]) / 100
		for _, si := range g {
			for _, r := range sums[si].reps {
				if int(r[0])/100 != item {
					t.Fatalf("summary %d (cluster %d) grouped with cluster %d", si, int(r[0])/100, item)
				}
			}
		}
		seen += len(g)
	}
	if seen != len(sums) {
		t.Fatalf("groups cover %d summaries, want %d", seen, len(sums))
	}
}

// TestMergeAllMatchesDirect checks the hierarchy agrees with a flat merge
// on an input below the fan.
func TestMergeAllMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sums := syntheticSummaries(4, 20, 4, rng)
	fTheta := 0.5 / 1.5
	direct := mergeSummaries(sums, sim.Jaccard, 0.5, fTheta, 4, 1)
	all := mergeAll(sums, sim.Jaccard, 0.5, fTheta, 4, 1, 4, rand.New(rand.NewSource(1)))
	if len(direct) != len(all) {
		t.Fatalf("direct %d groups, mergeAll %d", len(direct), len(all))
	}
	for i := range direct {
		if len(direct[i]) != len(all[i]) {
			t.Fatalf("group %d: direct %d members, mergeAll %d", i, len(direct[i]), len(all[i]))
		}
		for j := range direct[i] {
			if direct[i][j] != all[i][j] {
				t.Fatalf("group %d differs at %d: %d vs %d", i, j, direct[i][j], all[i][j])
			}
		}
	}
}
