package rockcore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rock/internal/links"
)

// TestMergeLoopInvariants steps the merge loop by hand on planted graphs,
// with and without weeding, and checks the heap layout after newState,
// after every merge and after the weed: each linked pair of live clusters
// is a candidate in the newer cluster's local heap only, every live
// cluster's heap top is live, and its global-heap entry is that top's
// goodness and id.
func TestMergeLoopInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var merges, weeds int
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(70)
		nb := plantedGraph(rng, n, 1+rng.Intn(4), 0.2+0.5*rng.Float64(), 0.1*rng.Float64())
		// A table built here is the independent count the heaps are
		// checked against.
		tablePairs := links.Compute(nb, links.DefaultDenseLimit).NonZeroPairs()
		for _, workers := range []int{1, 3} {
			for _, weed := range []bool{false, true} {
				cfg := Config{K: 1 + trial%4, Theta: 0.5, Workers: workers}
				if weed {
					cfg.StopMultiple, cfg.MinClusterSize = 3, 3
				}
				name := fmt.Sprintf("trial %d n=%d workers=%d weed=%v", trial, n, workers, weed)
				st := newState(links.ComputeLists(nb, workers), cfg)
				heapSizes := 0
				for _, c := range st.cs {
					heapSizes += c.heap.Len()
				}
				if heapSizes != st.linkPairs || heapSizes != tablePairs {
					t.Fatalf("%s: Σ heap sizes %d, LinkPairs %d, table pairs %d", name, heapSizes, st.linkPairs, tablePairs)
				}
				checkMergeState(t, name+" after newState", st)

				// The loop of state.run, one step at a time.
				weedNow := func() {
					st.weed()
					st.weedAt = 0
					weeds++
					checkMergeState(t, name+" after weed", st)
				}
				for st.activeCount > cfg.K {
					if st.weedAt > 0 && st.activeCount <= st.weedAt {
						weedNow()
						continue
					}
					v, pri, u, ok := st.global.Max()
					if !ok || math.IsInf(pri, -1) {
						if st.weedAt > 0 {
							weedNow()
						}
						break
					}
					st.merge(u, v, pri)
					merges++
					checkMergeState(t, fmt.Sprintf("%s after merge %d", name, st.merges), st)
				}

				res, err := ClusterNeighbors(nb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Merges != st.merges || res.Stats.Weeded != len(st.weeded) {
					t.Fatalf("%s: stepped %d merges, %d weeded; run did %d, %d", name, st.merges, len(st.weeded), res.Stats.Merges, res.Stats.Weeded)
				}
			}
		}
	}
	if merges == 0 || weeds == 0 {
		t.Fatalf("trials too narrow: %d merges, %d weeds", merges, weeds)
	}
}

// checkMergeState asserts the one-sided heap invariants on every live
// cluster of st.
func checkMergeState(t *testing.T, name string, st *state) {
	t.Helper()
	for b, cb := range st.cs {
		if cb == nil {
			continue
		}
		seen := make(map[int32]bool)
		for _, e := range cb.heap.Entries() {
			if int(e.Key) >= b {
				t.Fatalf("%s: cluster %d's heap holds cluster %d, not older", name, b, e.Key)
			}
			ca := st.cs[e.Key]
			if ca == nil {
				continue
			}
			if seen[e.Key] {
				t.Fatalf("%s: cluster %d's heap holds live cluster %d twice", name, b, e.Key)
			}
			seen[e.Key] = true
			l := cb.linksTo(int(e.Key))
			if l == 0 || ca.linksTo(b) != l {
				t.Fatalf("%s: pair (%d, %d) in heap with links %d / %d", name, e.Key, b, ca.linksTo(b), l)
			}
			if want := st.goodness(l, ca.size, cb.size); e.Pri != want {
				t.Fatalf("%s: pair (%d, %d) goodness %v, want %v", name, e.Key, b, e.Pri, want)
			}
		}
		dead := 0
		for _, e := range cb.links {
			if st.cs[e.ID] == nil {
				dead++
			}
			if int(e.ID) < b && st.cs[e.ID] != nil && !seen[e.ID] {
				t.Fatalf("%s: linked pair (%d, %d) missing from %d's heap", name, e.ID, b, b)
			}
		}
		if dead != cb.dead {
			t.Fatalf("%s: cluster %d's list holds %d dead entries, counted %d", name, b, dead, cb.dead)
		}

		pri, partner, ok := st.global.Priority(b)
		if !ok {
			t.Fatalf("%s: live cluster %d missing from Q", name, b)
		}
		top, has := cb.heap.Top()
		switch {
		case !has:
			if !math.IsInf(pri, -1) || partner != -1 {
				t.Fatalf("%s: cluster %d has an empty heap but Q entry (%v, %d)", name, b, pri, partner)
			}
		case st.cs[top.Key] == nil:
			t.Fatalf("%s: cluster %d's heap top %d is dead", name, b, top.Key)
		case pri != top.Pri || partner != int(top.Key):
			t.Fatalf("%s: cluster %d's Q entry (%v, %d), heap top (%v, %d)", name, b, pri, partner, top.Pri, top.Key)
		}
	}
	if st.global.Len() != st.activeCount {
		t.Fatalf("%s: Q holds %d entries for %d live clusters", name, st.global.Len(), st.activeCount)
	}
}
