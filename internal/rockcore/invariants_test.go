package rockcore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rock/internal/links"
)

// TestMergeLoopInvariants steps the merge loop by hand on planted graphs,
// over both link tables, with and without weeding, and checks the heap
// layout after newState, after every merge and after the weed: each linked
// pair of live clusters is a candidate in the newer cluster's local heap
// only, every live cluster's heap top is live, and its global-heap entry is
// that top's goodness and id.
func TestMergeLoopInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var merges, weeds int
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(70)
		nb := plantedGraph(rng, n, 1+rng.Intn(4), 0.2+0.5*rng.Float64(), 0.1*rng.Float64())
		for _, dense := range []int{0, -1} {
			for _, weed := range []bool{false, true} {
				cfg := Config{K: 1 + trial%4, Theta: 0.5, DenseLimit: dense}
				if weed {
					cfg.StopMultiple, cfg.MinClusterSize = 3, 3
				}
				name := fmt.Sprintf("trial %d n=%d dense=%d weed=%v", trial, n, dense, weed)
				table := links.Compute(nb, dense)
				st := newState(table, cfg)
				heapSizes := 0
				for _, c := range st.cs {
					heapSizes += c.heap.Len()
				}
				if heapSizes != st.linkPairs || heapSizes != table.NonZeroPairs() {
					t.Fatalf("%s: Σ heap sizes %d, LinkPairs %d, table pairs %d", name, heapSizes, st.linkPairs, table.NonZeroPairs())
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
		for _, e := range cb.links {
			if int(e.id) < b && st.cs[e.id] != nil && !seen[e.id] {
				t.Fatalf("%s: linked pair (%d, %d) missing from %d's heap", name, e.id, b, b)
			}
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
