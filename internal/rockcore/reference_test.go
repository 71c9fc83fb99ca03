package rockcore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rock/internal/links"
)

// referenceCluster is a naive O(n³) Figure 3: every step scans all live
// cluster pairs for the maximum goodness instead of consulting heaps, and
// cross links live in a pair-keyed map. It applies the same pruning, the
// same weed rule and the same tie-breaking as ClusterNeighbors, so the two
// must agree exactly.
func referenceCluster(nb *links.Neighbors, cfg Config) *Result {
	f := cfg.f()
	res := &Result{F: f}
	n := nb.N()
	res.Stats.Points = n
	if n == 0 {
		return res
	}
	orig := identity(n)
	if cfg.MinNeighbors > 0 {
		if keep, out := nb.FilterMinDegree(cfg.MinNeighbors); len(out) > 0 {
			res.Outliers = append(res.Outliers, out...)
			res.Stats.Pruned = len(out)
			nb = nb.Subset(keep)
			orig = keep
			n = len(keep)
		}
	}
	res.Stats.MaxDegree = nb.MaxDegree()
	res.Stats.AvgDegree = nb.AvgDegree()
	table := links.ComputeNaiveMatrix(nb)
	res.Stats.LinkPairs = table.NonZeroPairs()

	var (
		size, internal []int
		members        [][]int
		alive          []bool
		cross          = make(map[[2]int]int) // pair(a, b) -> links
	)
	pair := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for i := 0; i < n; i++ {
		size = append(size, 1)
		internal = append(internal, 0)
		members = append(members, []int{i})
		alive = append(alive, true)
		for j := i + 1; j < n; j++ {
			if l := table.Get(i, j); l > 0 {
				cross[pair(i, j)] = l
			}
		}
	}
	// g is the goodness of merging a and b (a < b): the older cluster's
	// size comes first, as in the merge loop, because the Eq. 2
	// denominator's floating-point subtraction order matters.
	g := func(l, a, b int) float64 {
		if cfg.RawCrossLinkGoodness {
			return float64(l)
		}
		return Goodness(l, size[a], size[b], f)
	}
	active := n
	weedAt := 0
	if cfg.StopMultiple > 1 && cfg.MinClusterSize > 0 {
		weedAt = int(math.Ceil(cfg.StopMultiple * float64(cfg.K)))
	}
	weed := func() {
		var victims []int
		for id := range size {
			if alive[id] && size[id] < cfg.MinClusterSize {
				victims = append(victims, id)
			}
		}
		if active-len(victims) < cfg.K {
			sort.SliceStable(victims, func(i, j int) bool { return size[victims[i]] < size[victims[j]] })
			victims = victims[:active-cfg.K]
		}
		for _, id := range victims {
			alive[id] = false
			active--
			res.Stats.Weeded += len(members[id])
			for _, m := range members[id] {
				res.Outliers = append(res.Outliers, orig[m])
			}
		}
	}
	for active > cfg.K {
		if weedAt > 0 && active <= weedAt {
			weed()
			weedAt = 0
			continue
		}
		// u is the smallest id taking part in a max-goodness pair and v
		// its smallest max-goodness partner; since u is the smallest
		// participant, every such partner is newer, so this is the
		// lexicographically first max-goodness pair (u, v), u < v.
		u, v, best := -1, -1, math.Inf(-1)
		for a := range size {
			if !alive[a] {
				continue
			}
			for b := a + 1; b < len(size); b++ {
				l := cross[pair(a, b)]
				if !alive[b] || l == 0 {
					continue
				}
				if gab := g(l, a, b); u < 0 || gab > best {
					u, v, best = a, b, gab
				}
			}
		}
		if u < 0 {
			res.Stats.StoppedNoLinks = true
			if weedAt > 0 {
				weed()
			}
			break
		}
		w := len(size)
		l := cross[pair(u, v)]
		size = append(size, size[u]+size[v])
		internal = append(internal, internal[u]+internal[v]+l)
		members = append(members, append(append([]int(nil), members[u]...), members[v]...))
		alive = append(alive, true)
		alive[u], alive[v] = false, false
		for x := 0; x < w; x++ {
			if !alive[x] {
				continue
			}
			if lx := cross[pair(x, u)] + cross[pair(x, v)]; lx > 0 {
				cross[pair(x, w)] = lx
			}
		}
		active--
		res.Stats.Merges++
		if cfg.TraceMerges {
			res.Trace = append(res.Trace, MergeStep{
				Goodness: best, SizeA: size[u], SizeB: size[v],
				InternalA: internal[u], InternalB: internal[v],
				CrossLinks: l, Remaining: active,
			})
		}
	}
	sort.Ints(res.Outliers)

	type finalCluster struct {
		members []int
		stat    ClusterStat
	}
	var finals []finalCluster
	for id := range size {
		if !alive[id] {
			continue
		}
		ms := make([]int, len(members[id]))
		for i, m := range members[id] {
			ms[i] = orig[m]
		}
		sort.Ints(ms)
		term := CriterionTerm(size[id], internal[id], f)
		finals = append(finals, finalCluster{ms, ClusterStat{Size: size[id], InternalLinks: internal[id], CriterionTerm: term}})
		res.Criterion += term
	}
	sort.Slice(finals, func(i, j int) bool {
		a, b := finals[i].members, finals[j].members
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a[0] < b[0]
	})
	for _, fc := range finals {
		res.Clusters = append(res.Clusters, fc.members)
		res.ClusterStats = append(res.ClusterStats, fc.stat)
	}
	return res
}

// plantedGraph returns an n-point neighbor graph with the points split
// round-robin into groups: same-group pairs are neighbors with probability
// pIn, others with pOut. Small integer link counts make goodness ties
// common, which exercises the tie-breaking.
func plantedGraph(rng *rand.Rand, n, groups int, pIn, pOut float64) *links.Neighbors {
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if i%groups == j%groups {
				p = pIn
			}
			if rng.Float64() < p {
				lists[i] = append(lists[i], int32(j))
				lists[j] = append(lists[j], int32(i))
			}
		}
	}
	return &links.Neighbors{Lists: lists}
}

// TestMergeLoopMatchesReference pins the heap-driven merge loop to the naive
// pairwise-scan Figure 3 on random graphs, over one and several link-list
// workers and every option that changes which merges happen or what is
// recorded.
func TestMergeLoopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var pruned, weeded, stopped, merged int
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(90)
		nb := plantedGraph(rng, n, 1+rng.Intn(5), 0.2+0.5*rng.Float64(), 0.1*rng.Float64())
		cfg := Config{
			K:           1 + rng.Intn(6),
			Theta:       0.1 + 0.8*rng.Float64(),
			TraceMerges: rng.Intn(4) != 0,
		}
		cfg.Workers = 1 + 2*rng.Intn(2)
		if rng.Intn(3) == 0 {
			cfg.MinNeighbors = 1 + rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			cfg.StopMultiple = 1.5 + 3*rng.Float64()
			cfg.MinClusterSize = 1 + rng.Intn(6)
		}
		if rng.Intn(4) == 0 {
			cfg.RawCrossLinkGoodness = true
		}
		name := fmt.Sprintf("trial %d n=%d %+v", trial, n, cfg)
		got, err := ClusterNeighbors(nb, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := referenceCluster(nb, cfg)
		got.Stats.Timings = Timings{} // wall-clock, not part of the result's identity
		for _, c := range []struct {
			field     string
			got, want any
		}{
			{"Clusters", got.Clusters, want.Clusters},
			{"ClusterStats", got.ClusterStats, want.ClusterStats},
			{"Outliers", got.Outliers, want.Outliers},
			{"Trace", got.Trace, want.Trace},
			{"Stats", got.Stats, want.Stats},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: %s differ\n got %+v\nwant %+v", name, c.field, c.got, c.want)
			}
		}
		pruned += got.Stats.Pruned
		weeded += got.Stats.Weeded
		merged += got.Stats.Merges
		if got.Stats.StoppedNoLinks {
			stopped++
		}
	}
	// The trials must reach every mechanism the comparison is meant to pin.
	if pruned == 0 || weeded == 0 || stopped == 0 || merged == 0 {
		t.Fatalf("trials too narrow: pruned %d, weeded %d, stopped-no-links %d, merges %d", pruned, weeded, stopped, merged)
	}
}

// TestLinkPairsMatchesTable: Stats.LinkPairs, counted from the link lists
// the merge loop builds, equals the link table's own count at every
// worker count.
func TestLinkPairsMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nb := plantedGraph(rng, 80, 3, 0.4, 0.05)
	want := links.Compute(nb, -1).NonZeroPairs()
	for _, workers := range []int{1, 2, 7} {
		res, err := ClusterNeighbors(nb, Config{K: 3, Theta: 0.5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.LinkPairs != want || want == 0 {
			t.Fatalf("workers %d: LinkPairs = %d, table has %d", workers, res.Stats.LinkPairs, want)
		}
	}
}
