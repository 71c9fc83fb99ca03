package links_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/links"
	"rock/internal/sim"
	"rock/internal/simjoin"
)

// plantedNeighbors returns a symmetric, sorted neighbor graph on n points
// in `blocks` planted groups: pairs inside a group are adjacent with
// probability pIn, pairs across groups with pOut, and every point with
// i%7 == 3 is isolated.
func plantedNeighbors(rng *rand.Rand, n, blocks int, pIn, pOut float64) *links.Neighbors {
	lists := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i%7 == 3 || j%7 == 3 {
				continue
			}
			p := pOut
			if i%blocks == j%blocks {
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

// TestLinkListsMatchTable: every point's link list from ComputeLists holds
// exactly the dense table's row, as DenseTable.ForEach visits it (ids,
// ascending order, counts), at every worker count including more workers
// than points, and the lists hold each linked pair twice.
func TestLinkListsMatchTable(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cases := map[string]*links.Neighbors{
		"n=0":           {Lists: [][]int32{}},
		"n=1":           {Lists: [][]int32{nil}},
		"n=2 apart":     {Lists: [][]int32{nil, nil}},
		"n=2 adjacent":  {Lists: [][]int32{{1}, {0}}},
		"path+isolated": {Lists: [][]int32{{1}, {0, 2}, {1}, nil}},
	}
	for k := 0; k < 6; k++ {
		n := 10 + rng.Intn(120)
		cases[fmt.Sprintf("planted %d n=%d", k, n)] = plantedNeighbors(rng, n, 1+rng.Intn(5), 0.2+0.6*rng.Float64(), 0.1*rng.Float64())
	}
	if !testing.Short() {
		md := datagen.Mushroom(datagen.DefaultMushroomConfig(), rand.New(rand.NewSource(1)))
		txns := dataset.NewEncoder(md.Schema).EncodeAll(md.Records)
		cases["table3 theta=0.8"] = simjoin.NewSource(txns, sim.Jaccard).ComputeNeighbors(links.Config{Theta: 0.8})
	}
	for name, nb := range cases {
		n := nb.N()
		table := links.Compute(nb, n).(*links.DenseTable)
		want := make([][]links.Link, n)
		for i := range want {
			table.ForEach(i, func(j, l int) {
				want[i] = append(want[i], links.Link{ID: int32(j), N: int32(l)})
			})
		}
		for _, workers := range []int{1, 2, 7} {
			got := links.ComputeLists(nb, workers)
			if len(got) != n {
				t.Fatalf("%s workers=%d: %d lists for %d points", name, workers, len(got), n)
			}
			entries := 0
			for i := range got {
				if len(got[i]) != len(want[i]) || (len(want[i]) > 0 && !reflect.DeepEqual(got[i], want[i])) {
					t.Fatalf("%s workers=%d: point %d's list %v, table row %v", name, workers, i, got[i], want[i])
				}
				entries += len(got[i])
			}
			if entries != 2*table.NonZeroPairs() {
				t.Fatalf("%s workers=%d: %d list entries, table has %d pairs", name, workers, entries, table.NonZeroPairs())
			}
		}
	}
}
