// Package experiments reproduces every table and figure of the ROCK paper's
// evaluation (Section 5). Each experiment is a function returning a
// structured result with a formatted rendering; the cmd/rockexp harness
// prints them, the integration tests assert their shapes, and the root
// benchmark suite times them. All experiments are deterministic given the
// seed.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/eval"
	"rock/internal/hier"
	"rock/internal/rockcore"
	"rock/internal/sim"
	"rock/internal/timeseries"
)

// DefaultSeed is the seed every experiment uses unless overridden; the
// numbers recorded in EXPERIMENTS.md are produced with it.
const DefaultSeed = 1

// Experiment parameter sets, mirroring Section 5.
var (
	// VotesROCKConfig is the Table 2 ROCK configuration: theta = 0.73 as
	// in the paper, neighbor pruning and small-cluster weeding per
	// Section 4.6.
	VotesROCKConfig = rockcore.Config{
		K: 2, Theta: 0.73,
		MinNeighbors: 2, StopMultiple: 5, MinClusterSize: 50,
	}
	// MushroomROCKConfig is the Table 3 configuration: theta = 0.8, 20
	// desired clusters (ROCK stops at 21 when links run out, as in the
	// paper). Clustering ignores DenseLimit; perfbench's link probe reads
	// it to pick the table it times.
	MushroomROCKConfig = rockcore.Config{
		K: 20, Theta: 0.8, DenseLimit: 10000,
	}
	// FundsROCKConfig is the Table 4 configuration: theta = 0.8 with
	// pruning of isolated funds and weeding of singleton clusters.
	FundsROCKConfig = rockcore.Config{
		K: 16, Theta: 0.8,
		MinNeighbors: 1, StopMultiple: 3, MinClusterSize: 2,
	}
)

// Composition is one algorithm's clustering of a labeled data set.
type Composition struct {
	// Rows counts members per (cluster, class).
	Rows [][]int
	// ClassNames indexes the columns.
	ClassNames []string
	// Outliers is the number of points discarded by outlier handling.
	Outliers int
}

// Pure returns the number of single-class clusters.
func (c *Composition) Pure() int {
	pure := 0
	for _, row := range c.Rows {
		nz := 0
		for _, v := range row {
			if v > 0 {
				nz++
			}
		}
		if nz == 1 {
			pure++
		}
	}
	return pure
}

// Sizes returns the cluster sizes in row order.
func (c *Composition) Sizes() []int {
	out := make([]int, len(c.Rows))
	for i, row := range c.Rows {
		for _, v := range row {
			out[i] += v
		}
	}
	return out
}

func (c *Composition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster No")
	for _, n := range c.ClassNames {
		fmt.Fprintf(&b, "\tNo of %s", n)
	}
	b.WriteByte('\n')
	for i, row := range c.Rows {
		fmt.Fprintf(&b, "%d", i+1)
		for _, v := range row {
			fmt.Fprintf(&b, "\t%d", v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(outliers discarded: %d)\n", c.Outliers)
	return b.String()
}

func composition(clusters [][]int, outliers int, labels []int, classNames []string) *Composition {
	return &Composition{
		Rows:       eval.Composition(clusters, labels, len(classNames)),
		ClassNames: classNames,
		Outliers:   outliers,
	}
}

// Table1Row describes one data set as in the paper's Table 1.
type Table1Row struct {
	Name          string
	Records       int
	Attributes    int
	MissingValues string
	Note          string
}

// Table1Result lists the three "real-life" data sets.
type Table1Result struct{ Rows []Table1Row }

func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Data Set\tNo of Records\tNo of Attributes\tMissing Values\tNote\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s\t%d\t%d\t%s\t%s\n", row.Name, row.Records, row.Attributes, row.MissingValues, row.Note)
	}
	return b.String()
}

// Table1 generates the three data sets and reports their characteristics.
func Table1(seed int64) *Table1Result {
	votes := datagen.Votes(datagen.DefaultVotesConfig(), rand.New(rand.NewSource(seed)))
	mush := datagen.Mushroom(datagen.DefaultMushroomConfig(), rand.New(rand.NewSource(seed)))
	funds := datagen.Funds(datagen.DefaultFundsConfig(), rand.New(rand.NewSource(seed)))

	rep := 0
	for _, l := range votes.Labels {
		if l == datagen.Republican {
			rep++
		}
	}
	ed := 0
	for _, l := range mush.Labels {
		if l == datagen.Edible {
			ed++
		}
	}
	return &Table1Result{Rows: []Table1Row{
		{
			Name: "Congressional Votes", Records: len(votes.Records),
			Attributes:    votes.Schema.NumAttrs(),
			MissingValues: "Yes (very few)",
			Note:          fmt.Sprintf("%d Republicans and %d Democrats", rep, len(votes.Records)-rep),
		},
		{
			Name: "Mushroom", Records: len(mush.Records),
			Attributes:    mush.Schema.NumAttrs(),
			MissingValues: "Yes (very few)",
			Note:          fmt.Sprintf("%d edible and %d poisonous", ed, len(mush.Records)-ed),
		},
		{
			Name: "U.S. Mutual Fund", Records: len(funds.Series),
			Attributes:    funds.Days - 1,
			MissingValues: "Yes",
			Note:          "Jan 4, 1993 - Mar 3, 1995",
		},
	}}
}

// Table2Result holds the congressional-votes comparison.
type Table2Result struct {
	Traditional *Composition
	ROCK        *Composition
}

func (r *Table2Result) String() string {
	return "Traditional Hierarchical Clustering Algorithm\n" + r.Traditional.String() +
		"\nROCK\n" + r.ROCK.String()
}

// Table2 clusters the votes data with the traditional centroid-based
// algorithm and with ROCK at theta = 0.73 (paper Section 5.2, Table 2).
func Table2(seed int64) (*Table2Result, error) {
	vd := datagen.Votes(datagen.DefaultVotesConfig(), rand.New(rand.NewSource(seed)))
	enc := dataset.NewEncoder(vd.Schema)

	txns := enc.EncodeAll(vd.Records)
	res, err := rockcore.Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), VotesROCKConfig)
	if err != nil {
		return nil, err
	}

	vecs := make([][]float64, len(vd.Records))
	for i, r := range vd.Records {
		vecs[i] = enc.BooleanVector(r)
	}
	tres, err := hier.CentroidClusterVectors(vecs, 2)
	if err != nil {
		return nil, err
	}

	return &Table2Result{
		Traditional: composition(tres.Clusters, len(tres.Outliers), vd.Labels, datagen.VoteClassNames),
		ROCK:        composition(res.Clusters, len(res.Outliers), vd.Labels, datagen.VoteClassNames),
	}, nil
}

// Table3Result holds the mushroom comparison.
type Table3Result struct {
	Traditional *Composition
	ROCK        *Composition
}

func (r *Table3Result) String() string {
	return "Traditional Hierarchical Algorithm\n" + r.Traditional.String() +
		"\nROCK\n" + r.ROCK.String()
}

// Table3 clusters the mushroom data with both algorithms (paper Table 3):
// ROCK at theta = 0.8 with K = 20 (expecting 21 clusters, no links left),
// the traditional algorithm on boolean vectors with K = 20.
func Table3(seed int64) (*Table3Result, error) {
	md := datagen.Mushroom(datagen.DefaultMushroomConfig(), rand.New(rand.NewSource(seed)))
	enc := dataset.NewEncoder(md.Schema)

	txns := enc.EncodeAll(md.Records)
	res, err := rockcore.Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), MushroomROCKConfig)
	if err != nil {
		return nil, err
	}

	vecs := make([][]float64, len(md.Records))
	for i, r := range md.Records {
		vecs[i] = enc.BooleanVector(r)
	}
	tres, err := hier.CentroidClusterVectors(vecs, 20)
	if err != nil {
		return nil, err
	}

	return &Table3Result{
		Traditional: composition(tres.Clusters, len(tres.Outliers), md.Labels, datagen.MushroomClassNames),
		ROCK:        composition(res.Clusters, len(res.Outliers), md.Labels, datagen.MushroomClassNames),
	}, nil
}

// Table4Cluster is one discovered fund cluster.
type Table4Cluster struct {
	Name  string // majority true group, or "(outlier funds)"
	Size  int
	Funds []string // fund names, truncated for display
	Pure  bool
}

// Table4Result holds the mutual-fund clustering.
type Table4Result struct {
	// Big lists clusters with more than 3 members, as the paper's Table 4
	// does; Pairs lists the small clusters that contain both funds of one
	// of the generated two-fund groups (the paper's "24 clusters of size
	// 2").
	Big   []Table4Cluster
	Pairs []Table4Cluster
	// IntactPairs counts generated pairs kept together in one cluster.
	IntactPairs int
	Outliers    int
}

func (r *Table4Result) String() string {
	var b strings.Builder
	b.WriteString("Cluster Name\tNumber of Funds\tFunds\n")
	for _, c := range r.Big {
		fmt.Fprintf(&b, "%s\t%d\t%s\n", c.Name, c.Size, strings.Join(c.Funds, " "))
	}
	fmt.Fprintf(&b, "\nPair clusters (paper: 24 clusters of size 2): %d of 24 pairs intact\n", r.IntactPairs)
	for _, c := range r.Pairs {
		fmt.Fprintf(&b, "%s\t%d\t%s\n", c.Name, c.Size, strings.Join(c.Funds, " "))
	}
	fmt.Fprintf(&b, "(outlier funds discarded: %d)\n", r.Outliers)
	return b.String()
}

// Table4 clusters the mutual-fund time series with ROCK at theta = 0.8
// under the pairwise-common-attributes similarity (Section 3.1.2). The
// traditional algorithm is not run: as the paper notes, it cannot handle
// the missing values of young funds.
func Table4(seed int64) (*Table4Result, error) {
	fd := datagen.Funds(datagen.DefaultFundsConfig(), rand.New(rand.NewSource(seed)))
	recs := timeseries.DiscretizeAll(fd.Series)
	res, err := rockcore.Cluster(len(recs), sim.RecordsPairwise(recs), FundsROCKConfig)
	if err != nil {
		return nil, err
	}

	out := &Table4Result{Outliers: len(res.Outliers)}
	seenPair := make(map[int]bool)
	for _, members := range res.Clusters {
		counts := make(map[int]int)
		for _, p := range members {
			counts[fd.Labels[p]]++
		}
		maj, majN := datagen.OutlierLabel, -1
		nz := 0
		for g, c := range counts {
			nz++
			if c > majN || (c == majN && g > maj) {
				maj, majN = g, c
			}
		}
		name := "(outlier funds)"
		if maj >= 0 {
			name = fd.GroupNames[maj]
		}
		funds := make([]string, 0, 4)
		for _, p := range members[:minInt(4, len(members))] {
			funds = append(funds, fd.Names[p])
		}
		if len(members) > 4 {
			funds = append(funds, "et al.")
		}
		c := Table4Cluster{Name: name, Size: len(members), Funds: funds, Pure: nz == 1}
		// A pair cluster contains both funds of one generated two-fund
		// group (possibly with a loosely-tracking satellite or two).
		isPair := false
		for g, cnt := range counts {
			if g >= 0 && cnt == 2 && strings.HasPrefix(fd.GroupNames[g], "Pair:") && !seenPair[g] {
				seenPair[g] = true
				out.IntactPairs++
				isPair = true
				break
			}
		}
		switch {
		case isPair:
			out.Pairs = append(out.Pairs, c)
		case len(members) >= 3:
			// The paper's Table 4 presents "the 16 clusters whose size
			// exceeded 3" but itself lists two 3-fund clusters (Financial
			// Service, Bonds 6); we include size-3 clusters likewise.
			out.Big = append(out.Big, c)
		}
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
