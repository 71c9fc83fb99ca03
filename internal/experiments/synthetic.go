package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rock"
	"rock/internal/assign"
	"rock/internal/datagen"
	"rock/internal/sample"
)

// Table5Result describes the generated synthetic market-basket data set.
type Table5Result struct {
	ClusterSizes []int
	ClusterItems []int
	Outliers     int
	TotalItems   int
	Transactions int
}

func (r *Table5Result) String() string {
	var b strings.Builder
	b.WriteString("Cluster No.")
	for i := range r.ClusterSizes {
		fmt.Fprintf(&b, "\t%d", i+1)
	}
	b.WriteString("\tOutliers\nNo. of Transactions")
	for _, s := range r.ClusterSizes {
		fmt.Fprintf(&b, "\t%d", s)
	}
	fmt.Fprintf(&b, "\t%d\nNo. of Items", r.Outliers)
	for _, s := range r.ClusterItems {
		fmt.Fprintf(&b, "\t%d", s)
	}
	fmt.Fprintf(&b, "\t%d\n", r.TotalItems)
	fmt.Fprintf(&b, "(total transactions: %d)\n", r.Transactions)
	return b.String()
}

// Table5 generates the Section 5.3 synthetic data set and reports its
// parameters (paper Table 5).
func Table5(seed int64) *Table5Result {
	d := datagen.Basket(datagen.DefaultBasketConfig(), rand.New(rand.NewSource(seed)))
	counts := make(map[int]int)
	for _, l := range d.Labels {
		counts[l]++
	}
	res := &Table5Result{
		Outliers:     counts[datagen.OutlierLabel],
		TotalItems:   d.NumItems,
		Transactions: len(d.Txns),
	}
	for c := 0; c < d.NumClusters(); c++ {
		res.ClusterSizes = append(res.ClusterSizes, counts[c])
		res.ClusterItems = append(res.ClusterItems, len(d.Defining[c]))
	}
	return res
}

// SyntheticPipelineConfig builds the pipeline configuration used by the
// Table 6 and Figure 5 experiments for a given sample size and theta.
func SyntheticPipelineConfig(sampleSize int, theta float64, seed int64) rock.PipelineConfig {
	return rock.PipelineConfig{
		Cluster: rock.Config{
			K:     10,
			Theta: theta,
			// Pruning and weeding per Section 4.6: isolated sampled
			// points are discarded, and clusters with support below 1%
			// of the sample are weeded at 3x the target cluster count.
			MinNeighbors:   2,
			StopMultiple:   3,
			MinClusterSize: sampleSize / 100,
			// Clustering ignores DenseLimit (it builds no link table);
			// perfbench's link probe reads it to pick the table it
			// times.
			DenseLimit: 8192,
		},
		SampleSize:    sampleSize,
		LabelFraction: 0.25,
		Seed:          seed,
	}
}

// Table6Cell is one measurement: misclassified transactions for a sample
// size and theta.
type Table6Cell struct {
	SampleSize    int
	Theta         float64
	Misclassified int
	Clusters      int
}

// Table6Result holds the misclassification table (paper Table 6).
type Table6Result struct {
	SampleSizes []int
	Thetas      []float64
	Cells       map[float64][]Table6Cell // by theta, in sample-size order
	Total       int                      // transactions in the data set
}

func (r *Table6Result) String() string {
	var b strings.Builder
	b.WriteString("Sample Size")
	for _, s := range r.SampleSizes {
		fmt.Fprintf(&b, "\t%d", s)
	}
	b.WriteByte('\n')
	for _, th := range r.Thetas {
		fmt.Fprintf(&b, "theta = %.1f", th)
		for _, c := range r.Cells[th] {
			fmt.Fprintf(&b, "\t%d", c.Misclassified)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(of %d cluster transactions)\n", r.Total)
	return b.String()
}

// Table6 runs the full pipeline (sample, cluster, label) on the synthetic
// data set for each sample size and theta, and counts misclassified
// transactions: a transaction belonging to a true cluster is misclassified
// when it is not assigned to the found cluster optimally matched (Hungarian
// assignment over the overlap matrix) to its true cluster. True outliers
// are not counted, as in the paper.
func Table6(seed int64, sampleSizes []int, thetas []float64) (*Table6Result, error) {
	d := datagen.Basket(datagen.DefaultBasketConfig(), rand.New(rand.NewSource(seed)))
	res := &Table6Result{
		SampleSizes: sampleSizes,
		Thetas:      thetas,
		Cells:       make(map[float64][]Table6Cell),
	}
	for _, l := range d.Labels {
		if l != datagen.OutlierLabel {
			res.Total++
		}
	}
	for _, th := range thetas {
		for _, s := range sampleSizes {
			lr, err := rock.ClusterLarge(d.Txns, SyntheticPipelineConfig(s, th, seed))
			if err != nil {
				return nil, err
			}
			mis := CountMisclassified(lr.Assign, d.Labels, len(lr.SampleResult.Clusters), d.NumClusters())
			res.Cells[th] = append(res.Cells[th], Table6Cell{
				SampleSize: s, Theta: th, Misclassified: mis,
				Clusters: len(lr.SampleResult.Clusters),
			})
		}
	}
	return res, nil
}

// CountMisclassified counts true-cluster transactions assigned to the wrong
// found cluster under the optimal found↔true matching.
func CountMisclassified(assigned, labels []int, foundK, trueK int) int {
	overlap := make([][]int, foundK)
	for i := range overlap {
		overlap[i] = make([]int, trueK)
	}
	for p, c := range assigned {
		if c >= 0 && labels[p] >= 0 {
			overlap[c][labels[p]]++
		}
	}
	match, _ := assign.MaxOverlap(overlap)
	foundFor := make([]int, trueK)
	for i := range foundFor {
		foundFor[i] = -1
	}
	for f, t := range match {
		if t >= 0 {
			foundFor[t] = f
		}
	}
	mis := 0
	for p, l := range labels {
		if l < 0 {
			continue
		}
		if assigned[p] < 0 || assigned[p] != foundFor[l] {
			mis++
		}
	}
	return mis
}

// Figure5Point is one scalability measurement.
type Figure5Point struct {
	SampleSize int
	Theta      float64
	Elapsed    time.Duration
}

// Figure5Result holds the runtime-vs-sample-size series (paper Figure 5).
type Figure5Result struct {
	SampleSizes []int
	Thetas      []float64
	Points      map[float64][]Figure5Point
}

func (r *Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Sample size")
	for _, s := range r.SampleSizes {
		fmt.Fprintf(&b, "\t%d", s)
	}
	b.WriteString("\n")
	for _, th := range r.Thetas {
		fmt.Fprintf(&b, "theta = %.2f", th)
		for _, p := range r.Points[th] {
			fmt.Fprintf(&b, "\t%.2fs", p.Elapsed.Seconds())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure5 measures the time to cluster random samples of the synthetic data
// set, for several sample sizes and theta settings. As in the paper, the
// labeling phase is excluded and larger theta values run faster (fewer
// neighbors). The measured shape should be roughly quadratic in the sample
// size. Workers is fixed to 1 to reproduce the paper's sequential setting.
func Figure5(seed int64, sampleSizes []int, thetas []float64) (*Figure5Result, error) {
	d := datagen.Basket(datagen.DefaultBasketConfig(), rand.New(rand.NewSource(seed)))
	res := &Figure5Result{
		SampleSizes: sampleSizes,
		Thetas:      thetas,
		Points:      make(map[float64][]Figure5Point),
	}
	for _, th := range thetas {
		for _, s := range sampleSizes {
			cfg := SyntheticPipelineConfig(s, th, seed)
			cfg.Cluster.Workers = 1
			rng := rand.New(rand.NewSource(seed))
			idx := sample.Indices(len(d.Txns), s, rng)
			sub := make([]rock.Transaction, len(idx))
			for i, p := range idx {
				sub[i] = d.Txns[p]
			}
			start := time.Now()
			if _, err := rock.ClusterTransactions(sub, cfg.Cluster); err != nil {
				return nil, err
			}
			res.Points[th] = append(res.Points[th], Figure5Point{
				SampleSize: s, Theta: th, Elapsed: time.Since(start),
			})
		}
	}
	return res, nil
}

// QuadraticFit reports, for one theta series, the ratio of each timing to a
// quadratic extrapolation from the first point — near 1.0 means the
// quadratic shape of Figure 5 holds.
func QuadraticFit(points []Figure5Point) []float64 {
	if len(points) == 0 {
		return nil
	}
	base := points[0]
	out := make([]float64, len(points))
	for i, p := range points {
		scale := float64(p.SampleSize) / float64(base.SampleSize)
		expect := base.Elapsed.Seconds() * scale * scale
		out[i] = p.Elapsed.Seconds() / expect
	}
	return out
}

// DefaultTable6SampleSizes and DefaultFigure5Thetas mirror the paper.
var (
	DefaultTable6SampleSizes = []int{1000, 2000, 3000, 4000, 5000}
	DefaultTable6Thetas      = []float64{0.5, 0.6}
	DefaultFigure5Thetas     = []float64{0.5, 0.6, 0.7, 0.8}
)
