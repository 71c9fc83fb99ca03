package rock_test

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rock"
	"rock/internal/datagen"
	"rock/internal/store"
)

// figure1 builds the paper's Figure 1 data through the public API.
func figure1() (txns []rock.Transaction, labels []int) {
	add := func(items []rock.Item, label int) {
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				for k := j + 1; k < len(items); k++ {
					txns = append(txns, rock.NewTransaction(items[i], items[j], items[k]))
					labels = append(labels, label)
				}
			}
		}
	}
	add([]rock.Item{1, 2, 3, 4, 5}, 0)
	add([]rock.Item{1, 2, 6, 7}, 1)
	return txns, labels
}

func TestClusterTransactions(t *testing.T) {
	txns, labels := figure1()
	res, err := rock.ClusterTransactions(txns, rock.Config{
		K: 2, Theta: 0.5,
		F: func(float64) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	for _, c := range res.Clusters {
		l := labels[c[0]]
		for _, p := range c {
			if labels[p] != l {
				t.Fatalf("mixed cluster %v", c)
			}
		}
	}
}

func TestClusterRecords(t *testing.T) {
	schema := rock.Schema{Attrs: []rock.Attribute{
		{Name: "a", Domain: []string{"x", "y"}},
		{Name: "b", Domain: []string{"x", "y"}},
		{Name: "c", Domain: []string{"x", "y"}},
	}}
	records := []rock.Record{
		{0, 0, 0}, {0, 0, 1}, {0, 1, 0},
		{1, 1, 1}, {1, 1, 0}, {1, 0, 1},
	}
	res, err := rock.ClusterRecords(&schema, records, rock.Config{K: 2, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
}

func TestClusterRecordsNilSchema(t *testing.T) {
	if _, err := rock.ClusterRecords(nil, nil, rock.Config{K: 1, Theta: 0.5}); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestClusterRecordsPairwise(t *testing.T) {
	// Two groups distinguishable only on attributes present in both
	// records of a pair.
	const m = rock.MissingValue
	records := []rock.Record{
		{0, 0, 0, m}, {0, 0, m, 0}, {m, 0, 0, 0},
		{1, 1, 1, m}, {1, 1, m, 1}, {m, 1, 1, 1},
	}
	res, err := rock.ClusterRecordsPairwise(records, rock.Config{K: 2, Theta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 || len(res.Clusters[0]) != 3 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
}

func TestClusterSimWithExpertTable(t *testing.T) {
	// A similarity table splitting 6 points into two triangles.
	simf := func(i, j int) float64 {
		if (i < 3) == (j < 3) {
			return 0.9
		}
		return 0.1
	}
	res, err := rock.ClusterSim(6, simf, rock.Config{K: 2, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 || len(res.Clusters[0]) != 3 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
}

func TestCustomSimilarity(t *testing.T) {
	txns := []rock.Transaction{
		rock.NewTransaction(1, 2), rock.NewTransaction(1, 2, 3), rock.NewTransaction(1, 2, 4),
		rock.NewTransaction(9), rock.NewTransaction(9, 8), rock.NewTransaction(9, 7),
	}
	res, err := rock.ClusterTransactions(txns, rock.Config{
		K: 2, Theta: 0.5, Similarity: rock.Overlap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
}

func TestDefaultF(t *testing.T) {
	if rock.DefaultF(0.5) != 1.0/3 {
		t.Fatalf("DefaultF(0.5) = %v", rock.DefaultF(0.5))
	}
}

func basketTestData(t *testing.T) *datagen.BasketData {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	return datagen.Basket(datagen.ScaledBasketConfig(50), rng)
}

func pipelineCfg(sampleSize int) rock.PipelineConfig {
	return rock.PipelineConfig{
		Cluster: rock.Config{
			K: 10, Theta: 0.5,
			MinNeighbors: 2, StopMultiple: 3, MinClusterSize: sampleSize / 100,
		},
		SampleSize: sampleSize,
		Seed:       7,
	}
}

// TestStatsTimings checks the per-phase durations a run reports: each is
// non-negative, the neighbor phase is timed, and the phases together take
// no longer than the call that ran them.
func TestStatsTimings(t *testing.T) {
	txns := basketTestData(t).Txns[:800]
	cfg := pipelineCfg(len(txns)).Cluster
	start := time.Now()
	res, err := rock.ClusterTransactions(txns, cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Merges == 0 || st.Weeded == 0 {
		t.Fatalf("run too small to time every phase: %d merges, %d weeded", st.Merges, st.Weeded)
	}
	phases := []time.Duration{st.Neighbors, st.Links, st.Heap, st.Merge, st.Weed}
	var sum time.Duration
	for i, d := range phases {
		if d < 0 {
			t.Errorf("phase %d: duration %v < 0", i, d)
		}
		sum += d
	}
	if st.Neighbors == 0 {
		t.Error("neighbor phase not timed")
	}
	if sum > wall {
		t.Errorf("phases sum to %v, more than the call's %v (%+v)", sum, wall, st.Timings)
	}
}

func TestClusterLargePipeline(t *testing.T) {
	d := basketTestData(t)
	lr, err := rock.ClusterLarge(d.Txns, pipelineCfg(800))
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Sample) != 800 {
		t.Fatalf("sample = %d", len(lr.Sample))
	}
	if lr.Labeled != len(d.Txns)-800 {
		t.Fatalf("labeled = %d, want %d", lr.Labeled, len(d.Txns)-800)
	}
	if len(lr.Assign) != len(d.Txns) {
		t.Fatalf("assign length = %d", len(lr.Assign))
	}
	// Quality: most true-cluster transactions should agree with their
	// cluster's majority label.
	agree, total := 0, 0
	majority := majorityLabels(lr, d.Labels, d.NumClusters())
	for p, l := range d.Labels {
		if l < 0 {
			continue
		}
		total++
		if c := lr.Assign[p]; c >= 0 && majority[c] == l {
			agree++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Errorf("only %.1f%% of cluster transactions labeled consistently", 100*frac)
	}
	// Clusters() must partition the assigned points.
	clusters := lr.Clusters()
	n := 0
	for _, c := range clusters {
		n += len(c)
	}
	assigned := 0
	for _, c := range lr.Assign {
		if c >= 0 {
			assigned++
		}
	}
	if n != assigned {
		t.Fatalf("Clusters() covers %d points, assigned %d", n, assigned)
	}
}

func majorityLabels(lr *rock.LargeResult, labels []int, k int) []int {
	counts := make([]map[int]int, len(lr.SampleResult.Clusters))
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	for p, c := range lr.Assign {
		if c >= 0 && labels[p] >= 0 {
			counts[c][labels[p]]++
		}
	}
	out := make([]int, len(counts))
	for i, m := range counts {
		best, bestN := -1, -1
		for l, n := range m {
			if n > bestN {
				best, bestN = l, n
			}
		}
		out[i] = best
	}
	return out
}

func TestClusterLargeValidation(t *testing.T) {
	if _, err := rock.ClusterLarge(nil, rock.PipelineConfig{}); err == nil {
		t.Fatal("zero sample size accepted")
	}
}

func TestClusterScannerMatchesInMemory(t *testing.T) {
	d := basketTestData(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "txns.bin")
	if err := store.SaveBinary(path, d.Txns); err != nil {
		t.Fatal(err)
	}
	open := func() (store.Scanner, io.Closer, error) {
		return openBinary(path)
	}
	cfg := pipelineCfg(600)
	fromDisk, err := rock.ClusterScanner(open, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := rock.ClusterLarge(d.Txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same data: the reservoir passes must select the same
	// sample (as a set — the streaming pass keeps stream order while the
	// in-memory pass keeps reservoir-slot order).
	set := make(map[int]bool, len(inMem.Sample))
	for _, p := range inMem.Sample {
		set[p] = true
	}
	if len(fromDisk.Sample) != len(inMem.Sample) {
		t.Fatalf("sample sizes differ: %d vs %d", len(fromDisk.Sample), len(inMem.Sample))
	}
	for _, p := range fromDisk.Sample {
		if !set[p] {
			t.Fatalf("streaming sample selected %d, not in in-memory sample", p)
		}
	}
	// Cluster ids can be permuted between the runs (the sample orderings
	// differ), so compare the partitions by pairwise co-membership over
	// random pairs.
	rng := rand.New(rand.NewSource(99))
	agree, trials := 0, 3000
	for i := 0; i < trials; i++ {
		a, b := rng.Intn(len(d.Txns)), rng.Intn(len(d.Txns))
		coA := fromDisk.Assign[a] >= 0 && fromDisk.Assign[a] == fromDisk.Assign[b]
		coB := inMem.Assign[a] >= 0 && inMem.Assign[a] == inMem.Assign[b]
		if coA == coB {
			agree++
		}
	}
	if frac := float64(agree) / float64(trials); frac < 0.95 {
		t.Errorf("partitions agree on only %.1f%% of pairs", 100*frac)
	}
}

func openBinary(path string) (store.Scanner, io.Closer, error) {
	return store.OpenBinary(path)
}

func TestClusterScannerLabelsEverything(t *testing.T) {
	d := basketTestData(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "txns.txt")
	if err := store.SaveText(path, d.Txns); err != nil {
		t.Fatal(err)
	}
	open := func() (store.Scanner, io.Closer, error) {
		f, err := openText(path)
		return f.sc, f.c, err
	}
	lr, err := rock.ClusterScanner(open, pipelineCfg(600))
	if err != nil {
		t.Fatal(err)
	}
	if lr.Labeled != len(d.Txns)-600 {
		t.Fatalf("labeled = %d", lr.Labeled)
	}
}

// limitedScanner truncates an underlying scanner after left transactions,
// simulating a stream that shrank between the two pipeline passes.
type limitedScanner struct {
	sc   store.Scanner
	left int
}

func (l *limitedScanner) Next() (rock.Transaction, error) {
	if l.left <= 0 {
		return nil, io.EOF
	}
	l.left--
	return l.sc.Next()
}

// TestClusterScannerDetectsShrinkingStream: pass 2 seeing fewer transactions
// than pass 1 must be an error, not a tail of silent outliers.
func TestClusterScannerDetectsShrinkingStream(t *testing.T) {
	d := basketTestData(t)
	path := filepath.Join(t.TempDir(), "txns.bin")
	if err := store.SaveBinary(path, d.Txns); err != nil {
		t.Fatal(err)
	}
	calls := 0
	open := func() (store.Scanner, io.Closer, error) {
		sc, c, err := store.OpenBinary(path)
		if err != nil {
			return nil, nil, err
		}
		calls++
		if calls == 2 {
			return &limitedScanner{sc: sc, left: len(d.Txns) - 7}, c, nil
		}
		return sc, c, nil
	}
	_, err := rock.ClusterScanner(open, pipelineCfg(600))
	if err == nil || !strings.Contains(err.Error(), "shrank") {
		t.Fatalf("shrinking stream: err = %v, want a 'stream shrank' error", err)
	}
}

// TestClusterScannerDetectsGrowingStream is the symmetric case.
func TestClusterScannerDetectsGrowingStream(t *testing.T) {
	d := basketTestData(t)
	dir := t.TempDir()
	short := filepath.Join(dir, "short.bin")
	long := filepath.Join(dir, "long.bin")
	if err := store.SaveBinary(short, d.Txns[:len(d.Txns)-7]); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveBinary(long, d.Txns); err != nil {
		t.Fatal(err)
	}
	calls := 0
	open := func() (store.Scanner, io.Closer, error) {
		calls++
		if calls == 2 {
			return store.OpenBinary(long)
		}
		return store.OpenBinary(short)
	}
	_, err := rock.ClusterScanner(open, pipelineCfg(600))
	if err == nil || !strings.Contains(err.Error(), "grew") {
		t.Fatalf("growing stream: err = %v, want a 'stream grew' error", err)
	}
}

type textFile struct {
	sc store.Scanner
	c  io.Closer
}

func openText(path string) (textFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return textFile{}, err
	}
	return textFile{sc: store.NewTextScanner(f), c: f}, nil
}
