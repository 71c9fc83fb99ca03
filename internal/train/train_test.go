package train_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rock"
	"rock/internal/datagen"
	"rock/internal/eval"
	"rock/internal/label"
	"rock/internal/model"
	"rock/internal/promtext"
	"rock/internal/train"
)

// basketData generates the scaled Section 5.3 market-basket workload with
// ground truth (≈5.7k transactions at divisor 20, ≈2.3k at 50).
func basketData(divisor int) *datagen.BasketData {
	rng := rand.New(rand.NewSource(1))
	return datagen.Basket(datagen.ScaledBasketConfig(divisor), rng)
}

func trainCfg(d *datagen.BasketData, shards int) train.Config {
	return train.Config{
		K:               d.NumClusters(),
		Theta:           0.5,
		Shards:          shards,
		MinNeighbors:    2,
		StopMultiple:    3,
		MinClusterSize:  5,
		Seed:            7,
		KeepAssignments: true,
	}
}

func TestTrainSmoke(t *testing.T) {
	d := basketData(50)
	res, err := train.Train(train.SliceOpener(d.Txns), trainCfg(d, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != len(d.Txns) {
		t.Errorf("total %d, want %d", res.Total, len(d.Txns))
	}
	if res.Shards != 2 {
		t.Errorf("shards %d, want 2", res.Shards)
	}
	if res.Clusters <= 0 || res.Clusters > 3*d.NumClusters() {
		t.Errorf("global clusters %d out of range (true k %d)", res.Clusters, d.NumClusters())
	}
	if res.Labeled+res.Outliers != res.Total {
		t.Errorf("labeled %d + outliers %d != total %d", res.Labeled, res.Outliers, res.Total)
	}
	if len(res.Assignments) != res.Total {
		t.Fatalf("assignments length %d, want %d", len(res.Assignments), res.Total)
	}
	if res.Snapshot == nil {
		t.Fatal("nil snapshot")
	}
	if err := res.Snapshot.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	// The snapshot must be servable and agree with the recorded assignments
	// on out-of-sample behaviour: every assignment index must be a cluster
	// the model labels for.
	a, err := model.Compile(res.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for p, c := range res.Assignments {
		if c != label.Outlier && c >= a.Clusters() {
			t.Fatalf("point %d assigned to cluster %d, model has %d", p, c, a.Clusters())
		}
	}
}

// agreementARI computes the Adjusted Rand Index between two assignment
// vectors over the points both of them clustered.
func agreementARI(a, b []int) float64 {
	numB := 0
	for _, c := range b {
		if c+1 > numB {
			numB = c + 1
		}
	}
	groups := map[int][]int{}
	for p := range a {
		if a[p] != label.Outlier && b[p] != label.Outlier {
			groups[a[p]] = append(groups[a[p]], p)
		}
	}
	clusters := make([][]int, 0, len(groups))
	for _, g := range groups {
		clusters = append(clusters, g)
	}
	return eval.AdjustedRand(clusters, b, numB)
}

// TestTrainEquivalence is the sharded-vs-in-core quality gate: training with
// one shard and with four shards must both reproduce the single-pass
// in-core clustering of the same corpus with ARI >= 0.95.
func TestTrainEquivalence(t *testing.T) {
	d := basketData(20)
	ref, err := rock.ClusterTransactions(d.Txns, rock.Config{
		K: d.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	refAssign := make([]int, len(d.Txns))
	for i := range refAssign {
		refAssign[i] = label.Outlier
	}
	for c, members := range ref.Clusters {
		for _, p := range members {
			refAssign[p] = c
		}
	}
	for _, shards := range []int{1, 4} {
		res, err := train.Train(train.SliceOpener(d.Txns), trainCfg(d, shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		ari := agreementARI(res.Assignments, refAssign)
		t.Logf("shards=%d: %d global clusters, outlier rate %.4f, ARI vs in-core %.4f",
			shards, res.Clusters, res.OutlierRate, ari)
		if ari < 0.95 {
			t.Errorf("shards=%d: ARI %.4f < 0.95 against the in-core clustering", shards, ari)
		}
	}
}

func TestTrainDerivesShardsFromBudget(t *testing.T) {
	d := basketData(50)
	cfg := trainCfg(d, 0)
	cfg.MemBudget = 8 << 20 // 8 MiB at 16 KiB/point -> 512-point samples
	res, err := train.Train(train.SliceOpener(d.Txns), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards < 2 {
		t.Errorf("budget %d derived %d shards, expected sharding to kick in", cfg.MemBudget, res.Shards)
	}
	if got := int64(res.SampleTarget) * (16 << 10); got > cfg.MemBudget {
		t.Errorf("per-shard sample %d points (%d bytes est) exceeds budget %d",
			res.SampleTarget, got, cfg.MemBudget)
	}
}

func TestTrainOutlierGuard(t *testing.T) {
	d := basketData(50)
	cfg := trainCfg(d, 2)
	// Theta so high nothing is anyone's neighbor: every out-of-sample point
	// must come back an outlier (sampled points keep their degenerate
	// singleton clusters), pushing the rate far above a tight guard.
	cfg.Theta = 0.99
	cfg.MinNeighbors = 0
	cfg.StopMultiple = 0
	cfg.MinClusterSize = 0
	cfg.MaxOutlierRate = 0.25
	res, err := train.Train(train.SliceOpener(d.Txns), cfg)
	if err == nil {
		t.Fatalf("outlier rate %.4f accepted at theta 0.99", res.OutlierRate)
	}
	if !errors.Is(err, train.ErrOutlierRate) {
		t.Fatalf("error %v, want ErrOutlierRate", err)
	}
	if res == nil {
		t.Fatal("guard error must still return the diagnostic result")
	}
}

func TestTrainValidation(t *testing.T) {
	d := basketData(50)
	bad := []train.Config{
		{K: 0, Theta: 0.5, Shards: 2},
		{K: 3, Theta: 1.5, Shards: 2},
		{K: 3, Theta: math.NaN(), Shards: 2},
		{K: 3, Theta: 0.5}, // neither Shards nor MemBudget
		{K: 3, Theta: 0.5, Shards: 2, SimName: "nope"},
		{K: 3, Theta: 0.5, Shards: -1},
	}
	for i, cfg := range bad {
		if _, err := train.Train(train.SliceOpener(d.Txns), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := train.Train(train.SliceOpener(nil), trainCfg(d, 2)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCountersExposition(t *testing.T) {
	d := basketData(50)
	cfg := trainCfg(d, 2)
	ctr := &train.Counters{}
	cfg.Counters = ctr
	if _, err := train.Train(train.SliceOpener(d.Txns), cfg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w := promtext.NewWriter(&sb)
	ctr.WriteMetrics(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	got := map[string]float64{}
	promtext.Sum(got, samples)
	if got["rocktrain_txns_total"] != float64(len(d.Txns)) {
		t.Errorf("rocktrain_txns_total = %v, want %d", got["rocktrain_txns_total"], len(d.Txns))
	}
	if got["rocktrain_shards_done_total"] != 2 {
		t.Errorf("rocktrain_shards_done_total = %v, want 2", got["rocktrain_shards_done_total"])
	}
	if got[`rocktrain_phase{phase="done"}`] != 1 {
		t.Errorf("phase gauge not one-hot on done:\n%s", sb.String())
	}
	if got["rocktrain_labeled_total"]+got["rocktrain_outliers_total"] != float64(len(d.Txns)) {
		t.Errorf("labeled %v + outliers %v != %d",
			got["rocktrain_labeled_total"], got["rocktrain_outliers_total"], len(d.Txns))
	}
	if got["rocktrain_heap_peak_bytes"] <= 0 {
		t.Error("heap peak never observed")
	}
	if ctr.Phase() != train.PhaseDone {
		t.Errorf("final phase %q", ctr.Phase())
	}
}
