package rock_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rock"
	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/label"
	"rock/internal/model"
	"rock/internal/sim"
)

func TestLabelerAssignsNewTransactions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Majority true label per found cluster, for scoring.
	maj := make([]map[int]int, len(res.Clusters))
	for c := range maj {
		maj[c] = map[int]int{}
	}
	for c, members := range res.Clusters {
		for _, p := range members {
			if data.Labels[p] >= 0 {
				maj[c][data.Labels[p]]++
			}
		}
	}
	majorityOf := make([]int, len(res.Clusters))
	for c, m := range maj {
		best, bestN := -1, -1
		for l, n := range m {
			if n > bestN {
				best, bestN = l, n
			}
		}
		majorityOf[c] = best
	}

	// Generate FRESH transactions from the same defining item sets and
	// check the labeler routes them to matching clusters.
	fresh := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77)))
	agree, total := 0, 0
	for i, tx := range fresh.Txns {
		if fresh.Labels[i] < 0 {
			continue
		}
		c := lab.Assign(tx)
		if c == rock.OutlierCluster {
			continue
		}
		total++
		if majorityOf[c] == fresh.Labels[i] {
			agree++
		}
	}
	if total < len(fresh.Txns)/2 {
		t.Fatalf("labeler assigned only %d transactions", total)
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Errorf("only %.1f%% of fresh transactions labeled consistently", 100*frac)
	}

	// Batch form agrees with single assignments.
	batch := lab.AssignAll(fresh.Txns[:50])
	for i, c := range batch {
		if c != lab.Assign(fresh.Txns[i]) {
			t.Fatal("AssignAll disagrees with Assign")
		}
	}
}

func TestLabelerNoNeighborsIsOutlier(t *testing.T) {
	txns := []rock.Transaction{
		rock.NewTransaction(1, 2, 3),
		rock.NewTransaction(1, 2, 4),
		rock.NewTransaction(1, 3, 4),
	}
	cfg := rock.Config{K: 1, Theta: 0.5}
	res, err := rock.ClusterTransactions(txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(txns, res, cfg, rock.LabelerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.Assign(rock.NewTransaction(99, 100, 101)); got != rock.OutlierCluster {
		t.Fatalf("alien transaction assigned to %d", got)
	}
	if got := lab.Assign(rock.NewTransaction(1, 2, 3)); got != 0 {
		t.Fatalf("member transaction assigned to %d", got)
	}
}

func TestLabelerValidation(t *testing.T) {
	if _, err := rock.NewLabeler(nil, nil, rock.Config{}, rock.LabelerConfig{}); err == nil {
		t.Fatal("nil result accepted")
	}
}

func TestLabelerConfigValidation(t *testing.T) {
	txns := []rock.Transaction{
		rock.NewTransaction(1, 2, 3),
		rock.NewTransaction(1, 2, 4),
	}
	cfg := rock.Config{K: 1, Theta: 0.5}
	res, err := rock.ClusterTransactions(txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := []rock.LabelerConfig{
		{Fraction: -0.1},
		{Fraction: 1.5},
		{MinPerCluster: -3},
	}
	for _, lcfg := range bad {
		if _, err := rock.NewLabeler(txns, res, cfg, lcfg); err == nil {
			t.Errorf("config %+v accepted", lcfg)
		}
	}
	// Zero values still select the documented defaults.
	if _, err := rock.NewLabeler(txns, res, cfg, rock.LabelerConfig{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	// Boundary values are legal.
	if _, err := rock.NewLabeler(txns, res, cfg, rock.LabelerConfig{Fraction: 1}); err != nil {
		t.Fatalf("fraction 1 rejected: %v", err)
	}
}

// TestLabelerConcurrentAssign drives one Labeler from many goroutines and
// checks every concurrent answer against the serial one. Run under -race
// (make race) this doubles as the parallel-safety proof for the serving
// layer, which shares a Labeler-equivalent model across its worker pool.
func TestLabelerConcurrentAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	probes := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77))).Txns
	want := lab.AssignAll(probes)

	const goroutines = 8
	var wg sync.WaitGroup
	mismatch := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(probes); i += goroutines {
				if got := lab.Assign(probes[i]); got != want[i] {
					mismatch <- fmt.Sprintf("probe %d: concurrent %d vs serial %d", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-mismatch:
		t.Fatal(msg)
	default:
	}
}

// TestLabelerSnapshotRoundTrip is the persistence acceptance path: a
// snapshotted-and-revived Labeler must assign every probe identically,
// scores included.
func TestLabelerSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := lab.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rock.LoadLabeler(&buf)
	if err != nil {
		t.Fatal(err)
	}

	probes := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77))).Txns
	for _, p := range probes {
		wantC, wantS := lab.AssignScore(p)
		gotC, gotS := back.AssignScore(p)
		if gotC != wantC || gotS != wantS {
			t.Fatalf("probe %v: revived (%d, %v), original (%d, %v)", p, gotC, gotS, wantC, wantS)
		}
	}

	// File-based round trip with a schema attached.
	lab.SetSchema(&rock.Schema{Attrs: []rock.Attribute{{Name: "a", Domain: []string{"x", "y"}}}})
	path := filepath.Join(t.TempDir(), "m.rockm")
	if err := lab.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err = rock.LoadLabelerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema() == nil || back.Schema().Attrs[0].Name != "a" {
		t.Fatal("schema lost in round trip")
	}
}

// TestLabelerSnapshotRejectsCustomSimilarity: function values cannot be
// serialized, so snapshotting a custom similarity must fail loudly.
func TestLabelerSnapshotRejectsCustomSimilarity(t *testing.T) {
	txns := []rock.Transaction{
		rock.NewTransaction(1, 2, 3),
		rock.NewTransaction(1, 2, 4),
	}
	custom := func(a, b rock.Transaction) float64 { return rock.Jaccard(a, b) }
	cfg := rock.Config{K: 1, Theta: 0.5, Similarity: custom}
	res, err := rock.ClusterTransactions(txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(txns, res, cfg, rock.LabelerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Snapshot(); err == nil {
		t.Fatal("custom similarity snapshotted")
	}
}

// TestLabelerWeightedSnapshotRoundTrip: a schema-weighted "wjaccard"
// snapshot loads into a Labeler — the measure is rebuilt from the schema's
// per-value weights — and assigns exactly like a weighted-Jaccard scan, both
// straight from LoadLabeler and after a SaveSnapshot/LoadLabelerFile cycle.
func TestLabelerWeightedSnapshotRoundTrip(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "color", Domain: []string{"red", "green", "blue"}, Weights: []float64{1, 4, 8}},
		dataset.Attribute{Name: "size", Domain: []string{"s", "m", "l"}},
		dataset.Attribute{Name: "shape", Domain: []string{"round", "square"}, Weights: []float64{3, 0.5}},
	)
	// The encoder numbers items per attribute block in domain order.
	wj := sim.WeightedJaccard(sim.ItemWeights{1, 4, 8, 1, 1, 1, 3, 0.5})
	enc := dataset.NewEncoder(schema)
	rng := rand.New(rand.NewSource(9))
	randomRecord := func() rock.Transaction {
		rec := dataset.NewRecord(len(schema.Attrs))
		for a, attr := range schema.Attrs {
			if rng.Intn(5) > 0 {
				rec[a] = rng.Intn(len(attr.Domain))
			}
		}
		return enc.Encode(rec)
	}

	snap := &rock.Snapshot{Theta: 0.3, FTheta: rock.DefaultF(0.3), SimName: sim.WeightedJaccardName, Schema: schema}
	for i := 0; i < 30; i++ {
		snap.Txns = append(snap.Txns, randomRecord())
	}
	sets := make([]label.Set, 3)
	for c := range sets {
		var pts []int
		for q := c; q < len(snap.Txns); q += 3 {
			pts = append(pts, q)
		}
		norm := math.Pow(float64(len(pts)+1), snap.FTheta)
		snap.Sets = append(snap.Sets, model.Set{Cluster: c, Norm: norm, Points: pts})
		sets[c] = label.NewSet(c, pts, norm)
	}

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lab, err := rock.LoadLabeler(&buf)
	if err != nil {
		t.Fatalf("wjaccard snapshot rejected: %v", err)
	}
	path := filepath.Join(t.TempDir(), "weighted.rockm")
	if err := lab.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := rock.LoadLabelerFile(path)
	if err != nil {
		t.Fatalf("wjaccard snapshot file rejected: %v", err)
	}
	if !reflect.DeepEqual(back.Schema(), schema) {
		t.Fatalf("schema weights lost in round trip: %+v", back.Schema())
	}

	differs := 0
	for i := 0; i < 300; i++ {
		p := randomRecord()
		wantC, wantS := label.AssignScore(sets, func(q int) bool { return wj(p, snap.Txns[q]) >= snap.Theta })
		for name, l := range map[string]*rock.Labeler{"LoadLabeler": lab, "LoadLabelerFile": back} {
			if gotC, gotS := l.AssignScore(p); gotC != wantC || gotS != wantS {
				t.Fatalf("%s on %v: (%d, %v), weighted scan (%d, %v)", name, p, gotC, gotS, wantC, wantS)
			}
		}
		if c, s := label.AssignScore(sets, func(q int) bool { return sim.Jaccard(p, snap.Txns[q]) >= snap.Theta }); c != wantC || s != wantS {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("no probe assigns differently under plain Jaccard; the weights are not exercised")
	}
}
