package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rock/internal/dataset"
	"rock/internal/model"
)

// twoClusterSnapshot builds a tiny model with two well-separated clusters:
// low items (1..5) label cluster 0, high items (100..105) label cluster 1.
// shift relabels the clusters (cluster c becomes c+shift), which the
// tests use to tell two models apart.
func twoClusterSnapshot(shift int) *model.Snapshot {
	return &model.Snapshot{
		Theta:   0.5,
		FTheta:  1.0 / 3,
		SimName: "jaccard",
		Sets: []model.Set{
			{Cluster: 0 + shift, Norm: 1.5, Points: []int{0, 1, 2}},
			{Cluster: 1 + shift, Norm: 1.5, Points: []int{3, 4, 5}},
		},
		Txns: []dataset.Transaction{
			dataset.NewTransaction(1, 2, 3),
			dataset.NewTransaction(1, 2, 4),
			dataset.NewTransaction(1, 3, 5),
			dataset.NewTransaction(100, 101, 102),
			dataset.NewTransaction(100, 101, 103),
			dataset.NewTransaction(100, 102, 105),
		},
	}
}

func compile(t testing.TB, shift int) *model.Assigner {
	t.Helper()
	a, err := model.Compile(twoClusterSnapshot(shift))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func randomProbes(n int, rng *rand.Rand) []dataset.Transaction {
	out := make([]dataset.Transaction, n)
	for i := range out {
		var items []dataset.Item
		base := dataset.Item(1)
		if rng.Intn(2) == 1 {
			base = 100
		}
		for k := 0; k < 3; k++ {
			items = append(items, base+dataset.Item(rng.Intn(6)))
		}
		out[i] = dataset.NewTransaction(items...)
	}
	return out
}

// assign runs one AssignInto batch and fails the test on error.
func assign(t testing.TB, e *Engine, a *model.Assigner, cache *Cache, ts []dataset.Transaction) []Assignment {
	t.Helper()
	out := make([]Assignment, len(ts))
	if err := e.AssignInto(context.Background(), a, cache, ts, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAssignIntoMatchesAssigner: whatever route a batch takes — the
// pool's chunked path, one-transaction batches, through its own answer
// cache (cold, then warm), or handed a cache bound to another assigner —
// every answer is exactly what the assigner computes. The foreign cache is
// pre-filled with the other model's (shifted) answers, so reading it would
// show.
func TestAssignIntoMatchesAssigner(t *testing.T) {
	a, other := compile(t, 0), compile(t, 10)
	e := New(3)
	defer e.Close()
	probes := randomProbes(300, rand.New(rand.NewSource(8)))
	own := NewCache(1024, a, nil)
	foreign := NewCache(1024, other, nil)
	for _, p := range probes {
		c, s := other.Assign(p)
		foreign.Put(p, Assignment{Cluster: c, Score: s})
	}
	check := func(name string, got []Assignment, from []dataset.Transaction) {
		t.Helper()
		for i, p := range from {
			c, s := a.Assign(p)
			if got[i].Cluster != c || got[i].Score != s {
				t.Fatalf("%s: probe %d: engine %+v vs assigner (%d, %v)", name, i, got[i], c, s)
			}
		}
	}
	check("batch", assign(t, e, a, nil, probes), probes)
	for i, p := range probes[:50] {
		check("single", assign(t, e, a, nil, []dataset.Transaction{p}), probes[i:i+1])
	}
	check("own cache, cold", assign(t, e, a, own, probes), probes)
	check("own cache, warm", assign(t, e, a, own, probes), probes)
	check("foreign cache", assign(t, e, a, foreign, probes), probes)
	if m := e.Metrics(); m.CacheHits == 0 {
		t.Fatal("the warm pass through the own cache took no hits")
	}
}

// TestHotSwapBatchConsistency hammers AssignInto from many goroutines while
// a served slot flips continuously between two generations, each an
// (assigner, fresh cache) pair, as rockd's reload does. Chunks of batches
// from both generations interleave over the one pool; every batch must be
// served entirely by the generation it captured: with model A clusters are
// {0,1}, with model B {10,11}.
func TestHotSwapBatchConsistency(t *testing.T) {
	type generation struct {
		a     *model.Assigner
		cache *Cache
		shift int
	}
	models := [2]*model.Assigner{compile(t, 0), compile(t, 10)}
	var slot atomic.Pointer[generation]
	slot.Store(&generation{a: models[0], cache: NewCache(256, models[0], nil)})
	e := New(0)
	defer e.Close()

	const (
		clients = 8
		batches = 40
	)
	stop := make(chan struct{})
	errs := make(chan string, clients)
	var swaps atomic.Uint64
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := models[i%2]
			slot.Store(&generation{a: a, cache: NewCache(256, a, nil), shift: 10 * (i % 2)})
			swaps.Add(1)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < batches; b++ {
				g := slot.Load()
				out := make([]Assignment, 150)
				if err := e.AssignInto(context.Background(), g.a, g.cache, randomProbes(len(out), rng), out); err != nil {
					errs <- err.Error()
					return
				}
				for _, r := range out {
					if r.Cluster != Outlier && r.Cluster-r.Cluster%10 != g.shift {
						errs <- "batch served by a generation it did not capture"
						return
					}
				}
			}
		}(int64(c))
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if swaps.Load() == 0 {
		t.Fatal("swapper never swapped")
	}
}

func TestMetricsCounters(t *testing.T) {
	a := compile(t, 0)
	e := New(2)
	defer e.Close()
	probes := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3),    // cluster 0
		dataset.NewTransaction(100, 101),   // cluster 1
		dataset.NewTransaction(7777, 8888), // outlier
	}
	assign(t, e, a, nil, probes)
	assign(t, e, a, nil, probes[2:])
	m := e.Metrics()
	if m.Requests != 2 {
		t.Fatalf("requests = %d, want 2", m.Requests)
	}
	if m.Assignments != 4 {
		t.Fatalf("assignments = %d, want 4", m.Assignments)
	}
	if m.Outliers != 2 {
		t.Fatalf("outliers = %d, want 2", m.Outliers)
	}
	var observed uint64
	for _, n := range e.Latency().Counts {
		observed += n
	}
	if observed != 2 {
		t.Fatalf("latency histogram holds %d observations, want 2", observed)
	}
}

// TestAssignIntoRejectsNilAssigner: a nil assigner is a missing "no model
// loaded" guard in the caller, and must fail with a named panic before any
// chunk reaches a worker, not with a nil dereference inside the pool.
func TestAssignIntoRejectsNilAssigner(t *testing.T) {
	e := New(1)
	defer e.Close()
	defer func() {
		if v := recover(); v == nil {
			t.Fatal("nil assigner accepted")
		} else if msg, _ := v.(string); !strings.Contains(msg, "nil assigner") {
			t.Fatalf("panic %v does not name the nil assigner", v)
		}
	}()
	out := make([]Assignment, 1)
	_ = e.AssignInto(context.Background(), nil, nil, []dataset.Transaction{dataset.NewTransaction(1)}, out)
}

func TestAssignIntoHonorsCancellation(t *testing.T) {
	a := compile(t, 0)
	e := New(2)
	defer e.Close()
	probes := randomProbes(500, rand.New(rand.NewSource(4)))
	out := make([]Assignment, len(probes))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.AssignInto(ctx, a, nil, probes, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v", err)
	}
	if m := e.Metrics(); m.Requests != 0 || m.Assignments != 0 {
		t.Fatalf("cancelled batch was counted: %+v", m)
	}

	if err := e.AssignInto(context.Background(), a, nil, probes, out); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.Assignments != uint64(len(probes)) {
		t.Fatalf("%d assignments for %d probes", m.Assignments, len(probes))
	}
}

// TestCloseAfterDrainAndMetricsConsistency is the Engine.Close regression
// test: concurrent one-transaction and multi-chunk batches, then a drain
// (all calls returned), then Close — which must be safe — and the counters
// must add up exactly: requests == calls, assignments == sum of batch sizes.
func TestCloseAfterDrainAndMetricsConsistency(t *testing.T) {
	a := compile(t, 0)
	e := New(4)
	const goroutines = 8
	const rounds = 30
	var calls, txns atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				n := 1
				if rng.Intn(2) == 1 {
					n = 1 + rng.Intn(200)
				}
				out := make([]Assignment, n)
				if err := e.AssignInto(context.Background(), a, nil, randomProbes(n, rng), out); err != nil {
					panic(err)
				}
				calls.Add(1)
				txns.Add(uint64(n))
			}
		}(int64(g))
	}
	wg.Wait()
	// Traffic fully drained: Close must be safe and must not lose counts.
	e.Close()
	m := e.Metrics()
	if m.Requests != calls.Load() {
		t.Fatalf("requests = %d, want %d", m.Requests, calls.Load())
	}
	if m.Assignments != txns.Load() {
		t.Fatalf("assignments = %d, want %d", m.Assignments, txns.Load())
	}
	if m.Outliers > m.Assignments {
		t.Fatalf("outliers %d exceed assignments %d", m.Outliers, m.Assignments)
	}
}
