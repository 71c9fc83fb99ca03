package registry

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/serve"
)

// testSnapshot returns a tiny snapshot whose only cluster carries the given
// id, so any answer reveals which model (and which shift) produced it.
func testSnapshot(cluster int) *model.Snapshot {
	return &model.Snapshot{
		Theta:   0.5,
		FTheta:  (1 - 0.5) / (1 + 0.5),
		SimName: "jaccard",
		Sets: []model.Set{
			{Cluster: cluster, Norm: math.Pow(4, 1.0/3), Points: []int{0, 1, 2}},
		},
		Txns: []dataset.Transaction{
			dataset.NewTransaction(1, 2, 3),
			dataset.NewTransaction(1, 2, 4),
			dataset.NewTransaction(2, 3, 4),
		},
	}
}

// publish writes a snapshot as the next generation of <root>/<name>.
func publish(t *testing.T, r *Registry, name string, cluster int) uint64 {
	t.Helper()
	d, err := r.Dir(name)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := d.Save(testSnapshot(cluster))
	if err != nil {
		t.Fatal(err)
	}
	return ent.Seq
}

func openTest(t *testing.T, cfg Config) *Registry {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// probe is assigned to the model's single cluster under jaccard/theta 0.5.
var probe = dataset.NewTransaction(1, 2, 3)

func TestAcquireLazyLoadAndList(t *testing.T) {
	r := openTest(t, Config{CacheCap: 64})
	publish(t, r, "alpha", 7)

	for _, info := range r.List() {
		if info.Name == "alpha" && info.State != "cold" {
			t.Fatalf("model warm before first acquire: %+v", info)
		}
	}
	l, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if c, _ := l.Assigner.Assign(probe); c != 7 {
		t.Fatalf("assigned to %d, want 7", c)
	}
	if l.Seq != 1 {
		t.Fatalf("seq %d, want 1", l.Seq)
	}
	if l.Cache == nil || !l.Cache.For(l.Assigner) {
		t.Fatal("lease cache missing or not bound to the lease assigner")
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].State != "warm" || infos[0].Seq != 1 {
		t.Fatalf("list after load: %+v", infos)
	}
}

func TestUnknownAndInvalidNames(t *testing.T) {
	r := openTest(t, Config{})
	for _, name := range []string{"ghost", "..", "a/b", "", "a b"} {
		if _, err := r.Acquire(name); !errors.Is(err, ErrUnknownModel) {
			t.Errorf("Acquire(%q) err = %v, want ErrUnknownModel", name, err)
		}
	}
	// A registered but empty model directory is a different failure: the
	// model exists, it just has nothing to serve yet.
	if err := os.MkdirAll(filepath.Join(r.cfg.Root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("empty"); !errors.Is(err, model.ErrNoSnapshots) {
		t.Errorf("Acquire(empty) err = %v, want ErrNoSnapshots", err)
	}
}

// TestLazyLoadStampede: many concurrent first hits on a cold model perform
// exactly one load+compile between them.
func TestLazyLoadStampede(t *testing.T) {
	r := openTest(t, Config{CacheCap: 64})
	publish(t, r, "alpha", 3)

	const goroutines = 32
	var wg sync.WaitGroup
	var wrong atomic.Int64
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			l, err := r.Acquire("alpha")
			if err != nil {
				wrong.Add(1)
				return
			}
			defer l.Release()
			if c, _ := l.Assigner.Assign(probe); c != 3 || l.Seq != 1 {
				wrong.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d goroutines got a wrong answer or error", n)
	}
	info := r.List()[0]
	if info.Loads != 1 {
		t.Fatalf("stampede performed %d loads, want exactly 1", info.Loads)
	}
}

// TestLRUEvictionUnderBudget: with room for one warm model, alternating
// tenants evict each other, every answer stays correct, and pinned models
// are never evicted.
func TestLRUEvictionUnderBudget(t *testing.T) {
	r := openTest(t, Config{MaxModels: 1, CacheCap: 64})
	publish(t, r, "alpha", 1)
	publish(t, r, "beta", 2)

	la, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	// alpha is pinned: loading beta must not clear it.
	lb, err := r.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.WarmCount(); got != 2 {
		t.Fatalf("warm count %d with both models pinned, want 2", got)
	}
	if c, _ := la.Assigner.Assign(probe); c != 1 {
		t.Fatalf("alpha answered %d, want 1", c)
	}
	if c, _ := lb.Assigner.Assign(probe); c != 2 {
		t.Fatalf("beta answered %d, want 2", c)
	}
	la.Release()
	lb.Release()

	// With nothing pinned, touching alpha again pushes beta (older
	// lastUsed) out.
	if _, err := r.Acquire("alpha"); err != nil {
		t.Fatal(err)
	} else if got := r.WarmCount(); got != 1 {
		t.Fatalf("warm count %d after eviction sweep, want 1", got)
	}
	var beta Info
	for _, info := range r.List() {
		if info.Name == "beta" {
			beta = info
		}
	}
	if beta.State != "cold" || beta.Evictions == 0 {
		t.Fatalf("beta not evicted: %+v", beta)
	}
	// The evicted model reloads transparently on its next hit.
	lb2, err := r.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	defer lb2.Release()
	if c, _ := lb2.Assigner.Assign(probe); c != 2 {
		t.Fatalf("reloaded beta answered %d, want 2", c)
	}
}

// TestEvictionRacingAssigns hammers two models through a one-model budget
// from many goroutines: the LRU churns constantly while every lease must
// keep answering with its own model's cluster id. Run under -race this is
// the eviction/assign race drill.
func TestEvictionRacingAssigns(t *testing.T) {
	r := openTest(t, Config{MaxModels: 1, CacheCap: 64})
	publish(t, r, "alpha", 100)
	publish(t, r, "beta", 200)

	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names := [2]string{"alpha", "beta"}
			want := [2]int{100, 200}
			for i := 0; i < iters; i++ {
				k := (g + i) % 2
				l, err := r.Acquire(names[k])
				if err != nil {
					wrong.Add(1)
					continue
				}
				if c, _ := l.Assigner.Assign(probe); c != want[k] {
					wrong.Add(1)
				}
				if l.Cache != nil {
					// Exercise the cache under churn too: a lease's cache
					// is always bound to its own assigner.
					if !l.Cache.For(l.Assigner) {
						wrong.Add(1)
					}
				}
				l.Count(1, 0)
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong answers or errors under eviction churn", n)
	}
	evictions := uint64(0)
	for _, info := range r.List() {
		evictions += info.Evictions
	}
	if evictions == 0 {
		t.Fatal("budget of one model never evicted anything under two-model churn")
	}
}

// TestPerModelReloadIsolation: reloading one tenant installs a fresh
// generation for it while the other tenant's assigner, cache instance and
// cached answers survive untouched.
func TestPerModelReloadIsolation(t *testing.T) {
	r := openTest(t, Config{CacheCap: 64})
	publish(t, r, "alpha", 1)
	publish(t, r, "beta", 2)

	la, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := r.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	// Warm beta's cache.
	lb.Cache.Put(probe, serve.Assignment{Cluster: 2, Score: 1})
	la.Release()
	lb.Release()

	publish(t, r, "alpha", 11) // seq 2
	rl, _, err := r.ReloadFrom("alpha", "")
	if err != nil {
		t.Fatal(err)
	}
	if rl.Seq != 2 {
		t.Fatalf("reload installed seq %d, want 2", rl.Seq)
	}

	la2, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer la2.Release()
	if la2.Seq != 2 {
		t.Fatalf("alpha serves seq %d after reload, want 2", la2.Seq)
	}
	if c, _ := la2.Assigner.Assign(probe); c != 11 {
		t.Fatalf("reloaded alpha answered %d, want 11", c)
	}
	if la2.Assigner == la.Assigner || la2.Cache == la.Cache {
		t.Fatal("reload did not install a fresh (assigner, cache) generation")
	}

	lb2, err := r.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	defer lb2.Release()
	if lb2.Assigner != lb.Assigner || lb2.Cache != lb.Cache {
		t.Fatal("alpha's reload replaced beta's generation")
	}
	if lb2.Cache.Len() != 1 {
		t.Fatalf("beta's cache lost its entries: %d, want 1", lb2.Cache.Len())
	}
}

// TestConcurrentReloadsDistinctModels: reloads of different tenants proceed
// concurrently and publish storms on one tenant leave the other's serving
// seq alone.
func TestConcurrentReloadsDistinctModels(t *testing.T) {
	r := openTest(t, Config{CacheCap: 64})
	publish(t, r, "alpha", 1)
	publish(t, r, "beta", 2)
	if _, err := r.Acquire("beta"); err != nil {
		t.Fatal(err)
	}

	// Readers hammer beta while the main goroutine publishes and reloads
	// alpha repeatedly (publishing is single-writer per tenant, so the
	// storm itself is sequential; the cross-tenant reads are what race it).
	var wg sync.WaitGroup
	var failed atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l, err := r.Acquire("beta")
				if err != nil {
					failed.Add(1)
					continue
				}
				if l.Seq != 1 {
					failed.Add(1)
				}
				if c, _ := l.Assigner.Assign(probe); c != 2 {
					failed.Add(1)
				}
				l.Release()
			}
		}()
	}
	for i := 0; i < 5; i++ {
		publish(t, r, "alpha", 1)
		if _, _, err := r.ReloadFrom("alpha", ""); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d failures during alpha's publish storm", n)
	}
	seq, err := r.ServingSeq("beta")
	if err != nil || seq != 1 {
		t.Fatalf("beta serving seq = %d, %v; want 1", seq, err)
	}
}

func TestServingSeqColdVsWarm(t *testing.T) {
	r := openTest(t, Config{})
	publish(t, r, "alpha", 1)
	publish(t, r, "alpha", 1) // seq 2
	if seq, err := r.ServingSeq("alpha"); err != nil || seq != 2 {
		t.Fatalf("cold serving seq = %d, %v; want 2 (newest on disk)", seq, err)
	}
	l, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	publish(t, r, "alpha", 1) // seq 3 on disk, not reloaded
	if seq, err := r.ServingSeq("alpha"); err != nil || seq != 2 {
		t.Fatalf("warm serving seq = %d, %v; want the loaded 2, not the on-disk 3", seq, err)
	}
}
