package serve

import (
	"context"
	"sync/atomic"
	"testing"

	"rock/internal/dataset"
)

func TestCacheGetPut(t *testing.T) {
	a := compile(t, 0)
	var ev atomic.Uint64
	c := NewCache(64, a, &ev)
	txn := dataset.NewTransaction(1, 2)
	if _, ok := c.Get(txn); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(txn, Assignment{Cluster: 0, Score: 1})
	got, ok := c.Get(txn)
	if !ok || got.Cluster != 0 || got.Score != 1 {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// Equal content in a distinct backing array must hit the same entry.
	if _, ok := c.Get(dataset.NewTransaction(1, 2)); !ok {
		t.Fatal("miss on value-equal transaction")
	}
}

func TestCacheFor(t *testing.T) {
	a, b := compile(t, 0), compile(t, 0)
	c := NewCache(16, a, nil)
	if !c.For(a) {
		t.Fatal("cache must be valid for its own assigner")
	}
	if c.For(b) {
		t.Fatal("cache must not be valid for another assigner")
	}
	var nilCache *Cache
	if nilCache.For(a) {
		t.Fatal("nil cache must never validate")
	}
}

func TestCacheEviction(t *testing.T) {
	a := compile(t, 0)
	var ev atomic.Uint64
	// capacity below cacheShards → one entry per shard, so repeated inserts
	// into any shard must evict.
	c := NewCache(1, a, &ev)
	for i := 0; i < 4*cacheShards; i++ {
		c.Put(dataset.NewTransaction(dataset.Item(i)), Assignment{Cluster: i})
	}
	if got := c.Len(); got > cacheShards {
		t.Fatalf("Len = %d, want <= %d", got, cacheShards)
	}
	if ev.Load() == 0 {
		t.Fatal("expected evictions")
	}
	// Every surviving entry must still map to its own value.
	survivors := 0
	for i := 0; i < 4*cacheShards; i++ {
		if got, ok := c.Get(dataset.NewTransaction(dataset.Item(i))); ok {
			survivors++
			if got.Cluster != i {
				t.Fatalf("key %d holds cluster %d", i, got.Cluster)
			}
		}
	}
	if survivors != c.Len() {
		t.Fatalf("%d survivors vs Len %d", survivors, c.Len())
	}
}

func TestCacheClockSecondChance(t *testing.T) {
	a := compile(t, 0)
	c := NewCache(cacheShards*2, a, nil) // two entries per shard
	// Three keys in the same shard: fill it, reference the first, insert the
	// third — the sweep must spare the referenced entry.
	k1 := dataset.NewTransaction(1)
	sh := shardOf(k1)
	k2 := dataset.NewTransaction(2)
	for i := 3; shardOf(k2) != sh; i++ {
		k2 = dataset.NewTransaction(dataset.Item(i))
	}
	k3 := dataset.NewTransaction(1000)
	for i := 1001; shardOf(k3) != sh; i++ {
		k3 = dataset.NewTransaction(dataset.Item(i))
	}
	c.Put(k1, Assignment{Cluster: 1})
	c.Put(k2, Assignment{Cluster: 2})
	c.Get(k1)
	c.Put(k3, Assignment{Cluster: 3})
	if _, ok := c.Get(k1); !ok {
		t.Fatal("referenced entry was evicted before unreferenced one")
	}
}

func TestCacheHitZeroAllocs(t *testing.T) {
	a := compile(t, 0)
	c := NewCache(64, a, nil)
	txn := dataset.NewTransaction(1, 2, 3, 4, 5, 6, 7, 8)
	c.Put(txn, Assignment{Cluster: 1, Score: 0.5})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(txn); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
}

func TestEngineCacheCounting(t *testing.T) {
	a := compile(t, 0)
	e := New(1)
	defer e.Close()
	c := NewCache(128, a, nil)
	txn := []dataset.Transaction{dataset.NewTransaction(1, 2, 3)}
	first := assign(t, e, a, c, txn)[0]
	second := assign(t, e, a, c, txn)[0]
	if first != second {
		t.Fatalf("cached answer %+v differs from computed %+v", second, first)
	}
	m := e.Metrics()
	if m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if c.Len() != 1 {
		t.Fatalf("entries=%d, want 1", c.Len())
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	a := compile(t, 0)
	e := New(1)
	defer e.Close()
	txn := []dataset.Transaction{dataset.NewTransaction(1, 2, 3)}
	assign(t, e, a, nil, txn)
	assign(t, e, a, nil, txn)
	m := e.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatalf("cache counters moved with no cache: %+v", m)
	}
}

func TestEngineCacheBatchConsistency(t *testing.T) {
	a := compile(t, 0)
	e := New(0)
	defer e.Close()
	c := NewCache(1024, a, nil)
	// A batch with heavy repetition: cached and computed answers must agree.
	txns := make([]dataset.Transaction, 500)
	for i := range txns {
		txns[i] = dataset.NewTransaction(dataset.Item(i%7+1), dataset.Item(i%7+2))
	}
	want := assign(t, e, a, c, txns)
	got := assign(t, e, a, c, txns)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("txn %d: %+v then %+v", i, want[i], got[i])
		}
	}
	m := e.Metrics()
	if m.CacheHits == 0 {
		t.Fatal("expected cache hits on the repeated batch")
	}
	if m.CacheHits+m.CacheMisses != uint64(2*len(txns)) {
		t.Fatalf("hits %d + misses %d != %d lookups", m.CacheHits, m.CacheMisses, 2*len(txns))
	}
}

func TestEngineCacheSkipsUnnormalized(t *testing.T) {
	a := compile(t, 0)
	e := New(1)
	defer e.Close()
	c := NewCache(128, a, nil)
	raw := []dataset.Transaction{{2, 1}} // unsorted → not normalized
	assign(t, e, a, c, raw)
	assign(t, e, a, c, raw)
	m := e.Metrics()
	if m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatalf("unnormalized transactions must bypass the cache: %+v", m)
	}
}

func BenchmarkEngineAssignCached(b *testing.B) {
	a := compile(b, 0)
	e := New(1)
	defer e.Close()
	c := NewCache(4096, a, nil)
	ctx := context.Background()
	txn := []dataset.Transaction{dataset.NewTransaction(1, 2, 3)}
	out := make([]Assignment, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.AssignInto(ctx, a, c, txn, out); err != nil {
			b.Fatal(err)
		}
	}
}
