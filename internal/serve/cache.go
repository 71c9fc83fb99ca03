package serve

import (
	"sync"
	"sync/atomic"

	"rock/internal/dataset"
	"rock/internal/model"
)

// The answer cache. Basket workloads repeat heavily — the same normalized
// transaction arrives again and again — and an assignment is a pure function
// of (model, transaction), so repeated queries can skip the labeling rule
// entirely. The cache is sharded (one mutex per shard, keyed by a hash of
// the transaction bytes) so concurrent workers rarely contend, and every
// cache instance is bound to exactly one *model.Assigner: a batch that
// captured an older model during a hot reload simply bypasses the cache
// instead of ever reading another model's answers. A reload binds a fresh
// empty cache to the new model, which is the whole invalidation story.
//
// Eviction is CLOCK (second-chance): a hit sets a reference bit under the
// shard lock; an insert into a full shard sweeps the hand past referenced
// entries, clearing bits, and replaces the first unreferenced one. Hits do
// zero allocation; an insert allocates only the key copy its map entry
// needs.

// cacheShards is the number of independently locked shards. Power of two,
// comfortably above GOMAXPROCS on the machines this serves from.
const cacheShards = 16

// Cache maps normalized transaction bytes to assignments for one model.
type Cache struct {
	a      *model.Assigner
	shards [cacheShards]cacheShard
	// evictions is shared with the owner of the served slot so the counter
	// survives reloads (each reload discards the cache instance, not the
	// tally).
	evictions *atomic.Uint64
}

type cacheEntry struct {
	key string
	val Assignment
	ref bool
}

type cacheShard struct {
	mu      sync.Mutex
	index   map[string]int32
	entries []cacheEntry
	hand    int32
	cap     int32
	// keyBuf is the reusable key-building scratch, guarded by mu.
	keyBuf []byte
}

// NewCache builds a cache of roughly capacity entries (split across shards)
// whose answers are valid for exactly the given assigner. evictions, when
// non-nil, receives eviction counts.
func NewCache(capacity int, a *model.Assigner, evictions *atomic.Uint64) *Cache {
	perShard := capacity / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{a: a, evictions: evictions}
	for i := range c.shards {
		c.shards[i].cap = int32(perShard)
		c.shards[i].index = make(map[string]int32, perShard)
	}
	return c
}

// For reports whether the cache's answers are valid for a — the guard every
// reader must apply, because a batch may still be running on the model a
// hot reload just replaced.
func (c *Cache) For(a *model.Assigner) bool { return c != nil && c.a == a }

// Len returns the number of cached answers.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}

// key appends t's canonical byte form to dst. Transactions are normalized
// before lookup, so equal sets produce equal keys.
func appendKey(dst []byte, t dataset.Transaction) []byte {
	for _, it := range t {
		v := uint32(it)
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// hash is FNV-1a over the transaction's items, used only for shard choice.
func shardOf(t dataset.Transaction) uint32 {
	h := uint32(2166136261)
	for _, it := range t {
		v := uint32(it)
		for s := 0; s < 32; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 16777619
		}
	}
	return h & (cacheShards - 1)
}

// Get looks up the answer for normalized transaction t. Zero allocations on
// both hit and miss.
func (c *Cache) Get(t dataset.Transaction) (Assignment, bool) {
	sh := &c.shards[shardOf(t)]
	sh.mu.Lock()
	sh.keyBuf = appendKey(sh.keyBuf[:0], t)
	// string(sh.keyBuf) in the map index does not allocate: the compiler
	// uses the bytes in place for the lookup.
	ix, ok := sh.index[string(sh.keyBuf)]
	if !ok {
		sh.mu.Unlock()
		return Assignment{}, false
	}
	e := &sh.entries[ix]
	e.ref = true
	out := e.val
	sh.mu.Unlock()
	return out, true
}

// Put stores the answer for normalized transaction t, evicting by CLOCK when
// the shard is full. A concurrent Put of the same key wins-first; the values
// are identical anyway (same model, same transaction).
func (c *Cache) Put(t dataset.Transaction, val Assignment) {
	sh := &c.shards[shardOf(t)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.keyBuf = appendKey(sh.keyBuf[:0], t)
	if _, ok := sh.index[string(sh.keyBuf)]; ok {
		return
	}
	key := string(sh.keyBuf) // the one allocation: the stored key copy
	if int32(len(sh.entries)) < sh.cap {
		sh.entries = append(sh.entries, cacheEntry{key: key, val: val})
		sh.index[key] = int32(len(sh.entries)) - 1
		return
	}
	// CLOCK sweep: give referenced entries a second chance, replace the
	// first unreferenced one. Bounded: after one full lap every ref bit is
	// clear, so the second lap replaces at its first probe.
	for {
		e := &sh.entries[sh.hand]
		if !e.ref {
			delete(sh.index, e.key)
			sh.index[key] = sh.hand
			e.key, e.val = key, val
			sh.hand = (sh.hand + 1) % int32(len(sh.entries))
			if c.evictions != nil {
				c.evictions.Add(1)
			}
			return
		}
		e.ref = false
		sh.hand = (sh.hand + 1) % int32(len(sh.entries))
	}
}
