// Package serve is the concurrent assignment engine behind the rockd
// daemon: a GOMAXPROCS-sized worker pool that labels batches with a
// compiled model (internal/model.Assigner), a per-model answer cache, and
// fixed-bucket latency/counter metrics.
//
// The engine holds no model. Every batch names the assigner and answer
// cache it is served from, and the hot-reload slot lives with the caller:
// rockd (internal/daemon) keeps its served generation — assigner, cache and
// snapshot seq as one registry.Loaded — in an atomic pointer, or leases it
// from the multi-tenant registry, and captures it once per request. So a
// reload never mixes two models inside one batch: concurrent requests
// during a reload are each served entirely by the old or entirely by the
// new generation.
package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rock/internal/dataset"
	"rock/internal/label"
	"rock/internal/model"
)

// Assignment is one served labeling decision.
type Assignment struct {
	// Cluster is the assigned cluster index, or label.Outlier (-1).
	Cluster int `json:"cluster"`
	// Score is the normalized neighbor count behind the decision (0 for
	// outliers).
	Score float64 `json:"score"`
}

// Outlier mirrors label.Outlier for callers of this package.
const Outlier = label.Outlier

// chunkSize is the number of transactions per worker-pool job. Small enough
// to spread a batch across the pool, large enough that channel traffic is
// noise next to the O(|batch|·Σ|L_i|) similarity work.
const chunkSize = 64

type job struct {
	a *model.Assigner
	// cache is the answer cache the batch was submitted with (nil
	// bypasses). Each batch carries its own model's cache, which is what
	// lets one pool serve many models and generations at once.
	cache *Cache
	in    []dataset.Transaction
	out   []Assignment
	wg    *sync.WaitGroup
}

// Engine is the worker pool every batch is labeled on, plus the counters
// and latency histogram they feed. It holds no model: each batch names the
// assigner and answer cache it is served from.
type Engine struct {
	jobs    chan job
	workers int
	wg      sync.WaitGroup

	requests    atomic.Uint64
	assignments atomic.Uint64
	outliers    atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	lat         Histogram
}

// New starts an engine with a worker pool of the given size (<= 0 selects
// GOMAXPROCS). Close releases the pool.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		jobs:    make(chan job, 4*workers),
		workers: workers,
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.jobs {
		e.runChunk(j.a, j.cache, j.in, j.out)
		j.wg.Done()
	}
}

func (e *Engine) runChunk(a *model.Assigner, cache *Cache, in []dataset.Transaction, out []Assignment) {
	if !cache.For(a) {
		// Never read answers computed by a different assigner, no matter
		// what the submitter handed us.
		cache = nil
	}
	outliers, hits, misses := 0, 0, 0
	for i, t := range in {
		if cache != nil && t.IsNormalized() {
			if asg, ok := cache.Get(t); ok {
				out[i] = asg
				hits++
				if asg.Cluster == Outlier {
					outliers++
				}
				continue
			}
			misses++
			c, s := a.Assign(t)
			out[i] = Assignment{Cluster: c, Score: s}
			cache.Put(t, out[i])
			if c == Outlier {
				outliers++
			}
			continue
		}
		c, s := a.Assign(t)
		out[i] = Assignment{Cluster: c, Score: s}
		if c == Outlier {
			outliers++
		}
	}
	if outliers > 0 {
		e.outliers.Add(uint64(outliers))
	}
	if hits > 0 {
		e.cacheHits.Add(uint64(hits))
	}
	if misses > 0 {
		e.cacheMisses.Add(uint64(misses))
	}
}

// AssignInto labels ts into out (len(out) must equal len(ts)) with
// assigner a, fanning chunks across the worker pool; it may be called
// concurrently from many goroutines. cache is a's answer cache; nil, or a
// cache bound to another assigner, is bypassed, so a reload race can never
// serve another generation's answers.
//
// AssignInto stops handing chunks to the pool once ctx is done and returns
// ctx's error. Chunks already submitted run to completion (workers never
// abandon a chunk mid-slice), so a cancelled call costs at most one chunk
// per worker of extra latency. On error out is partly written and must be
// discarded: a half-labeled batch is worse than a clean failure.
func (e *Engine) AssignInto(ctx context.Context, a *model.Assigner, cache *Cache, ts []dataset.Transaction, out []Assignment) error {
	if a == nil {
		panic("serve: AssignInto called with a nil assigner")
	}
	if len(out) != len(ts) {
		panic("serve: AssignInto output length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	if len(ts) <= chunkSize || e.workers == 1 {
		e.runChunk(a, cache, ts, out)
		e.finish(start, len(ts))
		return nil
	}
	var wg sync.WaitGroup
	cancelled := false
	for lo := 0; lo < len(ts) && !cancelled; lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(ts) {
			hi = len(ts)
		}
		select {
		case <-ctx.Done():
			cancelled = true
		default:
			wg.Add(1)
			e.jobs <- job{a: a, cache: cache, in: ts[lo:hi], out: out[lo:hi], wg: &wg}
		}
	}
	wg.Wait()
	if cancelled {
		return ctx.Err()
	}
	e.finish(start, len(ts))
	return nil
}

func (e *Engine) finish(start time.Time, n int) {
	e.requests.Add(1)
	e.assignments.Add(uint64(n))
	e.lat.Observe(time.Since(start))
}

// Metrics returns a point-in-time snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Requests:    e.requests.Load(),
		Assignments: e.assignments.Load(),
		Outliers:    e.outliers.Load(),
		CacheHits:   e.cacheHits.Load(),
		CacheMisses: e.cacheMisses.Load(),
	}
}

// Latency returns a point-in-time snapshot of the engine's request-latency
// histogram, for Prometheus exposition.
func (e *Engine) Latency() HistogramSnapshot { return e.lat.Snapshot() }

// Close stops the worker pool. No AssignInto calls may be in flight or
// follow; rockd closes the engine only after the HTTP server has fully
// drained.
func (e *Engine) Close() {
	close(e.jobs)
	e.wg.Wait()
}
