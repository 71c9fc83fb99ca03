package serve

import (
	"sync/atomic"
	"time"
)

// latBuckets is the number of fixed exponential latency buckets: bucket i
// counts observations under 1µs·2^i, the last bucket is a catch-all. 30
// buckets span 1µs .. ~9min, far beyond any sane request latency.
const latBuckets = 30

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation. Fixed buckets keep the hot path to one atomic increment —
// no locks, no allocation — at the cost of quantiles quantized to bucket
// upper bounds. The zero value is ready to use; besides the Engine, the
// gateway (internal/gate) uses one to track fleet-wide request latency and
// derive its adaptive hedging delay from Quantile.
type Histogram struct {
	buckets [latBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// Observe records one latency observation.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := 0
	for bound := int64(1000); b < latBuckets-1 && ns >= bound; b++ {
		bound <<= 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(ns))
}

// Quantile returns the upper bound of the bucket holding the q-th
// observation (0 < q <= 1), or 0 when nothing was observed.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < latBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= rank {
			return time.Duration(int64(1000) << b)
		}
	}
	return time.Duration(int64(1000) << (latBuckets - 1))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time copy of a Histogram in the shape a
// Prometheus exposition needs: per-bucket (non-cumulative) counts, the
// upper bound of every bucket but the implicit +Inf last one, and the sum
// of observations. len(Counts) == len(Bounds)+1.
type HistogramSnapshot struct {
	// Bounds are inclusive upper bounds in seconds.
	Bounds []float64
	// Counts holds per-bucket observation counts; the final entry is the
	// +Inf catch-all.
	Counts []uint64
	// SumSeconds is the total observed latency in seconds.
	SumSeconds float64
}

// Snapshot copies the histogram's current state. Concurrent Observe calls
// may land between bucket reads; the snapshot is still a valid histogram,
// just not a single linearization point — fine for metrics.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: make([]float64, latBuckets-1),
		Counts: make([]uint64, latBuckets),
	}
	for b := 0; b < latBuckets-1; b++ {
		s.Bounds[b] = float64(int64(1000)<<b) / 1e9
	}
	for b := range s.Counts {
		s.Counts[b] = h.buckets[b].Load()
	}
	s.SumSeconds = float64(h.sumNs.Load()) / 1e9
	return s
}

// Metrics is a point-in-time counter snapshot of an Engine.
type Metrics struct {
	// Requests counts AssignInto calls (one batch = one request).
	Requests uint64
	// Assignments counts individual transactions assigned.
	Assignments uint64
	// Outliers counts assignments that landed in no cluster.
	Outliers uint64
	// CacheHits and CacheMisses count answer-cache lookups on the assign
	// path; both stay 0 when no cache is in use. Their sum can trail
	// Assignments: unnormalized transactions bypass the cache, as do
	// batches whose cache is bound to another assigner.
	CacheHits   uint64
	CacheMisses uint64
}
