package stream_test

import (
	"math/rand"
	"testing"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/stream"
)

// BenchmarkObserve measures steady-state fold throughput: a warmed clusterer
// (clusters already promoted) absorbing a stationary basket stream. This is
// the number the EXPERIMENTS.md drift drill quotes as the absorb rate.
func BenchmarkObserve(b *testing.B) {
	gen := datagen.NewDriftStream(datagen.DriftConfig{
		Basket: datagen.ScaledBasketConfig(10),
	}, rand.New(rand.NewSource(7)))
	c := stream.New(stream.Config{
		Theta:          0.5,
		ReclusterEvery: 128,
		MinPromote:     8,
		Seed:           9,
	})
	for i := 0; i < 4000; i++ {
		txn, _ := gen.Next()
		c.Observe(txn)
	}
	txns := make([]dataset.Transaction, 4096)
	for i := range txns {
		txns[i], _ = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(txns[i%len(txns)])
	}
}

// BenchmarkObserveDrift measures the fold on a drifting stream of the
// repository benchmark's stream-drift shape: Table 5 baskets scaled by 1/10,
// 40% of each cluster's vocabulary rotated every 5000 arrivals, a snapshot
// built and compiled every 5000 arrivals. One op is a pass of a fresh
// clusterer over 60000 arrivals (10000 under -short); ns/arrival is the
// per-arrival cost, publishes included.
func BenchmarkObserveDrift(b *testing.B) {
	n := 60000
	if testing.Short() {
		n = 10000
	}
	gen := datagen.NewDriftStream(datagen.DriftConfig{
		Basket: datagen.ScaledBasketConfig(10), DriftEvery: 5000, DriftFrac: 0.4,
	}, rand.New(rand.NewSource(1)))
	txns := make([]dataset.Transaction, n)
	for i := range txns {
		txns[i], _ = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := stream.New(stream.Config{Theta: 0.5, ReclusterEvery: 128, MinPromote: 8, Seed: 1})
		for j, t := range txns {
			c.Observe(t)
			if (j+1)%5000 != 0 {
				continue
			}
			if snap := c.BuildSnapshot(); snap != nil {
				if _, err := model.Compile(snap); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/arrival")
}
