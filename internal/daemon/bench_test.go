package daemon_test

// Handler-level codec benchmarks: the same assign batch through the JSON
// path, the binary wire path, and the binary path with the answer cache on.
// Driven through ServeHTTP with httptest recorders — no sockets — so the
// numbers isolate decode → assign → encode, the loop `make benchassign`
// tracks in EXPERIMENTS.md.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"rock/internal/daemon"
	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/store"
	"rock/internal/wire"
)

// benchSnapshot builds the reference benchmark model: 10 sets of 500
// labeled transactions over a 1000-item universe — the same shape as
// internal/model's assigner benchmarks.
func benchSnapshot() *model.Snapshot {
	const (
		nSets    = 10
		perSet   = 500
		universe = 1000
		maxLen   = 16
	)
	rng := rand.New(rand.NewSource(1))
	s := &model.Snapshot{Theta: 0.5, FTheta: 1.0 / 3, SimName: "jaccard"}
	for si := 0; si < nSets; si++ {
		set := model.Set{Cluster: si, Norm: float64(perSet + 1)}
		for p := 0; p < perSet; p++ {
			items := make([]dataset.Item, 1+rng.Intn(maxLen))
			for j := range items {
				items[j] = dataset.Item(rng.Intn(universe))
			}
			txn := dataset.NewTransaction(items...)
			set.Points = append(set.Points, len(s.Txns))
			s.Txns = append(s.Txns, txn)
		}
		s.Sets = append(s.Sets, set)
	}
	return s
}

func benchProbes(n, batch int) [][]dataset.Transaction {
	rng := rand.New(rand.NewSource(2))
	out := make([][]dataset.Transaction, n)
	for i := range out {
		txns := make([]dataset.Transaction, batch)
		for j := range txns {
			items := make([]dataset.Item, 12)
			for k := range items {
				items[k] = dataset.Item(rng.Intn(1000))
			}
			txns[j] = dataset.NewTransaction(items...)
		}
		out[i] = txns
	}
	return out
}

func benchHandler(b *testing.B, cache int) *daemon.Server {
	b.Helper()
	h, _ := startServing(b, benchSnapshot(), 1, cache, daemon.Config{})
	return h
}

const benchBatch = 64

func runAssignBench(b *testing.B, h *daemon.Server, bodies [][]byte, contentType string) {
	runAssignBenchPath(b, h, "/v1/assign", bodies, contentType)
}

func runAssignBenchPath(b *testing.B, h *daemon.Server, path string, bodies [][]byte, contentType string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", path, bytes.NewReader(bodies[i%len(bodies)]))
		req.Header.Set("Content-Type", contentType)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "txn/s")
}

func jsonBodies(b *testing.B, batches [][]dataset.Transaction) [][]byte {
	b.Helper()
	out := make([][]byte, len(batches))
	for i, txns := range batches {
		req := daemon.AssignRequest{Transactions: make([][]int64, len(txns))}
		for j, t := range txns {
			ids := make([]int64, len(t))
			for k, it := range t {
				ids[k] = int64(it)
			}
			req.Transactions[j] = ids
		}
		var err error
		if out[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

func binaryBodies(batches [][]dataset.Transaction) [][]byte {
	out := make([][]byte, len(batches))
	for i, txns := range batches {
		out[i] = wire.AppendRequest(nil, txns)
	}
	return out
}

// BenchmarkHandleAssignJSONScan is the pre-index baseline: the scan
// assigner (forced by leaving one labeled transaction unnormalized, which
// makes Compile skip the posting-list index) behind the JSON codec — the
// architecture this PR's stacked table starts from.
func BenchmarkHandleAssignJSONScan(b *testing.B) {
	s := benchSnapshot()
	s.Txns[0] = dataset.Transaction{5, 5, 3} // unnormalized → no compiled index
	a, err := model.Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	if a.Compiled() {
		b.Fatal("index unexpectedly built; scan baseline invalid")
	}
	h, _ := startServing(b, s, 1, 0, daemon.Config{})
	bodies := jsonBodies(b, benchProbes(64, benchBatch))
	runAssignBench(b, h, bodies, "application/json")
}

func BenchmarkHandleAssignJSON(b *testing.B) {
	h := benchHandler(b, 0)
	bodies := jsonBodies(b, benchProbes(64, benchBatch))
	runAssignBench(b, h, bodies, "application/json")
}

func BenchmarkHandleAssignBinary(b *testing.B) {
	h := benchHandler(b, 0)
	bodies := binaryBodies(benchProbes(64, benchBatch))
	runAssignBench(b, h, bodies, wire.ContentType)
}

func BenchmarkHandleAssignBinaryCached(b *testing.B) {
	// 64 distinct batches over a 4096-entry cache: steady state is all hits,
	// the best case a repeating production workload approaches.
	h := benchHandler(b, 8192)
	bodies := binaryBodies(benchProbes(64, benchBatch))
	runAssignBench(b, h, bodies, wire.ContentType)
}

// benchRegistryHandler serves the same reference model through the
// multi-tenant registry: published as one named model in a registry root,
// assigned via /v1/assign/bench. The benchmarks above lease their one
// model through a one-tenant registry too, so the delta is the {model}
// route's pattern match and the registry root's directory-backed tenant.
func benchRegistryHandler(b *testing.B, cacheCap int) *daemon.Server {
	b.Helper()
	root := b.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "bench"), 0o755); err != nil {
		b.Fatal(err)
	}
	dir, err := model.OpenDir(store.OS, filepath.Join(root, "bench"), "model", 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dir.Save(benchSnapshot()); err != nil {
		b.Fatal(err)
	}
	reg, err := registry.Open(registry.Config{Root: root, CacheCap: cacheCap})
	if err != nil {
		b.Fatal(err)
	}
	engine := serve.New(1)
	b.Cleanup(engine.Close)
	return daemon.New(engine, log.New(io.Discard, "", 0), daemon.Config{Registry: reg, DefaultModel: "bench"})
}

func BenchmarkHandleAssignRegistryBinary(b *testing.B) {
	h := benchRegistryHandler(b, 0)
	bodies := binaryBodies(benchProbes(64, benchBatch))
	runAssignBenchPath(b, h, "/v1/assign/bench", bodies, wire.ContentType)
}

func BenchmarkHandleAssignRegistryBinaryCached(b *testing.B) {
	h := benchRegistryHandler(b, 8192)
	bodies := binaryBodies(benchProbes(64, benchBatch))
	runAssignBenchPath(b, h, "/v1/assign/bench", bodies, wire.ContentType)
}
