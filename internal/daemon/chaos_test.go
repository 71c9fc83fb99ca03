package daemon_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rock/internal/daemon"
	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/promtext"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/store"
)

// schemaSnapshot builds a tiny categorical model: one attribute "v" with six
// values; v0..v2 label cluster 0+shift, v3..v5 label cluster 1+shift. The
// shift distinguishes model generations, so a response reveals which model
// served it.
func schemaSnapshot(shift int) *model.Snapshot {
	return &model.Snapshot{
		Theta:   0.5,
		FTheta:  1.0 / 3,
		SimName: "jaccard",
		Schema: dataset.NewSchema(
			dataset.Attribute{Name: "v", Domain: []string{"v0", "v1", "v2", "v3", "v4", "v5"}},
		),
		Sets: []model.Set{
			{Cluster: 0 + shift, Norm: 1.5, Points: []int{0, 1, 2}},
			{Cluster: 1 + shift, Norm: 1.5, Points: []int{3, 4, 5}},
		},
		Txns: []dataset.Transaction{
			dataset.NewTransaction(0),
			dataset.NewTransaction(1),
			dataset.NewTransaction(2),
			dataset.NewTransaction(3),
			dataset.NewTransaction(4),
			dataset.NewTransaction(5),
		},
	}
}

// startConfigured starts a daemon over cfg.Registry and a fresh worker
// pool of the given size, returning the handler too so tests can reach its
// internals (semaphore, drain flag, mux).
func startConfigured(t testing.TB, workers int, cfg daemon.Config) (*daemon.Server, *httptest.Server) {
	t.Helper()
	engine := serve.New(workers)
	h := daemon.New(engine, log.New(io.Discard, "", 0), cfg)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		engine.Close()
	})
	return h, srv
}

// startOne serves src the way `rockd -cache cacheCap` does with -dir (src
// is a *model.Dir) or -model (src is a snapshot file path): a one-tenant
// registry, opened with its startup load, then the daemon. It returns the
// startup load's error: an empty directory starts idle.
func startOne(t testing.TB, workers int, src any, cacheCap int, cfg daemon.Config) (*daemon.Server, *httptest.Server, error) {
	t.Helper()
	rcfg := registry.Config{CacheCap: cacheCap}
	var err error
	switch src := src.(type) {
	case *model.Dir:
		cfg.Registry, err = registry.OpenDir(rcfg, "default", src)
	case string:
		cfg.Registry, err = registry.OpenFile(rcfg, "default", src)
	default:
		t.Fatalf("startOne: unsupported source %T", src)
	}
	if cfg.Registry == nil {
		t.Fatal(err)
	}
	h, srv := startConfigured(t, workers, cfg)
	return h, srv, err
}

// startServing serves snap from a snapshot file, as startOne does.
func startServing(t testing.TB, snap *model.Snapshot, workers, cacheCap int, cfg daemon.Config) (*daemon.Server, *httptest.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.rockm")
	if err := model.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	h, srv, err := startOne(t, workers, path, cacheCap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, srv
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestReadyzLifecycle drives readiness through the full arc: idle start
// (not ready), first reload from the snapshot directory (ready), drain
// (not ready again) — with liveness green throughout.
func TestReadyzLifecycle(t *testing.T) {
	dir, err := model.OpenDir(store.OS, t.TempDir(), "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	h, srv, err := startOne(t, 1, dir, 0, daemon.Config{})
	if !errors.Is(err, model.ErrNoSnapshots) {
		t.Fatalf("startup load from an empty directory: %v, want ErrNoSnapshots", err)
	}

	if got := getStatus(t, srv.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before any model: %d, want 503", got)
	}
	if got := getStatus(t, srv.URL+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before any model: %d, want 200", got)
	}
	if got := getStatus(t, srv.URL+"/v1/model"); got != http.StatusServiceUnavailable {
		t.Fatalf("model info before any model: %d, want 503", got)
	}
	status, payload := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{1}}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("assign before any model: %d (%s), want 503", status, payload)
	}

	if _, err := dir.Save(schemaSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	status, payload = postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{})
	if status != http.StatusOK {
		t.Fatalf("reload from dir: %d (%s)", status, payload)
	}
	if got := getStatus(t, srv.URL+"/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after reload: %d, want 200", got)
	}
	status, _ = postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Records: [][]string{{"v0"}}})
	if status != http.StatusOK {
		t.Fatalf("assign after reload: %d", status)
	}

	h.BeginDrain()
	if got := getStatus(t, srv.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", got)
	}
	if got := getStatus(t, srv.URL+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", got)
	}
}

// TestIdleDirWithOnlyCorruptGeneration starts a -dir replica whose only
// generation is corrupt. A file is on disk, but nothing loads: the replica
// must start idle and stay not ready, with assigns answering 503, until a
// good generation is reloaded.
func TestIdleDirWithOnlyCorruptGeneration(t *testing.T) {
	tmp := t.TempDir()
	dir, err := model.OpenDir(store.OS, tmp, "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "model-1.rock"), []byte("ROCKMDL\x02garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, srv, err := startOne(t, 1, dir, 0, daemon.Config{})
	if !errors.Is(err, model.ErrNoSnapshots) {
		t.Fatalf("startup load from a corrupt-only directory: %v, want ErrNoSnapshots", err)
	}

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd daemon.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Ready || rd.ModelLoaded || rd.Seq != 0 {
		t.Fatalf("readyz with only a corrupt generation: %d %+v, want 503, not loaded, seq 0", resp.StatusCode, rd)
	}
	status, payload := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{1}}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("assign with only a corrupt generation: %d (%s), want 503", status, payload)
	}

	if _, err := dir.Save(schemaSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	if status, payload := postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{}); status != http.StatusOK {
		t.Fatalf("reload after a good generation landed: %d (%s)", status, payload)
	}
	if got := getStatus(t, srv.URL+"/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after reload: %d, want 200", got)
	}
}

// TestReloadRollbackFromDir corrupts the newest generation and checks the
// daemon reloads the previous good one, keeps serving, and reports the
// rollback.
func TestReloadRollbackFromDir(t *testing.T) {
	tmp := t.TempDir()
	dir, err := model.OpenDir(store.OS, tmp, "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(schemaSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	_, srv, err := startOne(t, 1, dir, 0, daemon.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// A newer generation arrives torn: written without the atomic-save
	// path, e.g. a partial copy.
	if err := os.WriteFile(filepath.Join(tmp, "model-2.rock"), []byte("ROCKMDL\x02garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	status, payload := postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{})
	if status != http.StatusOK {
		t.Fatalf("reload with corrupt newest: %d (%s)", status, payload)
	}
	var resp daemon.ReloadResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.RolledBackPast) != 1 || filepath.Base(resp.RolledBackPast[0]) != "model-2.rock" {
		t.Fatalf("rollback report %+v", resp)
	}
	if filepath.Base(resp.Source) != "model-1.rock" {
		t.Fatalf("served source %q, want generation 1", resp.Source)
	}
	if resp.Seq != 1 {
		t.Fatalf("reload seq %d, want 1", resp.Seq)
	}
	// Still answering, from the good model.
	status, payload = postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Records: [][]string{{"v0"}}})
	if status != http.StatusOK {
		t.Fatalf("assign after rollback: %d (%s)", status, payload)
	}
	var ar daemon.AssignResponse
	if err := json.Unmarshal(payload, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Assignments) != 1 || ar.Assignments[0].Cluster != 0 {
		t.Fatalf("assignments after rollback: %+v", ar.Assignments)
	}
}

// TestSheddingWith429: with the admission semaphore full, an assign request
// must be shed immediately with 429 + Retry-After, and admitted again once
// a slot frees.
func TestSheddingWith429(t *testing.T) {
	h, srv := startServing(t, schemaSnapshot(0), 1, 0, daemon.Config{MaxInflight: 1})

	// Occupy the only slot, as a stuck in-flight request would.
	h.Sem() <- struct{}{}
	b, _ := json.Marshal(daemon.AssignRequest{Transactions: [][]int64{{1}}})
	resp, err := http.Post(srv.URL+"/v1/assign", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated assign: %d (%s), want 429", resp.StatusCode, payload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	<-h.Sem()

	if status, _ := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{1}}}); status != http.StatusOK {
		t.Fatalf("assign after slot freed: %d", status)
	}
	if got := scrape(t, srv.URL)["rockd_shed_total"]; got != 1 {
		t.Fatalf("shed counter = %v, want 1", got)
	}
}

// TestPanicRecoveryKeepsServing: a handler panic must become a 500 — and
// the daemon must keep answering afterwards.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	h, srv := startServing(t, schemaSnapshot(0), 1, 0, daemon.Config{})
	h.Mux().HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	if got := getStatus(t, srv.URL+"/boom"); got != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", got)
	}
	if status, _ := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{1}}}); status != http.StatusOK {
		t.Fatalf("assign after panic: %d", status)
	}
	if got := scrape(t, srv.URL)["rockd_panics_total"]; got != 1 {
		t.Fatalf("panic counter = %v, want 1", got)
	}
}

// TestRecordsConsistentDuringReloads is the reload-race regression test:
// record batches are encoded against a captured model and must be assigned
// by that same model, even while reloads swap generations underneath. With
// model A clusters are {0,1} and with model B {10,11}, so a mixed batch —
// or a record of v0..v2 landing outside {0,10} — proves the race.
func TestRecordsConsistentDuringReloads(t *testing.T) {
	tmp := t.TempDir()
	pathA := filepath.Join(tmp, "a.rockm")
	pathB := filepath.Join(tmp, "b.rockm")
	if err := model.Save(pathA, schemaSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	if err := model.Save(pathB, schemaSnapshot(10)); err != nil {
		t.Fatal(err)
	}
	_, srv, err := startOne(t, 0, pathA, 0, daemon.Config{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	fail := make(chan string, 16)
	var reloader sync.WaitGroup
	reloader.Add(1)
	go func() {
		defer reloader.Done()
		paths := []string{pathB, pathA}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if status, payload := postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{Path: paths[i%2]}); status != http.StatusOK {
				fail <- fmt.Sprintf("reload: %d (%s)", status, payload)
				return
			}
		}
	}()

	records := [][]string{{"v0"}, {"v3"}, {"v1"}, {"v4"}, {"v2"}, {"v5"}}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < 40; b++ {
				status, payload := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Records: records})
				if status != http.StatusOK {
					fail <- fmt.Sprintf("assign: %d (%s)", status, payload)
					return
				}
				var resp daemon.AssignResponse
				if err := json.Unmarshal(payload, &resp); err != nil {
					fail <- err.Error()
					return
				}
				if len(resp.Assignments) != len(records) {
					fail <- "short batch"
					return
				}
				shift := -1
				for i, got := range resp.Assignments {
					wantLow := got.Cluster % 10 // 0 for v0..v2, 1 for v3..v5
					if wantLow != i%2 {
						fail <- fmt.Sprintf("record %d assigned cluster %d", i, got.Cluster)
						return
					}
					s := 0
					if got.Cluster >= 10 {
						s = 10
					}
					if shift == -1 {
						shift = s
					} else if s != shift {
						fail <- "batch split across two models"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	reloader.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if scrape(t, srv.URL)["rockd_reloads_total"] == 0 {
		t.Fatal("no reloads happened during the traffic window")
	}
}

// TestChaosReloadCorruptShedUnderLoad drives the whole resilience loop at
// once: concurrent clients (with client-side retry, like rockload's) hammer
// assignments through a 1-slot admission gate while a chaos goroutine saves
// new generations, drops corrupt ones into the directory, and reloads.
// Required outcome: every batch eventually succeeds, zero wrong answers,
// reloads always return 200 thanks to rollback, and overload is shed with
// 429 rather than queued.
func TestChaosReloadCorruptShedUnderLoad(t *testing.T) {
	tmp := t.TempDir()
	dir, err := model.OpenDir(store.OS, tmp, "model", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(schemaSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	_, srv, err := startOne(t, 2, dir, 0, daemon.Config{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	fail := make(chan string, 16)
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			shift := 0
			if i%2 == 1 {
				shift = 10
			}
			if _, err := dir.Save(schemaSnapshot(shift)); err != nil {
				fail <- "save: " + err.Error()
				return
			}
			if i%3 == 2 {
				// A torn copy lands as the next generation.
				ents, err := dir.List()
				if err != nil {
					fail <- err.Error()
					return
				}
				bad := filepath.Join(tmp, fmt.Sprintf("model-%d.rock", ents[0].Seq+1))
				if err := os.WriteFile(bad, []byte("ROCKMDL\x02shredded"), 0o644); err != nil {
					fail <- err.Error()
					return
				}
			}
			if status, payload := postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{}); status != http.StatusOK {
				fail <- fmt.Sprintf("reload: %d (%s)", status, payload)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const clients = 8
	const batches = 25
	var shed, retried sync2Counter
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := daemon.AssignRequest{Transactions: make([][]int64, 200)}
			for i := range req.Transactions {
				req.Transactions[i] = [][]int64{{0}, {3}}[i%2]
			}
			for b := 0; b < batches; b++ {
				var ar daemon.AssignResponse
				ok := false
				for attempt := 0; attempt < 50; attempt++ {
					status, payload := postJSON(t, srv.URL+"/v1/assign", req)
					if status == http.StatusTooManyRequests {
						shed.add(1)
						retried.add(1)
						time.Sleep(time.Duration(1+attempt) * time.Millisecond)
						continue
					}
					if status != http.StatusOK {
						fail <- fmt.Sprintf("assign: %d (%s)", status, payload)
						return
					}
					if err := json.Unmarshal(payload, &ar); err != nil {
						fail <- err.Error()
						return
					}
					ok = true
					break
				}
				if !ok {
					fail <- "batch dropped: retries exhausted"
					return
				}
				if len(ar.Assignments) != len(req.Transactions) {
					fail <- "short batch"
					return
				}
				shift := -1
				for i, got := range ar.Assignments {
					if got.Cluster%10 != i%2 {
						fail <- fmt.Sprintf("probe %d assigned cluster %d: wrong answer", i, got.Cluster)
						return
					}
					s := 0
					if got.Cluster >= 10 {
						s = 10
					}
					if shift == -1 {
						shift = s
					} else if s != shift {
						fail <- "batch split across two models"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	chaos.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	m := scrape(t, srv.URL)
	if m["rockd_reloads_total"] == 0 {
		t.Fatal("chaos loop never reloaded")
	}
	if m["rockd_shed_total"] == 0 {
		t.Fatal("1-slot gate under 8 clients shed nothing — admission control inert")
	}
	t.Logf("chaos run: %.0f requests, %.0f reloads, %.0f shed (client saw %d, retried %d)",
		m["rockd_requests_total"], m["rockd_reloads_total"], m["rockd_shed_total"], shed.load(), retried.load())
}

// sync2Counter is a tiny atomic counter for test tallies.
type sync2Counter struct {
	mu sync.Mutex
	n  uint64
}

func (c *sync2Counter) add(d uint64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *sync2Counter) load() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

// scrape reads url's /metrics exposition into one value per series.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	promtext.Sum(out, samples)
	return out
}
