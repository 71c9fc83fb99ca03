package daemon_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"rock"
	"rock/internal/daemon"
	"rock/internal/datagen"
	"rock/internal/model"
)

// trainSnapshot clusters a generated basket dataset, builds a Labeler and
// persists its snapshot, returning the in-process Labeler (the reference
// the daemon must agree with) and the snapshot path.
func trainSnapshot(t *testing.T, dir string, clusterSeed, labelSeed int64) (*rock.Labeler, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(clusterSeed))
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
	cfg := rock.Config{
		K: data.NumClusters(), Theta: 0.5,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10,
	}
	res, err := rock.ClusterTransactions(data.Txns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: labelSeed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model.rockm")
	if err := lab.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	return lab, path
}

// startDaemon serves the snapshot at path the way `rockd -model path`
// does: a fresh pool, then the startup load.
func startDaemon(t *testing.T, path string) *httptest.Server {
	t.Helper()
	_, srv, err := startOne(t, 0, path, 0, daemon.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// TestServedAssignmentsMatchInProcessLabeler is the end-to-end acceptance
// path: train → snapshot → load in the daemon → POST /v1/assign must return
// exactly what the in-process Labeler returns.
func TestServedAssignmentsMatchInProcessLabeler(t *testing.T) {
	lab, path := trainSnapshot(t, t.TempDir(), 6, 1)
	srv := startDaemon(t, path)

	fresh := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(77)))
	probes := fresh.Txns[:200]
	req := daemon.AssignRequest{Transactions: make([][]int64, len(probes))}
	for i, tx := range probes {
		ids := make([]int64, len(tx))
		for j, it := range tx {
			ids[j] = int64(it)
		}
		req.Transactions[i] = ids
	}
	status, payload := postJSON(t, srv.URL+"/v1/assign", req)
	if status != http.StatusOK {
		t.Fatalf("assign returned %d: %s", status, payload)
	}
	var resp daemon.AssignResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Assignments) != len(probes) {
		t.Fatalf("%d assignments for %d probes", len(resp.Assignments), len(probes))
	}
	for i, a := range resp.Assignments {
		wantC, wantS := lab.AssignScore(probes[i])
		if a.Cluster != wantC || a.Score != wantS {
			t.Fatalf("probe %d: served (%d, %v), in-process (%d, %v)",
				i, a.Cluster, a.Score, wantC, wantS)
		}
	}
}

// TestReloadUnderTraffic swaps models through /v1/reload while concurrent
// clients stream assignment batches; no request may fail, and every batch
// must be served consistently by a single model: all of its answers equal
// model A's in-process answers, or all equal model B's.
func TestReloadUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	labA, pathA := trainSnapshot(t, dir, 6, 1)
	// Same data, different labeled-set draw: a genuinely distinct model
	// that still answers sensibly.
	labB, err := func() (*rock.Labeler, error) {
		rng := rand.New(rand.NewSource(6))
		data := datagen.Basket(datagen.ScaledBasketConfig(100), rng)
		cfg := rock.Config{K: data.NumClusters(), Theta: 0.5, MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 10}
		res, err := rock.ClusterTransactions(data.Txns, cfg)
		if err != nil {
			return nil, err
		}
		return rock.NewLabeler(data.Txns, res, cfg, rock.LabelerConfig{Seed: 99})
	}()
	if err != nil {
		t.Fatal(err)
	}
	pathB := filepath.Join(dir, "modelB.rockm")
	if err := labB.SaveSnapshot(pathB); err != nil {
		t.Fatal(err)
	}

	srv := startDaemon(t, pathA)
	fresh := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(88)))

	const clients = 6
	const perClient = 25
	fail := make(chan string, clients+1)

	// Reloader: alternate snapshots as fast as the server allows until the
	// clients finish.
	done := make(chan struct{})
	reloaderDone := make(chan struct{})
	go func() {
		defer close(reloaderDone)
		paths := []string{pathB, pathA}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			status, payload := postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{Path: paths[i%2]})
			if status != http.StatusOK {
				fail <- "reload failed: " + string(payload)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < perClient; b++ {
				req := daemon.AssignRequest{Transactions: make([][]int64, 20)}
				batch := make([]rock.Transaction, len(req.Transactions))
				for i := range req.Transactions {
					tx := fresh.Txns[rng.Intn(len(fresh.Txns))]
					batch[i] = tx
					ids := make([]int64, len(tx))
					for j, it := range tx {
						ids[j] = int64(it)
					}
					req.Transactions[i] = ids
				}
				status, payload := postJSON(t, srv.URL+"/v1/assign", req)
				if status != http.StatusOK {
					fail <- "assign failed: " + string(payload)
					return
				}
				var resp daemon.AssignResponse
				if err := json.Unmarshal(payload, &resp); err != nil {
					fail <- "bad assign response: " + err.Error()
					return
				}
				if len(resp.Assignments) != len(req.Transactions) {
					fail <- "short response"
					return
				}
				matchA, matchB := true, true
				for i, got := range resp.Assignments {
					c, s := labA.AssignScore(batch[i])
					matchA = matchA && got.Cluster == c && got.Score == s
					c, s = labB.AssignScore(batch[i])
					matchB = matchB && got.Cluster == c && got.Score == s
				}
				if !matchA && !matchB {
					fail <- "batch matches neither model: split across a reload"
					return
				}
			}
		}(int64(c))
	}

	// Wait for the clients, then stop the reloader.
	wg.Wait()
	close(done)
	<-reloaderDone

	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	m := scrape(t, srv.URL)
	if m["rockd_reloads_total"] == 0 {
		t.Fatal("no reloads happened during the traffic window")
	}
	if want := float64(clients * perClient); m["rockd_requests_total"] < want {
		t.Fatalf("engine served %v batches, want at least %v", m["rockd_requests_total"], want)
	}
}

func TestHealthzMetricsAndModelEndpoints(t *testing.T) {
	_, path := trainSnapshot(t, t.TempDir(), 6, 1)
	srv := startDaemon(t, path)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}

	status, _ := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{1, 2, 3}}})
	if status != http.StatusOK {
		t.Fatalf("assign returned %d", status)
	}

	if m := scrape(t, srv.URL); m["rockd_requests_total"] != 1 || m["rockd_assignments_total"] != 1 {
		t.Fatalf("requests %v, assignments %v after one single-transaction request",
			m["rockd_requests_total"], m["rockd_assignments_total"])
	}

	resp, err = http.Get(srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info daemon.ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Clusters == 0 || info.Transactions == 0 || info.Similarity != "jaccard" {
		t.Fatalf("implausible model info %+v", info)
	}
}

// TestModelEndpointTrainStats: a snapshot carrying v3 training statistics
// surfaces them through GET /v1/model; one without reports has_train_stats
// false.
func TestModelEndpointTrainStats(t *testing.T) {
	dir := t.TempDir()
	_, path := trainSnapshot(t, dir, 6, 1)
	snap, err := model.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats != nil {
		t.Fatalf("labeler snapshot unexpectedly has stats: %+v", snap.Stats)
	}
	snap.Stats = &model.TrainStats{Points: 1000, Outliers: 37, OutlierRate: 0.037}
	statsPath := filepath.Join(dir, "stats.rockm")
	if err := model.Save(statsPath, snap); err != nil {
		t.Fatal(err)
	}

	srv := startDaemon(t, statsPath)
	resp, err := http.Get(srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info daemon.ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasTrainStats || info.TrainPoints != 1000 || info.TrainOutliers != 37 || info.TrainOutlierRate != 0.037 {
		t.Fatalf("train stats not surfaced: %+v", info)
	}

	srv2 := startDaemon(t, path)
	resp, err = http.Get(srv2.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var plain daemon.ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&plain)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasTrainStats || plain.TrainPoints != 0 {
		t.Fatalf("stats-free snapshot reported stats: %+v", plain)
	}
}

func TestAssignRejectsBadRequests(t *testing.T) {
	_, path := trainSnapshot(t, t.TempDir(), 6, 1)
	srv := startDaemon(t, path)

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"transactions": [[1,2`},
		{"neither field", `{}`},
		{"both fields", `{"transactions": [[1]], "records": [["a"]]}`},
		{"records without schema", `{"records": [["red"]]}`},
		{"negative item", `{"transactions": [[-5]]}`},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/assign", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}

	// Method mismatches.
	resp, err := http.Get(srv.URL + "/v1/assign")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/assign: status %d, want 405", resp.StatusCode)
	}
}

func TestReloadRejectsBadSnapshots(t *testing.T) {
	dir := t.TempDir()
	_, path := trainSnapshot(t, dir, 6, 1)
	srv := startDaemon(t, path)

	status, _ := postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{Path: filepath.Join(dir, "missing.rockm")})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("missing snapshot: status %d, want 422", status)
	}
	status, _ = postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty path: status %d, want 400", status)
	}
	// The original model must still be serving.
	if got := scrape(t, srv.URL)["rockd_reloads_total"]; got != 0 {
		t.Fatalf("failed reloads counted %v swaps, want 0", got)
	}
	status, _ = postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{1, 2, 3}}})
	if status != http.StatusOK {
		t.Fatalf("assign after failed reload: status %d", status)
	}
}
