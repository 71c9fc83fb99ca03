package daemon_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"rock/internal/daemon"
	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/promtext"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/wire"
)

// regSnapshot returns a tiny snapshot whose single cluster id names the
// model it belongs to, so a cross-model answer is immediately visible.
func regSnapshot(cluster int) *model.Snapshot {
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

// startRegistryDaemon publishes the given models into a fresh registry root
// and starts a registry-mode daemon over it.
func startRegistryDaemon(t *testing.T, clusters map[string]int, cfg daemon.Config) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(registry.Config{Root: t.TempDir(), CacheCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	for name, cluster := range clusters {
		d, err := reg.Dir(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Save(regSnapshot(cluster)); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Registry = reg
	engine := serve.New(0)
	srv := httptest.NewServer(daemon.New(engine, log.New(io.Discard, "", 0), cfg))
	t.Cleanup(func() {
		srv.Close()
		engine.Close()
	})
	return srv, reg
}

func assignCluster(t *testing.T, url string) int {
	t.Helper()
	status, body := postJSON(t, url, daemon.AssignRequest{Transactions: [][]int64{{1, 2, 3}}})
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, status, body)
	}
	var out daemon.AssignResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Assignments) != 1 {
		t.Fatalf("got %d assignments, want 1", len(out.Assignments))
	}
	return out.Assignments[0].Cluster
}

func TestRegistryAssignRoutesByModel(t *testing.T) {
	srv, _ := startRegistryDaemon(t, map[string]int{"alpha": 10, "beta": 20, "default": 30}, daemon.Config{})

	if c := assignCluster(t, srv.URL+"/v1/assign/alpha"); c != 10 {
		t.Fatalf("alpha answered cluster %d, want 10", c)
	}
	if c := assignCluster(t, srv.URL+"/v1/assign/beta"); c != 20 {
		t.Fatalf("beta answered cluster %d, want 20", c)
	}
	// Legacy route aliases to the default model.
	if c := assignCluster(t, srv.URL+"/v1/assign"); c != 30 {
		t.Fatalf("legacy route answered cluster %d, want default model's 30", c)
	}
	// Unknown model is a 404, not a 503: the daemon is healthy, the name is
	// wrong.
	status, _ := postJSON(t, srv.URL+"/v1/assign/ghost", daemon.AssignRequest{Transactions: [][]int64{{1}}})
	if status != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", status)
	}
}

func TestRegistryAssignBinaryByModel(t *testing.T) {
	srv, _ := startRegistryDaemon(t, map[string]int{"alpha": 10, "beta": 20}, daemon.Config{})

	for name, want := range map[string]int{"alpha": 10, "beta": 20} {
		req := wire.AppendRequest(nil, []dataset.Transaction{dataset.NewTransaction(1, 2, 3)})
		resp, err := http.Post(srv.URL+"/v1/assign/"+name, wire.ContentType, bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary assign %s: status %d: %s", name, resp.StatusCode, body)
		}
		if resp.Header.Get(daemon.ModelSeqHeader) != "1" {
			t.Fatalf("binary assign %s: seq header %q, want 1", name, resp.Header.Get(daemon.ModelSeqHeader))
		}
		out, err := wire.DecodeResponse(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].Cluster != want {
			t.Fatalf("binary assign %s: %+v, want cluster %d", name, out, want)
		}
	}
}

func TestRegistryReloadIsPerModel(t *testing.T) {
	srv, reg := startRegistryDaemon(t, map[string]int{"alpha": 10, "beta": 20}, daemon.Config{})

	// Warm both, then publish a new alpha generation.
	assignCluster(t, srv.URL+"/v1/assign/alpha")
	assignCluster(t, srv.URL+"/v1/assign/beta")
	d, err := reg.Dir("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Save(regSnapshot(11)); err != nil {
		t.Fatal(err)
	}

	// Until alpha reloads, it serves the old generation.
	if c := assignCluster(t, srv.URL+"/v1/assign/alpha"); c != 10 {
		t.Fatalf("pre-reload alpha answered %d, want 10", c)
	}
	resp, err := http.Post(srv.URL+"/v1/reload/alpha", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload alpha: status %d: %s", resp.StatusCode, body)
	}
	var rl daemon.ReloadResponse
	if err := json.Unmarshal(body, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Seq != 2 {
		t.Fatalf("reload installed seq %d, want 2", rl.Seq)
	}
	if c := assignCluster(t, srv.URL+"/v1/assign/alpha"); c != 11 {
		t.Fatalf("post-reload alpha answered %d, want 11", c)
	}
	// Beta is untouched: same answers, same generation.
	if c := assignCluster(t, srv.URL+"/v1/assign/beta"); c != 20 {
		t.Fatalf("beta answered %d after alpha's reload, want 20", c)
	}
}

// TestRegistryRefusesPathReload checks that a root model reloads only from
// its own directory: a path reload on either route is a 400 and leaves the
// served generation alone.
func TestRegistryRefusesPathReload(t *testing.T) {
	srv, _ := startRegistryDaemon(t, map[string]int{"alpha": 10, "default": 30}, daemon.Config{})
	path := filepath.Join(t.TempDir(), "other.rockm")
	if err := model.Save(path, regSnapshot(99)); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"/v1/reload", "/v1/reload/alpha"} {
		status, payload := postJSON(t, srv.URL+route, daemon.ReloadRequest{Path: path})
		if status != http.StatusBadRequest {
			t.Fatalf("path reload on %s: %d (%s), want 400", route, status, payload)
		}
	}
	if c := assignCluster(t, srv.URL+"/v1/assign/alpha"); c != 10 {
		t.Fatalf("alpha answered %d after a refused path reload, want 10", c)
	}
	if c := assignCluster(t, srv.URL+"/v1/assign"); c != 30 {
		t.Fatalf("default answered %d after a refused path reload, want 30", c)
	}
}

func TestRegistryModelsEndpointAndReadyz(t *testing.T) {
	srv, _ := startRegistryDaemon(t, map[string]int{"alpha": 10, "beta": 20}, daemon.Config{DefaultModel: "alpha"})
	assignCluster(t, srv.URL+"/v1/assign/alpha")

	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models daemon.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if models.DefaultModel != "alpha" || len(models.Models) != 2 {
		t.Fatalf("models response: %+v", models)
	}
	byName := map[string]registry.Info{}
	for _, info := range models.Models {
		byName[info.Name] = info
	}
	if byName["alpha"].State != "warm" || byName["alpha"].Seq != 1 || byName["alpha"].Requests != 1 {
		t.Fatalf("alpha info: %+v", byName["alpha"])
	}
	if byName["beta"].State != "cold" || byName["beta"].Seq != 1 {
		t.Fatalf("beta info: %+v", byName["beta"])
	}

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd daemon.Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz: status %d, %+v", resp.StatusCode, rd)
	}
	if rd.Models["alpha"] != 1 || rd.Models["beta"] != 1 || rd.Seq != 1 {
		t.Fatalf("readyz models: %+v", rd)
	}
}

func TestRegistryPrometheusModelLabels(t *testing.T) {
	srv, _ := startRegistryDaemon(t, map[string]int{"alpha": 10, "beta": 20}, daemon.Config{})
	assignCluster(t, srv.URL+"/v1/assign/alpha")
	assignCluster(t, srv.URL+"/v1/assign/alpha")
	assignCluster(t, srv.URL+"/v1/assign/beta")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.Parse(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	promtext.Sum(got, samples)
	if v := got[`rockd_model_requests_total{model="alpha"}`]; v != 2 {
		t.Fatalf("alpha requests = %v, want 2", v)
	}
	if v := got[`rockd_model_requests_total{model="beta"}`]; v != 1 {
		t.Fatalf("beta requests = %v, want 1", v)
	}
	if v := got[`rockd_model_warm{model="alpha"}`]; v != 1 {
		t.Fatalf("alpha warm = %v, want 1", v)
	}
	if v := got[`rockd_model_seq{model="beta"}`]; v != 1 {
		t.Fatalf("beta seq = %v, want 1", v)
	}
	if v := got["rockd_models_warm"]; v != 2 {
		t.Fatalf("models warm = %v, want 2", v)
	}

	// The daemon-wide served-generation families sum over every tenant, so
	// they (and the gateway's rockgate_fleet_* sums of them) agree with the
	// per-model families: one reload, cached answers in both tenants, and
	// CLOCK evictions from overfilling beta's 256-entry cache.
	if status, body := postJSON(t, srv.URL+"/v1/reload/alpha", nil); status != http.StatusOK {
		t.Fatalf("reload alpha: %d (%s)", status, body)
	}
	assignCluster(t, srv.URL+"/v1/assign/alpha")
	distinct := daemon.AssignRequest{Transactions: make([][]int64, 600)}
	for i := range distinct.Transactions {
		distinct.Transactions[i] = []int64{int64(1000 + i)}
	}
	if status, body := postJSON(t, srv.URL+"/v1/assign/beta", distinct); status != http.StatusOK {
		t.Fatalf("assign beta: %d (%s)", status, body)
	}
	got = scrape(t, srv.URL)
	for total, perModel := range map[string]string{
		"rockd_reloads_total":         "rockd_model_reloads_total",
		"rockd_cache_entries":         "rockd_model_cache_entries",
		"rockd_cache_evictions_total": "rockd_model_cache_evictions_total",
	} {
		sum := got[perModel+`{model="alpha"}`] + got[perModel+`{model="beta"}`]
		if sum == 0 || got[total] != sum {
			t.Errorf("%s = %v, want the per-model sum %v (> 0)", total, got[total], sum)
		}
	}
}

// TestRegistryWeightedModelCoexists proves a heterogeneous pair — plain
// Jaccard and the attribute-weighted measure — serve side by side from one
// registry daemon.
func TestRegistryWeightedModelCoexists(t *testing.T) {
	reg, err := registry.Open(registry.Config{Root: t.TempDir(), CacheCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	plainDir, err := reg.Dir("plain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plainDir.Save(regSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	weighted := regSnapshot(2)
	weighted.SimName = "wjaccard"
	weighted.Schema = dataset.NewSchema(
		// Items 0..4; item 2 weighs 8, so the single-item probe (2) gets
		// neighbors it would not have under plain Jaccard.
		dataset.Attribute{Name: "a", Domain: []string{"x", "y", "z"}, Weights: []float64{1, 4, 8}},
		dataset.Attribute{Name: "b", Domain: []string{"p", "q"}},
	)
	wDir, err := reg.Dir("weighted")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wDir.Save(weighted); err != nil {
		t.Fatal(err)
	}

	engine := serve.New(0)
	srv := httptest.NewServer(daemon.New(engine, log.New(io.Discard, "", 0), daemon.Config{Registry: reg}))
	defer srv.Close()
	defer engine.Close()

	probe := daemon.AssignRequest{Transactions: [][]int64{{2}}}
	status, body := postJSON(t, srv.URL+"/v1/assign/plain", probe)
	if status != http.StatusOK {
		t.Fatalf("plain: status %d: %s", status, body)
	}
	var out daemon.AssignResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Assignments[0].Cluster != serve.Outlier {
		t.Fatalf("plain Jaccard assigned probe to %d, want outlier", out.Assignments[0].Cluster)
	}
	status, body = postJSON(t, srv.URL+"/v1/assign/weighted", probe)
	if status != http.StatusOK {
		t.Fatalf("weighted: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Assignments[0].Cluster != 2 {
		t.Fatalf("weighted model assigned probe to %d, want 2", out.Assignments[0].Cluster)
	}
}
