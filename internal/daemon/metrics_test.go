package daemon_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rock/internal/daemon"
	"rock/internal/model"
	"rock/internal/promtext"
	"rock/internal/store"
)

// TestModelSeqHeaderAndReadyz: serving from a versioned directory, every
// assign response must carry X-Rock-Model-Seq naming the generation that
// served it, /readyz must report the same seq, and a reload must advance
// both in lockstep.
func TestModelSeqHeaderAndReadyz(t *testing.T) {
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

	assignSeq := func() string {
		t.Helper()
		b := strings.NewReader(`{"records": [["v0"]]}`)
		resp, err := http.Post(srv.URL+"/v1/assign", "application/json", b)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign: %d", resp.StatusCode)
		}
		return resp.Header.Get(daemon.ModelSeqHeader)
	}
	readyzSeq := func() uint64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd daemon.Readiness
		if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
			t.Fatal(err)
		}
		return rd.Seq
	}

	if got := assignSeq(); got != "1" {
		t.Fatalf("assign seq header %q, want 1", got)
	}
	if got := readyzSeq(); got != 1 {
		t.Fatalf("readyz seq %d, want 1", got)
	}

	if _, err := dir.Save(schemaSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	status, payload := postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{})
	if status != http.StatusOK {
		t.Fatalf("reload: %d (%s)", status, payload)
	}
	var rr daemon.ReloadResponse
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Seq != 2 {
		t.Fatalf("reload seq %d, want 2", rr.Seq)
	}
	if got := assignSeq(); got != "2" {
		t.Fatalf("assign seq header after reload %q, want 2", got)
	}
	if got := readyzSeq(); got != 2 {
		t.Fatalf("readyz seq after reload %d, want 2", got)
	}
}

// TestMetricsPrometheusExposition: /metrics must be parseable exposition
// text whose counters agree with the traffic sent, and must include the
// latency histogram, the model seq gauge and the served slot's cache and
// reload families.
func TestMetricsPrometheusExposition(t *testing.T) {
	dir, err := model.OpenDir(store.OS, t.TempDir(), "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := dir.Save(schemaSnapshot(0)); err != nil {
			t.Fatal(err)
		}
	}
	_, srv, err := startOne(t, 1, dir, 64, daemon.Config{})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		status, _ := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{0}, {3}}})
		if status != http.StatusOK {
			t.Fatalf("assign %d: %d", i, status)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text exposition", ct)
	}
	samples, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	agg := map[string]float64{}
	promtext.Sum(agg, samples)

	for name, want := range map[string]float64{
		"rockd_requests_total":     4,
		"rockd_assignments_total":  8,
		"rockd_model_seq":          3,
		"rockd_shed_total":         0,
		"rockd_reloads_total":      0, // the startup load is not a hot swap
		"rockd_cache_misses_total": 2,
		"rockd_cache_hits_total":   6,
		"rockd_cache_entries":      2,
	} {
		got, ok := agg[name]
		if !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if agg["rockd_request_latency_seconds_count"] != 4 {
		t.Errorf("histogram count %v, want 4", agg["rockd_request_latency_seconds_count"])
	}
	inf, ok := agg[`rockd_request_latency_seconds_bucket{le="+Inf"}`]
	if !ok || inf != 4 {
		t.Errorf("+Inf bucket %v (present=%v), want 4", inf, ok)
	}

	// A reload counts and binds a fresh, empty cache to the new generation.
	if status, payload := postJSON(t, srv.URL+"/v1/reload", daemon.ReloadRequest{}); status != http.StatusOK {
		t.Fatalf("reload: %d (%s)", status, payload)
	}
	agg = scrape(t, srv.URL)
	if agg["rockd_reloads_total"] != 1 || agg["rockd_cache_entries"] != 0 {
		t.Errorf("after reload: reloads %v, cache entries %v, want 1 and 0",
			agg["rockd_reloads_total"], agg["rockd_cache_entries"])
	}
}

// TestInjectedServiceTime: with latency injection on, an assign request
// must take at least the injected time — the knob routing-tier tests and
// single-host scaling benchmarks rely on.
func TestInjectedServiceTime(t *testing.T) {
	_, srv := startServing(t, schemaSnapshot(0), 1, 0, daemon.Config{
		InjectLatency: 30 * time.Millisecond, InjectTail: 100 * time.Millisecond, InjectTailEvery: 2,
	})

	start := time.Now()
	if status, _ := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{0}}}); status != http.StatusOK {
		t.Fatalf("assign: %d", status)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("injected request finished in %s, want >= 30ms", d)
	}
	// The second admitted request is the tail-injected one.
	start = time.Now()
	if status, _ := postJSON(t, srv.URL+"/v1/assign", daemon.AssignRequest{Transactions: [][]int64{{0}}}); status != http.StatusOK {
		t.Fatalf("assign: %d", status)
	}
	if d := time.Since(start); d < 130*time.Millisecond {
		t.Fatalf("tail-injected request finished in %s, want >= 130ms", d)
	}
}

// TestMetricsOneTypeLinePerFamily: every family in /metrics carries exactly
// one # TYPE line, whatever the daemon serves from. A Prometheus scraper
// rejects a second TYPE line for one name, so the unlabeled default-model
// seq and the per-model seqs must share one rockd_model_seq family.
func TestMetricsOneTypeLinePerFamily(t *testing.T) {
	_, fileSrv := startServing(t, schemaSnapshot(0), 1, 0, daemon.Config{})
	regSrv, _ := startRegistryDaemon(t, map[string]int{"alpha": 10, "default": 30}, daemon.Config{})
	for mode, url := range map[string]string{"file": fileSrv.URL, "registry": regSrv.URL} {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		types := map[string]int{}
		for _, line := range strings.Split(string(body), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
				types[f[2]]++
			}
		}
		if types["rockd_model_seq"] == 0 {
			t.Fatalf("%s: no rockd_model_seq family in\n%s", mode, body)
		}
		for family, n := range types {
			if n != 1 {
				t.Errorf("%s: family %s has %d # TYPE lines, want 1", mode, family, n)
			}
		}
	}
}
