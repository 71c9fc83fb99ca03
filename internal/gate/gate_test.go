package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeReplica is a scriptable stand-in for a rockd replica: readiness,
// serving seq, per-request delay and unconditional shedding are all
// switchable mid-test, and every surface the gateway touches (/readyz,
// /v1/assign, /v1/reload, /metrics) is implemented.
type fakeReplica struct {
	srv      *httptest.Server
	id       int
	ready    atomic.Bool
	seq      atomic.Uint64
	reloadTo atomic.Uint64
	delay    atomic.Int64 // ns added to each assign
	shed     atomic.Bool  // answer every assign with 429 Retry-After 1
	requests atomic.Int64 // assign requests observed
	reloads  atomic.Int64
}

func newFakeReplica(t *testing.T, id int, seq uint64) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id}
	f.ready.Store(true)
	f.seq.Store(seq)
	f.reloadTo.Store(seq)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		if !f.ready.Load() {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"ready":%v,"model_loaded":true,"draining":false,"seq":%d}`, f.ready.Load(), f.seq.Load())
	})
	mux.HandleFunc("POST /v1/assign", func(w http.ResponseWriter, r *http.Request) {
		f.requests.Add(1)
		if f.shed.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"at capacity"}`)
			return
		}
		if d := time.Duration(f.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("X-Rock-Model-Seq", fmt.Sprint(f.seq.Load()))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"assignments":[{"cluster":%d,"score":1}]}`, f.id)
	})
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		f.reloads.Add(1)
		f.seq.Store(f.reloadTo.Load())
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ok":true,"source":"fake","seq":%d,"model":{}}`, f.seq.Load())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "rockd_requests_total %d\nrockd_model_seq %d\n", f.requests.Load(), f.seq.Load())
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// testGateway builds a gateway over the fakes with fast probes and returns
// it plus its HTTP front.
func testGateway(t *testing.T, cfg Config, fakes ...*fakeReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.srv.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 10 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	g := New(cfg, nil)
	srv := httptest.NewServer(g)
	t.Cleanup(func() {
		srv.Close()
		g.Close()
	})
	return g, srv
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assignThrough posts one assign and returns status, the serving cluster id
// (-1 when not a 200) and the X-Rock-Model-Seq header.
func assignThrough(t *testing.T, url string) (int, int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/assign", "application/json", strings.NewReader(`{"transactions":[[1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, -1, resp.Header.Get("X-Rock-Model-Seq")
	}
	var ar struct {
		Assignments []struct {
			Cluster int `json:"cluster"`
		} `json:"assignments"`
	}
	if err := json.Unmarshal(payload, &ar); err != nil {
		t.Fatalf("bad response %s: %v", payload, err)
	}
	return resp.StatusCode, ar.Assignments[0].Cluster, resp.Header.Get("X-Rock-Model-Seq")
}

func fleetOf(t *testing.T, url string) FleetResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fr FleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestEjectionAndProbation walks the health state machine end to end: a
// replica that stops answering /readyz is ejected after EjectAfter probes,
// traffic flows around it, and it is reinstated only after ReinstateAfter
// consecutive good probes.
func TestEjectionAndProbation(t *testing.T) {
	a := newFakeReplica(t, 0, 1)
	b := newFakeReplica(t, 1, 1)
	g, srv := testGateway(t, Config{EjectAfter: 3, ReinstateAfter: 2, DisableHedging: true}, a, b)

	waitFor(t, time.Second, "both live", func() bool {
		return g.backends[0].State() == StateLive && g.backends[1].State() == StateLive
	})

	b.ready.Store(false)
	waitFor(t, time.Second, "ejection", func() bool { return g.backends[1].State() == StateEjected })

	// All traffic lands on the survivor.
	before := a.requests.Load()
	for i := 0; i < 10; i++ {
		if status, cluster, _ := assignThrough(t, srv.URL); status != http.StatusOK || cluster != 0 {
			t.Fatalf("request %d: status %d cluster %d, want 200 from replica 0", i, status, cluster)
		}
	}
	if got := a.requests.Load() - before; got != 10 {
		t.Fatalf("survivor served %d of 10 requests", got)
	}

	// Recovery: probation first, live only after 2 consecutive good probes.
	b.ready.Store(true)
	waitFor(t, time.Second, "reinstatement", func() bool { return g.backends[1].State() == StateLive })
	fr := fleetOf(t, srv.URL)
	if fr.Replicas[1].State != "live" {
		t.Fatalf("fleet view after reinstatement: %+v", fr.Replicas[1])
	}
}

// TestBalancingSpreadsLoad: with two healthy equal replicas, P2C must send
// a non-trivial share to each.
func TestBalancingSpreadsLoad(t *testing.T) {
	a := newFakeReplica(t, 0, 1)
	b := newFakeReplica(t, 1, 1)
	_, srv := testGateway(t, Config{DisableHedging: true}, a, b)
	waitFor(t, time.Second, "gateway ready", func() bool {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	const n = 200
	var wg sync.WaitGroup
	var fails atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/8; j++ {
				resp, err := http.Post(srv.URL+"/v1/assign", "application/json", strings.NewReader(`{"transactions":[[1]]}`))
				if err != nil {
					fails.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if fails.Load() != 0 {
		t.Fatalf("%d failed requests", fails.Load())
	}
	ra, rb := a.requests.Load(), b.requests.Load()
	if ra+rb < n {
		t.Fatalf("replicas saw %d+%d requests, want >= %d", ra, rb, n)
	}
	if ra < n/10 || rb < n/10 {
		t.Fatalf("lopsided balance: %d vs %d", ra, rb)
	}
}

// TestHedgingRacesSlowReplica: with one replica answering slowly, a hedge
// must fire after the delay and the fast replica's response must win —
// every request still answers 200 well under the slow replica's latency
// for at least the hedged share.
func TestHedgingRacesSlowReplica(t *testing.T) {
	slow := newFakeReplica(t, 0, 1)
	fast := newFakeReplica(t, 1, 1)
	slow.delay.Store(int64(300 * time.Millisecond))
	g, srv := testGateway(t, Config{HedgeMin: time.Millisecond, HedgeMax: 20 * time.Millisecond}, slow, fast)
	waitFor(t, time.Second, "both live", func() bool {
		return g.backends[0].State() == StateLive && g.backends[1].State() == StateLive
	})

	for i := 0; i < 20; i++ {
		start := time.Now()
		status, _, _ := assignThrough(t, srv.URL)
		if status != http.StatusOK {
			t.Fatalf("request %d: %d", i, status)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Fatalf("request %d took %s despite hedging", i, d)
		}
	}
	if g.hedgeWins.Load() == 0 {
		t.Fatal("no hedge ever won against a 300ms replica")
	}
}

// TestShedRetryHonorsRetryAfter: a replica that sheds with Retry-After is
// retried elsewhere immediately and then kept out of rotation for the
// advertised delay.
func TestShedRetryHonorsRetryAfter(t *testing.T) {
	shedding := newFakeReplica(t, 0, 1)
	healthy := newFakeReplica(t, 1, 1)
	shedding.shed.Store(true)
	g, srv := testGateway(t, Config{DisableHedging: true}, shedding, healthy)
	waitFor(t, time.Second, "both live", func() bool {
		return g.backends[0].State() == StateLive && g.backends[1].State() == StateLive
	})

	for i := 0; i < 20; i++ {
		status, cluster, _ := assignThrough(t, srv.URL)
		if status != http.StatusOK || cluster != 1 {
			t.Fatalf("request %d: status %d cluster %d, want 200 from the healthy replica", i, status, cluster)
		}
	}
	// The shedding replica saw at most a couple of attempts before its
	// Retry-After pushed it out of the eligible set for a full second.
	if saw := shedding.requests.Load(); saw > 3 {
		t.Fatalf("shedding replica saw %d attempts; Retry-After not honored", saw)
	}
	if g.retried.Load() == 0 {
		t.Fatal("no retry was spent rerouting the shed request")
	}
	if !g.backends[0].inBackoff(time.Now()) {
		t.Fatal("shedding backend not in backoff")
	}
}

// TestRetryBudgetExhausts: with every replica failing and a tiny budget,
// the gateway must stop amplifying retries and return the failure.
func TestRetryBudgetExhausts(t *testing.T) {
	a := newFakeReplica(t, 0, 1)
	b := newFakeReplica(t, 1, 1)
	g, srv := testGateway(t, Config{DisableHedging: true, RetryRatio: 0.0001, RetryBurst: 1}, a, b)
	waitFor(t, time.Second, "both live", func() bool {
		return g.backends[0].State() == StateLive && g.backends[1].State() == StateLive
	})
	a.shed.Store(true)
	b.shed.Store(true)

	sawFailure := false
	for i := 0; i < 10; i++ {
		status, _, _ := assignThrough(t, srv.URL)
		if status != http.StatusOK {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("both replicas shedding yet every request succeeded")
	}
	// Budget: 1 burst token + negligible refill across 10 requests — the
	// retry counter must stay far below the 10 retries a budgetless
	// gateway would have spent.
	if spent := g.retried.Load(); spent > 3 {
		t.Fatalf("%d retries spent with an exhausted budget", spent)
	}
}

// TestSkewRoutesNewestOnly: outside a coordinated transition, replicas
// serving a stale snapshot seq receive no traffic.
func TestSkewRoutesNewestOnly(t *testing.T) {
	stale := newFakeReplica(t, 0, 1)
	fresh := newFakeReplica(t, 1, 2)
	g, srv := testGateway(t, Config{DisableHedging: true}, stale, fresh)
	waitFor(t, time.Second, "both live", func() bool {
		return g.backends[0].State() == StateLive && g.backends[1].State() == StateLive
	})

	before := stale.requests.Load()
	for i := 0; i < 10; i++ {
		status, cluster, seq := assignThrough(t, srv.URL)
		if status != http.StatusOK || cluster != 1 || seq != "2" {
			t.Fatalf("request %d: status %d cluster %d seq %s, want newest replica only", i, status, cluster, seq)
		}
	}
	if got := stale.requests.Load() - before; got != 0 {
		t.Fatalf("stale replica served %d requests during skew", got)
	}
	fr := fleetOf(t, srv.URL)
	if !fr.SkewDetected || fr.MaxSeq != 2 {
		t.Fatalf("fleet view %+v, want skew detected at max seq 2", fr)
	}

	// During a transition the filter is suspended: both serve.
	g.trans.Store("", struct{}{})
	defer g.trans.Delete("")
	waitFor(t, time.Second, "stale replica back in rotation", func() bool {
		assignThrough(t, srv.URL)
		return stale.requests.Load() > before
	})
}

// TestStaleSeqHeaderKeepsReplicaRoutable: a late response carrying a
// pre-reload X-Rock-Model-Seq must not move a replica's seq backward, or
// the skew filter drops a healthy replica until the next probe. Probes stay
// authoritative: one that reports the older seq does filter it.
func TestStaleSeqHeaderKeepsReplicaRoutable(t *testing.T) {
	fresh := newFakeReplica(t, 0, 2)
	late := newFakeReplica(t, 1, 2)
	// One probe at construction, none after: only responses move seqs.
	g, srv := testGateway(t, Config{DisableHedging: true, ProbeInterval: time.Hour}, fresh, late)
	if g.backends[0].State() != StateLive || g.backends[1].State() != StateLive || g.backends[1].Seq() != 2 {
		t.Fatalf("after the first probe: states %s/%s, late seq %d", g.backends[0].State(), g.backends[1].State(), g.backends[1].Seq())
	}

	// late's assign responses now carry seq 1, as a response begun before
	// its reload would.
	late.seq.Store(1)
	waitFor(t, 5*time.Second, "a stale response from the late replica", func() bool {
		assignThrough(t, srv.URL)
		return late.requests.Load() > 0
	})
	if got := g.backends[1].Seq(); got != 2 {
		t.Fatalf("late replica seq %d after a stale header, want 2", got)
	}
	before := late.requests.Load()
	for i := 0; i < 40; i++ {
		if status, _, _ := assignThrough(t, srv.URL); status != http.StatusOK {
			t.Fatalf("assign %d: %d", i, status)
		}
	}
	if late.requests.Load() == before {
		t.Fatal("a stale response header filtered the late replica out of rotation")
	}

	// A probe reporting seq 1 is authoritative: now the replica is stale.
	g.probeAll()
	if got := g.backends[1].Seq(); got != 1 {
		t.Fatalf("late replica seq %d after a probe reporting 1, want 1", got)
	}
	before = late.requests.Load()
	for i := 0; i < 10; i++ {
		if status, _, seq := assignThrough(t, srv.URL); status != http.StatusOK || seq != "2" {
			t.Fatalf("assign %d after the probe: status %d seq %s, want the seq-2 replica only", i, status, seq)
		}
	}
	if got := late.requests.Load() - before; got != 0 {
		t.Fatalf("replica probed at the older seq served %d requests", got)
	}
}

// TestRollingReload: the controller must reload replicas one at a time,
// verify each back on the new seq, and leave the fleet uniform; a replica
// that lands on a different seq aborts the walk.
func TestRollingReload(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0, 3), newFakeReplica(t, 1, 3), newFakeReplica(t, 2, 3)}
	g, srv := testGateway(t, Config{DisableHedging: true}, fakes...)
	waitFor(t, time.Second, "all live", func() bool {
		for _, b := range g.backends {
			if b.State() != StateLive {
				return false
			}
		}
		return true
	})
	for _, f := range fakes {
		f.reloadTo.Store(4)
	}

	resp, err := http.Post(srv.URL+"/v1/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rolling reload: %d (%s)", resp.StatusCode, payload)
	}
	var rr ReloadFleetResponse
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.OK || rr.Seq != 4 || len(rr.Replicas) != 3 {
		t.Fatalf("reload report %+v", rr)
	}
	for _, f := range fakes {
		if f.reloads.Load() != 1 {
			t.Fatalf("replica %d reloaded %d times", f.id, f.reloads.Load())
		}
	}
	fr := fleetOf(t, srv.URL)
	if fr.SkewDetected || fr.MaxSeq != 4 {
		t.Fatalf("fleet after reload: %+v", fr)
	}
	if status, _, seq := assignThrough(t, srv.URL); status != http.StatusOK || seq != "4" {
		t.Fatalf("post-reload assign: status %d seq %s", status, seq)
	}

	// Skew abort: one replica's directory is behind.
	fakes[0].reloadTo.Store(5)
	fakes[1].reloadTo.Store(5)
	fakes[2].reloadTo.Store(4)
	resp, err = http.Post(srv.URL+"/v1/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("mismatched reload: %d (%s), want 502", resp.StatusCode, payload)
	}
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.OK || len(rr.Replicas) != 3 || rr.Replicas[2].Error == "" {
		t.Fatalf("mismatch report %+v", rr)
	}
}

// TestRollingReloadConflict: a second reload while one is walking the
// fleet is refused with 409, not queued.
func TestRollingReloadConflict(t *testing.T) {
	f := newFakeReplica(t, 0, 1)
	g, srv := testGateway(t, Config{DisableHedging: true}, f)
	waitFor(t, time.Second, "live", func() bool { return g.backends[0].State() == StateLive })

	g.reloadLock("").Lock()
	defer g.reloadLock("").Unlock()
	resp, err := http.Post(srv.URL+"/v1/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent reload: %d, want 409", resp.StatusCode)
	}
}

// TestMetricsAggregatesFleet: the gateway's /metrics must include the
// summed replica counters parsed from each backend's exposition.
func TestMetricsAggregatesFleet(t *testing.T) {
	a := newFakeReplica(t, 0, 1)
	b := newFakeReplica(t, 1, 1)
	g, srv := testGateway(t, Config{DisableHedging: true}, a, b)
	waitFor(t, time.Second, "both live", func() bool {
		return g.backends[0].State() == StateLive && g.backends[1].State() == StateLive
	})
	for i := 0; i < 6; i++ {
		if status, _, _ := assignThrough(t, srv.URL); status != http.StatusOK {
			t.Fatalf("assign: %d", status)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	want := fmt.Sprintf("rockgate_fleet_requests_total %d", a.requests.Load()+b.requests.Load())
	for _, needle := range []string{
		"rockgate_requests_total 6",
		want,
		"rockgate_backend_up{backend=",
		"rockgate_attempt_latency_seconds_count",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics page missing %q:\n%s", needle, text)
		}
	}
	if strings.Contains(text, "rockgate_fleet_model_seq") {
		t.Error("aggregated metrics must not sum per-replica model seqs")
	}
}

// TestNoBackendAnswers503: with every replica down, assigns are refused
// with 503 + Retry-After and the gateway reports not ready.
func TestNoBackendAnswers503(t *testing.T) {
	f := newFakeReplica(t, 0, 1)
	f.ready.Store(false)
	_, srv := testGateway(t, Config{DisableHedging: true}, f)

	resp, err := http.Post(srv.URL+"/v1/assign", "application/json", strings.NewReader(`{"transactions":[[1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("assign with dead fleet: %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if status := func() int {
		r, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}(); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: %d", status)
	}
}
