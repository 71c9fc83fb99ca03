package gate_test

// Multi-tenant fleet chaos drill: 2 registry-mode rockd replicas (full
// handler stack on real listeners) serving 3 named models — two plain
// Jaccard tenants and one attribute-weighted-similarity tenant — behind a
// real gateway, under client load on every model in both codecs, while:
//
//   - models churn through the registry's LRU budget (MaxModels=2 over 3
//     models forces constant evict/reload cycles under load),
//   - two tenants publish new generations and roll through per-model
//     gateway reloads concurrently,
//   - one replica is killed cold and restarted mid-storm.
//
// The invariants: zero failed assignments, every answer matches the
// ground truth of the (model, generation) that claimed it — cluster-id
// ranges are disjoint per tenant, so any cross-model mixing in the
// registry or the router shows up as a wrong answer — and once a model's
// rolling reload completes, no request started later is served by that
// model's old generation. Model B's traffic must not fail during model
// A's publish storm.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rock/internal/daemon"
	"rock/internal/dataset"
	"rock/internal/gate"
	"rock/internal/model"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/sim"
	"rock/internal/store"
	"rock/internal/wire"
)

// tenantSnapshot builds one tenant's model: attribute "v" with six values,
// v0..v2 labeling cluster base+shift, v3..v5 labeling base+shift+1. base
// separates tenants (disjoint cluster-id ranges), shift separates
// generations. weighted selects the attribute-weighted similarity.
func tenantSnapshot(base, shift int, weighted bool) *model.Snapshot {
	attr := dataset.Attribute{Name: "v", Domain: []string{"v0", "v1", "v2", "v3", "v4", "v5"}}
	simName := "jaccard"
	if weighted {
		attr.Weights = []float64{8, 4, 2, 1, 1, 1}
		simName = sim.WeightedJaccardName
	}
	return &model.Snapshot{
		Theta:   0.5,
		FTheta:  1.0 / 3,
		SimName: simName,
		Schema:  dataset.NewSchema(attr),
		Sets: []model.Set{
			{Cluster: base + shift, Norm: 1.5, Points: []int{0, 1, 2}},
			{Cluster: base + shift + 1, Norm: 1.5, Points: []int{3, 4, 5}},
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

// tenantTruth maps value index -> cluster for one (model, generation) by
// asking a directly compiled Assigner.
func tenantTruth(t *testing.T, snap *model.Snapshot) [6]int {
	t.Helper()
	a, err := model.Compile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var out [6]int
	for k := 0; k < 6; k++ {
		txn, err := a.EncodeRecord([]string{fmt.Sprintf("v%d", k)})
		if err != nil {
			t.Fatal(err)
		}
		out[k], _ = a.Assign(txn)
	}
	return out
}

// startRegistryReplica boots a registry-mode daemon over the shared root.
// MaxModels 2 under 3 models keeps the LRU evicting throughout the drill.
func startRegistryReplica(t *testing.T, root, addr string) *replica {
	t.Helper()
	reg, err := registry.Open(registry.Config{Root: root, MaxModels: 2, CacheCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.New(0)
	h := daemon.New(eng, log.New(io.Discard, "", 0), daemon.Config{Registry: reg, DefaultModel: "alpha"})
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	r := &replica{addr: l.Addr().String(), srv: &http.Server{Handler: h}, eng: eng}
	go r.srv.Serve(l)
	t.Cleanup(r.kill)
	return r
}

// tenantObservation is one client-visible answer for one model.
type tenantObservation struct {
	start   time.Time
	model   string
	seq     uint64
	value   int
	cluster int
}

// tenantLoad hammers /v1/assign/{model} for every model round-robin per
// worker, alternating the JSON and binary codecs. Every non-200 is a
// failure; every 200 is recorded for the correctness sweep.
func tenantLoad(t *testing.T, url string, models []string, workers int, stop <-chan struct{}) (*sync.WaitGroup, *[]tenantObservation, *[]string) {
	t.Helper()
	var mu sync.Mutex
	obs := &[]tenantObservation{}
	failures := &[]string{}
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := models[rng.Intn(len(models))]
				k := rng.Intn(6)
				start := time.Now()
				var body []byte
				contentType := "application/json"
				binary := i%2 == 1
				if binary {
					// Value index == item id under the single-attribute
					// schema, so the binary codec probes the same point.
					body = wire.AppendRequest(nil, []dataset.Transaction{dataset.NewTransaction(dataset.Item(k))})
					contentType = wire.ContentType
				} else {
					body = []byte(fmt.Sprintf(`{"records":[["v%d"]]}`, k))
				}
				resp, err := client.Post(url+"/v1/assign/"+name, contentType, bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					*failures = append(*failures, fmt.Sprintf("%s: %v", name, err))
					mu.Unlock()
					continue
				}
				payload, _ := io.ReadAll(resp.Body)
				seqHeader := resp.Header.Get(daemon.ModelSeqHeader)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					mu.Lock()
					*failures = append(*failures, fmt.Sprintf("%s: status %d: %s", name, resp.StatusCode, payload))
					mu.Unlock()
					continue
				}
				var seq uint64
				fmt.Sscanf(seqHeader, "%d", &seq)
				var cluster int
				if binary {
					asg, err := wire.DecodeResponse(payload, nil)
					if err != nil || len(asg) != 1 {
						mu.Lock()
						*failures = append(*failures, fmt.Sprintf("%s: bad binary payload: %v", name, err))
						mu.Unlock()
						continue
					}
					cluster = asg[0].Cluster
				} else {
					var ar struct {
						Assignments []struct {
							Cluster int `json:"cluster"`
						} `json:"assignments"`
					}
					if err := json.Unmarshal(payload, &ar); err != nil || len(ar.Assignments) != 1 {
						mu.Lock()
						*failures = append(*failures, fmt.Sprintf("%s: bad payload %s: %v", name, payload, err))
						mu.Unlock()
						continue
					}
					cluster = ar.Assignments[0].Cluster
				}
				mu.Lock()
				*obs = append(*obs, tenantObservation{start: start, model: name, seq: seq, value: k, cluster: cluster})
				mu.Unlock()
			}
		}(w)
	}
	return &wg, obs, failures
}

// reloadModel walks one model's rolling reload through the gateway.
func reloadModel(t *testing.T, url, name string) (gate.ReloadFleetResponse, time.Time) {
	t.Helper()
	resp, err := http.Post(url+"/v1/reload/"+name, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rolling reload of %s: %d (%s)", name, resp.StatusCode, payload)
	}
	var rr gate.ReloadFleetResponse
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatal(err)
	}
	return rr, time.Now()
}

// TestMultitenantChaosDrill is the full drill described in the package
// comment above.
func TestMultitenantChaosDrill(t *testing.T) {
	root := t.TempDir()
	models := []string{"alpha", "beta", "gamma"}
	bases := map[string]int{"alpha": 0, "beta": 100, "gamma": 200}
	weighted := map[string]bool{"gamma": true}

	dirs := map[string]*model.Dir{}
	// expect[model][seq] is the ground-truth answer table.
	expect := map[string]map[uint64][6]int{}
	for _, name := range models {
		if err := os.MkdirAll(filepath.Join(root, name), 0o755); err != nil {
			t.Fatal(err)
		}
		d, err := model.OpenDir(store.OS, filepath.Join(root, name), "model", 0)
		if err != nil {
			t.Fatal(err)
		}
		dirs[name] = d
		gen1 := tenantSnapshot(bases[name], 0, weighted[name])
		ent, err := d.Save(gen1)
		if err != nil {
			t.Fatal(err)
		}
		expect[name] = map[uint64][6]int{ent.Seq: tenantTruth(t, gen1)}
	}

	replicas := []*replica{
		startRegistryReplica(t, root, ""),
		startRegistryReplica(t, root, ""),
	}
	g := gate.New(gate.Config{
		Backends:      []string{replicas[0].url(), replicas[1].url()},
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  time.Second,
		RetryRatio:    0.5,
		RetryBurst:    32,
		DrainTimeout:  2 * time.Second,
		ReloadTimeout: 5 * time.Second,
	}, log.New(io.Discard, "", 0))
	defer g.Close()
	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gsrv := &http.Server{Handler: g}
	go gsrv.Serve(gl)
	defer gsrv.Close()
	gurl := "http://" + gl.Addr().String()

	waitUntil(t, 10*time.Second, "fleet live with per-model seqs", func() bool {
		fr := fleetView(t, gurl)
		for _, r := range fr.Replicas {
			if r.State != "live" || r.Models["gamma"] == 0 {
				return false
			}
		}
		return len(fr.Replicas) == 2
	})

	stop := make(chan struct{})
	wg, obs, failures := tenantLoad(t, gurl, models, 6, stop)
	time.Sleep(150 * time.Millisecond)

	// Storm phase 1: alpha and gamma publish new generations and roll
	// through per-model reloads CONCURRENTLY — distinct models must not
	// serialize, and beta's traffic keeps flowing untouched throughout.
	finalSeq := map[string]uint64{}
	reloadDone := map[string]time.Time{}
	var seqMu sync.Mutex
	var storm sync.WaitGroup
	for _, name := range []string{"alpha", "gamma"} {
		gen2 := tenantSnapshot(bases[name], 10, weighted[name])
		ent, err := dirs[name].Save(gen2)
		if err != nil {
			t.Fatal(err)
		}
		seqMu.Lock()
		expect[name][ent.Seq] = tenantTruth(t, gen2)
		finalSeq[name] = ent.Seq
		seqMu.Unlock()
		storm.Add(1)
		go func(name string, wantSeq uint64) {
			defer storm.Done()
			rr, done := reloadModel(t, gurl, name)
			seqMu.Lock()
			reloadDone[name] = done
			seqMu.Unlock()
			if !rr.OK || rr.Model != name || rr.Seq != wantSeq {
				t.Errorf("reload of %s: %+v, want ok at seq %d", name, rr, wantSeq)
			}
		}(name, ent.Seq)
	}
	storm.Wait()
	if t.Failed() {
		close(stop)
		wg.Wait()
		t.FailNow()
	}

	// Storm phase 2: kill one replica cold mid-load, restart it on the
	// same address. Its fresh registry lazily reloads every model from the
	// shared root — already at the new generations.
	time.Sleep(100 * time.Millisecond)
	victimAddr := replicas[1].addr
	replicas[1].kill()
	waitUntil(t, 10*time.Second, "victim ejection", func() bool {
		for _, r := range fleetView(t, gurl).Replicas {
			if r.URL == "http://"+victimAddr {
				return r.State == "ejected"
			}
		}
		return false
	})
	replicas[1] = startRegistryReplica(t, root, victimAddr)
	waitUntil(t, 10*time.Second, "victim reinstatement on new seqs", func() bool {
		for _, r := range fleetView(t, gurl).Replicas {
			if r.URL == "http://"+victimAddr {
				return r.State == "live" && r.Models["alpha"] == finalSeq["alpha"] && r.Models["gamma"] == finalSeq["gamma"]
			}
		}
		return false
	})

	// Storm phase 3: beta publishes and rolls across the restarted fleet.
	gen2 := tenantSnapshot(bases["beta"], 10, false)
	ent, err := dirs["beta"].Save(gen2)
	if err != nil {
		t.Fatal(err)
	}
	expect["beta"][ent.Seq] = tenantTruth(t, gen2)
	finalSeq["beta"] = ent.Seq
	rr, done := reloadModel(t, gurl, "beta")
	reloadDone["beta"] = done
	if !rr.OK || rr.Seq != ent.Seq {
		t.Fatalf("reload of beta after restart: %+v", rr)
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(*failures) > 0 {
		t.Fatalf("%d failed assignments during chaos; first: %s", len(*failures), (*failures)[0])
	}
	if len(*obs) == 0 {
		t.Fatal("no traffic flowed")
	}

	// Correctness sweep: every answer against its (model, generation)
	// truth table; any cross-tenant mixing lands in the wrong cluster-id
	// range and fails here. Stale sweep: after a model's reload completed,
	// only its new generation may answer.
	wrong, stale := 0, 0
	byModel := map[string]int{}
	perModelNew := map[string]int{}
	for _, o := range *obs {
		byModel[o.model]++
		want, ok := expect[o.model][o.seq]
		if !ok {
			t.Fatalf("%s answer claims unknown seq %d", o.model, o.seq)
		}
		if o.cluster != want[o.value] {
			wrong++
			if wrong <= 3 {
				t.Errorf("wrong answer: %s v%d under seq %d gave cluster %d, want %d", o.model, o.value, o.seq, o.cluster, want[o.value])
			}
		}
		if done, ok := reloadDone[o.model]; ok && o.start.After(done) {
			if o.seq != finalSeq[o.model] {
				stale++
				if stale <= 3 {
					t.Errorf("%s request started %s after its reload served by stale seq %d", o.model, o.start.Sub(done), o.seq)
				}
			} else {
				perModelNew[o.model]++
			}
		}
	}
	if wrong > 0 || stale > 0 {
		t.Fatalf("%d wrong answers, %d stale answers out of %d", wrong, stale, len(*obs))
	}
	for _, name := range models {
		if byModel[name] == 0 {
			t.Fatalf("no traffic ever reached model %s: %v", name, byModel)
		}
		if perModelNew[name] == 0 {
			t.Fatalf("no answer ever came from %s's new generation", name)
		}
	}
	t.Logf("%d answers, per model: %v", len(*obs), byModel)

	// The LRU budget (2 models resident, 3 in traffic) must have been
	// churning: the survivor replica's registry reports evictions.
	resp, err := http.Get(replicas[0].url() + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var mr daemon.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var evictions uint64
	for _, info := range mr.Models {
		evictions += info.Evictions
	}
	if evictions == 0 {
		t.Error("no LRU evictions under a 2-of-3 model budget; the drill did not exercise eviction churn")
	}

	// Fleet steady state: uniform per-model generations, no skew, no
	// lingering transitions.
	fr := fleetView(t, gurl)
	if len(fr.ModelSkew) != 0 || len(fr.ModelTransitioning) != 0 {
		t.Fatalf("fleet after chaos: skew %v transitioning %v", fr.ModelSkew, fr.ModelTransitioning)
	}
	for _, name := range models {
		if fr.ModelMaxSeq[name] != finalSeq[name] {
			t.Fatalf("fleet max seq for %s is %d, want %d", name, fr.ModelMaxSeq[name], finalSeq[name])
		}
	}
}
