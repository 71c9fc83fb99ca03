package gate_test

// Fleet chaos tests: real daemon replicas (full rockd handler stack, real
// TCP listeners so a replica can be killed and restarted on the same
// address) behind a real gateway, under client load, while the fleet's
// snapshot generation advances through a coordinated rolling reload.
//
// The invariants checked are the serving tier's contract from the paper's
// labeling phase (§4.5): every client request is answered (the gateway
// absorbs replica death with retries and health ejection), every answer is
// the one the advertised model generation would give (cross-checked
// against a directly compiled Assigner), and once a rolling reload
// completes the fleet never serves mixed generations.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"rock/internal/daemon"
	"rock/internal/dataset"
	"rock/internal/gate"
	"rock/internal/model"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/store"
)

// fleetSnapshot builds the same tiny categorical model the daemon chaos
// tests use: one attribute "v" with six values; v0..v2 label cluster
// 0+shift, v3..v5 label cluster 1+shift. The shift distinguishes model
// generations, so a response reveals which generation served it.
func fleetSnapshot(shift int) *model.Snapshot {
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

// expectedClusters maps value index -> cluster for one generation by asking
// a directly compiled Assigner — the ground truth the fleet is checked
// against.
func expectedClusters(t *testing.T, shift int) [6]int {
	t.Helper()
	a, err := model.Compile(fleetSnapshot(shift))
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

// replica is one in-process rockd on a real listener, so it can be killed
// (listener and connections torn down) and restarted on the same address.
type replica struct {
	addr string
	srv  *http.Server
	eng  *serve.Engine
	once sync.Once
}

func (r *replica) url() string { return "http://" + r.addr }

// kill is idempotent: a manually killed replica is also torn down by the
// test's cleanup list.
func (r *replica) kill() {
	r.once.Do(func() {
		r.srv.Close()
		r.eng.Close()
	})
}

// startReplica boots a daemon over the shared snapshot directory and loads
// its newest generation. addr "" picks a fresh port; passing a previous
// replica's addr restarts "the same machine".
func startReplica(t *testing.T, dirPath, addr string) *replica {
	t.Helper()
	dir, err := model.OpenDir(store.OS, dirPath, "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.OpenDir(registry.Config{}, "default", dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.New(0)
	h := daemon.New(eng, log.New(io.Discard, "", 0), daemon.Config{Registry: reg})
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

	resp, err := http.Post(r.url()+"/v1/reload", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatalf("initial reload on %s: %v", r.addr, err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("initial reload on %s: %d (%s)", r.addr, resp.StatusCode, payload)
	}
	return r
}

// observation is one client-visible answer: when the request started, which
// generation claimed it (seq header), and the cluster returned for value k.
type observation struct {
	start   time.Time
	seq     uint64
	value   int
	cluster int
}

// clientLoad runs closed-loop workers against the gateway until stop is
// closed. Every non-200 is a failure — the whole point of the tier is that
// replica churn stays invisible — and every 200 is recorded for the
// correctness sweep.
func clientLoad(t *testing.T, url string, workers int, stop <-chan struct{}) (*sync.WaitGroup, *[]observation, *[]string) {
	t.Helper()
	var mu sync.Mutex
	obs := &[]observation{}
	failures := &[]string{}
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(6)
				start := time.Now()
				body := fmt.Sprintf(`{"records":[["v%d"]]}`, k)
				resp, err := client.Post(url+"/v1/assign", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					mu.Lock()
					*failures = append(*failures, err.Error())
					mu.Unlock()
					continue
				}
				payload, _ := io.ReadAll(resp.Body)
				seqHeader := resp.Header.Get(daemon.ModelSeqHeader)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					mu.Lock()
					*failures = append(*failures, fmt.Sprintf("status %d: %s", resp.StatusCode, payload))
					mu.Unlock()
					continue
				}
				var ar struct {
					Assignments []struct {
						Cluster int `json:"cluster"`
					} `json:"assignments"`
				}
				var seq uint64
				fmt.Sscanf(seqHeader, "%d", &seq)
				if err := json.Unmarshal(payload, &ar); err != nil || len(ar.Assignments) != 1 {
					mu.Lock()
					*failures = append(*failures, fmt.Sprintf("bad payload %s: %v", payload, err))
					mu.Unlock()
					continue
				}
				mu.Lock()
				*obs = append(*obs, observation{start: start, seq: seq, value: k, cluster: ar.Assignments[0].Cluster})
				mu.Unlock()
			}
		}(w)
	}
	return &wg, obs, failures
}

// checkObservations sweeps every answer against the ground-truth tables and
// enforces the no-mixed-generations rule for requests started after the
// rolling reload completed.
func checkObservations(t *testing.T, obs []observation, expect map[uint64][6]int, reloadDone time.Time, finalSeq uint64) {
	t.Helper()
	wrong, stale := 0, 0
	bySeq := map[uint64]int{}
	for _, o := range obs {
		bySeq[o.seq]++
		want, ok := expect[o.seq]
		if !ok {
			t.Fatalf("response claims unknown model seq %d", o.seq)
		}
		if o.cluster != want[o.value] {
			wrong++
			if wrong <= 3 {
				t.Errorf("wrong answer: v%d under seq %d gave cluster %d, want %d", o.value, o.seq, o.cluster, want[o.value])
			}
		}
		if o.start.After(reloadDone) && o.seq != finalSeq {
			stale++
			if stale <= 3 {
				t.Errorf("request started %s after reload completion served by stale seq %d", o.start.Sub(reloadDone), o.seq)
			}
		}
	}
	if wrong > 0 || stale > 0 {
		t.Fatalf("%d wrong answers, %d stale-generation answers out of %d", wrong, stale, len(obs))
	}
	if bySeq[finalSeq] == 0 {
		t.Fatalf("no answer ever came from the new generation %d: %v", finalSeq, bySeq)
	}
	t.Logf("%d answers, per generation: %v", len(obs), bySeq)
}

func fleetView(t *testing.T, url string) gate.FleetResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fr gate.FleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func rollingReload(t *testing.T, url string) (gate.ReloadFleetResponse, time.Time) {
	t.Helper()
	resp, err := http.Post(url+"/v1/reload", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rolling reload: %d (%s)", resp.StatusCode, payload)
	}
	var rr gate.ReloadFleetResponse
	if err := json.Unmarshal(payload, &rr); err != nil {
		t.Fatal(err)
	}
	return rr, time.Now()
}

// TestGatewayChaosReplicaRestartDuringRollingReload is the full drill: 3
// replicas under client load; one is killed mid-load; the snapshot
// directory advances a generation; a rolling reload walks the two
// survivors (skipping the corpse); the dead replica is restarted on its
// old address and rejoins at the new generation. Zero failed assignments,
// zero wrong answers, no mixed generations after the reload completes.
func TestGatewayChaosReplicaRestartDuringRollingReload(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill takes ~2s of wall clock")
	}
	dirPath := t.TempDir()
	seedDir, err := model.OpenDir(store.OS, dirPath, "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	gen1, err := seedDir.Save(fleetSnapshot(0))
	if err != nil {
		t.Fatal(err)
	}

	replicas := []*replica{
		startReplica(t, dirPath, ""),
		startReplica(t, dirPath, ""),
		startReplica(t, dirPath, ""),
	}
	g := gate.New(gate.Config{
		Backends:      []string{replicas[0].url(), replicas[1].url(), replicas[2].url()},
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

	expect := map[uint64][6]int{
		gen1.Seq:     expectedClusters(t, 0),
		gen1.Seq + 1: expectedClusters(t, 10),
	}

	waitUntil(t, 2*time.Second, "fleet live", func() bool {
		fr := fleetView(t, gurl)
		live := 0
		for _, r := range fr.Replicas {
			if r.State == "live" {
				live++
			}
		}
		return live == 3
	})

	stop := make(chan struct{})
	wg, obs, failures := clientLoad(t, gurl, 4, stop)

	time.Sleep(150 * time.Millisecond)

	// Kill one replica cold: listener closed, in-flight connections reset.
	victimAddr := replicas[2].addr
	replicas[2].kill()

	// The new generation lands in the shared snapshot directory.
	gen2, err := seedDir.Save(fleetSnapshot(10))
	if err != nil {
		t.Fatal(err)
	}
	if gen2.Seq != gen1.Seq+1 {
		t.Fatalf("generation seq %d after %d", gen2.Seq, gen1.Seq)
	}

	// Let health checking eject the corpse, then roll the survivors.
	waitUntil(t, 2*time.Second, "victim ejection", func() bool {
		for _, r := range fleetView(t, gurl).Replicas {
			if r.URL == "http://"+victimAddr {
				return r.State == "ejected"
			}
		}
		return false
	})
	rr, reloadDone := rollingReload(t, gurl)
	if !rr.OK || rr.Seq != gen2.Seq {
		t.Fatalf("rolling reload report: %+v", rr)
	}
	skipped := 0
	for _, r := range rr.Replicas {
		if r.Skipped {
			skipped++
			if r.URL != "http://"+victimAddr {
				t.Fatalf("reload skipped the wrong replica: %+v", r)
			}
		}
	}
	if skipped != 1 {
		t.Fatalf("reload skipped %d replicas, want exactly the corpse", skipped)
	}

	// Resurrect the victim on its old address; it loads the new generation
	// and has to earn its way back through probation.
	time.Sleep(100 * time.Millisecond)
	replicas[2] = startReplica(t, dirPath, victimAddr)
	waitUntil(t, 3*time.Second, "victim reinstatement", func() bool {
		for _, r := range fleetView(t, gurl).Replicas {
			if r.URL == "http://"+victimAddr {
				return r.State == "live" && r.Seq == gen2.Seq
			}
		}
		return false
	})

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(*failures) > 0 {
		t.Fatalf("%d failed assignments during chaos; first: %s", len(*failures), (*failures)[0])
	}
	if len(*obs) == 0 {
		t.Fatal("no traffic flowed")
	}
	checkObservations(t, *obs, expect, reloadDone, gen2.Seq)

	fr := fleetView(t, gurl)
	if fr.SkewDetected || fr.MaxSeq != gen2.Seq || fr.Transitioning {
		t.Fatalf("fleet after chaos: %+v", fr)
	}
	for _, r := range fr.Replicas {
		if r.State != "live" || r.Seq != gen2.Seq {
			t.Fatalf("replica %s ended %s at seq %d, want live at %d", r.URL, r.State, r.Seq, gen2.Seq)
		}
	}
}

// TestGatewaySmokeKillOneAndRollingReload is the CI-sized drill: 2
// replicas under load, one killed and restarted, then a rolling reload to
// the next generation — traffic must never fail and the fleet must end
// uniform on the new seq.
func TestGatewaySmokeKillOneAndRollingReload(t *testing.T) {
	dirPath := t.TempDir()
	seedDir, err := model.OpenDir(store.OS, dirPath, "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	gen1, err := seedDir.Save(fleetSnapshot(0))
	if err != nil {
		t.Fatal(err)
	}

	replicas := []*replica{startReplica(t, dirPath, ""), startReplica(t, dirPath, "")}
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

	expect := map[uint64][6]int{
		gen1.Seq:     expectedClusters(t, 0),
		gen1.Seq + 1: expectedClusters(t, 10),
	}

	waitUntil(t, 2*time.Second, "fleet live", func() bool {
		fr := fleetView(t, gurl)
		live := 0
		for _, r := range fr.Replicas {
			if r.State == "live" {
				live++
			}
		}
		return live == 2
	})

	stop := make(chan struct{})
	wg, obs, failures := clientLoad(t, gurl, 3, stop)

	time.Sleep(100 * time.Millisecond)
	victimAddr := replicas[1].addr
	replicas[1].kill()
	time.Sleep(100 * time.Millisecond) // survivor carries the fleet alone
	replicas[1] = startReplica(t, dirPath, victimAddr)
	waitUntil(t, 3*time.Second, "victim reinstatement", func() bool {
		for _, r := range fleetView(t, gurl).Replicas {
			if r.URL == "http://"+victimAddr {
				return r.State == "live"
			}
		}
		return false
	})

	gen2, err := seedDir.Save(fleetSnapshot(10))
	if err != nil {
		t.Fatal(err)
	}
	rr, reloadDone := rollingReload(t, gurl)
	if !rr.OK || rr.Seq != gen2.Seq {
		t.Fatalf("rolling reload report: %+v", rr)
	}

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(*failures) > 0 {
		t.Fatalf("%d failed assignments during smoke; first: %s", len(*failures), (*failures)[0])
	}
	checkObservations(t, *obs, expect, reloadDone, gen2.Seq)

	fr := fleetView(t, gurl)
	if fr.SkewDetected || fr.MaxSeq != gen2.Seq {
		t.Fatalf("fleet after smoke: %+v", fr)
	}
}
