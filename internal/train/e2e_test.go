package train_test

// End-to-end pipeline test: train -> publish into a versioned model.Dir ->
// serve from two rockd replicas behind rockgate -> retrain -> rolling
// fleet reload -> every answer through the gateway matches a directly
// compiled Assigner of the new generation, with zero wrong answers. This is
// the "no human in the path" loop of the training tier, exercised with real
// listeners so the CI train-e2e job can run it under -race.

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"rock/internal/daemon"
	"rock/internal/datagen"
	"rock/internal/gate"
	"rock/internal/model"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/store"
	"rock/internal/train"
)

// e2eDivisor scales the corpus: the default exercises ~11.5k transactions so
// `go test ./...` stays quick; the CI train-e2e job sets
// ROCKTRAIN_E2E_DIVISOR=1 for the full ~115k-transaction drill.
func e2eDivisor() int {
	if v := os.Getenv("ROCKTRAIN_E2E_DIVISOR"); v != "" {
		if d, err := strconv.Atoi(v); err == nil && d >= 1 {
			return d
		}
	}
	return 10
}

type e2eReplica struct {
	addr string
	srv  *http.Server
	eng  *serve.Engine
}

func startE2EReplica(t *testing.T, dirPath string) *e2eReplica {
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
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &e2eReplica{addr: l.Addr().String(), srv: &http.Server{Handler: h}, eng: eng}
	go r.srv.Serve(l)
	t.Cleanup(func() { r.srv.Close(); r.eng.Close() })
	if _, err := train.PostReload(nil, "http://"+r.addr); err != nil {
		t.Fatalf("initial reload on %s: %v", r.addr, err)
	}
	return r
}

func TestTrainPublishReloadE2E(t *testing.T) {
	div := e2eDivisor()
	rng := rand.New(rand.NewSource(11))
	d := datagen.Basket(datagen.ScaledBasketConfig(div), rng)

	// The corpus lives on disk, as it would in production; the trainer
	// streams it per pass through the binary store format.
	corpus := filepath.Join(t.TempDir(), "corpus.bin")
	if err := store.SaveBinary(corpus, d.Txns); err != nil {
		t.Fatal(err)
	}
	opener := func() (store.Scanner, io.Closer, error) {
		return store.OpenBinary(corpus)
	}

	// Generation 1: a quick bootstrap model from a prefix of the corpus —
	// the model the fleet is serving before the big training run lands.
	prefixLen := len(d.Txns) / 6
	if prefixLen > 2000 {
		prefixLen = 2000
	}
	prefix := d.Txns[:prefixLen]
	res1, err := train.Train(train.SliceOpener(prefix), train.Config{
		K: d.NumClusters(), Theta: 0.5, Shards: 1,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dirPath := t.TempDir()
	pubDir, err := model.OpenDir(store.OS, dirPath, "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	gen1, err := train.Publish(pubDir, res1.Snapshot)
	if err != nil {
		t.Fatal(err)
	}

	// Two replicas serving generation 1 behind the gateway.
	r1 := startE2EReplica(t, dirPath)
	r2 := startE2EReplica(t, dirPath)
	g := gate.New(gate.Config{
		Backends:      []string{"http://" + r1.addr, "http://" + r2.addr},
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  time.Second,
		DrainTimeout:  2 * time.Second,
		ReloadTimeout: 10 * time.Second,
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
	waitLive(t, gurl, 2)

	// Generation 2: the full sharded training run over the whole corpus,
	// published into the same directory the fleet serves from.
	res2, err := train.Train(opener, train.Config{
		K: d.NumClusters(), Theta: 0.5, Shards: 3,
		MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := train.Publish(pubDir, res2.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if gen2.Seq != gen1.Seq+1 {
		t.Fatalf("generation sequence %d after %d", gen2.Seq, gen1.Seq)
	}

	// Direct-to-fleet publish: one POST to the gateway rolling-reloads
	// every replica onto the new generation.
	seq, err := train.PostReload(nil, gurl)
	if err != nil {
		t.Fatal(err)
	}
	if seq != gen2.Seq {
		t.Fatalf("fleet reloaded to seq %d, want %d", seq, gen2.Seq)
	}

	// Zero wrong answers: a sample of the corpus through the gateway must
	// match a directly compiled Assigner of the new snapshot, and every
	// response must come from the new generation.
	truth, err := model.Compile(res2.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	wrong, stale := 0, 0
	checks := 300
	for i := 0; i < checks; i++ {
		txn := d.Txns[rng.Intn(len(d.Txns))]
		items := make([]int64, len(txn))
		for j, it := range txn {
			items[j] = int64(it)
		}
		body, _ := json.Marshal(daemon.AssignRequest{Transactions: [][]int64{items}})
		resp, err := client.Post(gurl+"/v1/assign", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		seqHeader := resp.Header.Get(daemon.ModelSeqHeader)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assign %d: status %d: %s", i, resp.StatusCode, payload)
		}
		var ar daemon.AssignResponse
		if err := json.Unmarshal(payload, &ar); err != nil || len(ar.Assignments) != 1 {
			t.Fatalf("assign %d: bad payload %s", i, payload)
		}
		wantCluster, _ := truth.Assign(txn)
		if ar.Assignments[0].Cluster != wantCluster {
			wrong++
			if wrong <= 3 {
				t.Errorf("assign %d: cluster %d, want %d", i, ar.Assignments[0].Cluster, wantCluster)
			}
		}
		if got, _ := strconv.ParseUint(seqHeader, 10, 64); got != gen2.Seq {
			stale++
			if stale <= 3 {
				t.Errorf("assign %d: served by generation %s, want %d", i, seqHeader, gen2.Seq)
			}
		}
	}
	if wrong > 0 || stale > 0 {
		t.Fatalf("%d wrong answers, %d stale-generation answers out of %d", wrong, stale, checks)
	}
	t.Logf("corpus %d txns (divisor %d), %d shards, gen %d -> %d, %d checks clean",
		len(d.Txns), div, res2.Shards, gen1.Seq, gen2.Seq, checks)
}

func waitLive(t *testing.T, gurl string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(gurl + "/v1/fleet")
		if err == nil {
			var fr gate.FleetResponse
			err = json.NewDecoder(resp.Body).Decode(&fr)
			resp.Body.Close()
			if err == nil {
				live := 0
				for _, r := range fr.Replicas {
					if r.State == "live" {
						live++
					}
				}
				if live == want {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never became live")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
