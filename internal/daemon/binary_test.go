package daemon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rock/internal/daemon"
	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/serve"
	"rock/internal/wire"
)

// postBinary sends one binary-codec assign request and returns the status,
// raw payload, and response Content-Type.
func postBinary(t *testing.T, url string, txns []dataset.Transaction) (int, []byte, string) {
	t.Helper()
	body := wire.AppendRequest(nil, txns)
	resp, err := http.Post(url, wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload, resp.Header.Get("Content-Type")
}

// TestBinaryAssignMatchesJSON is the codec-equivalence gate: the same
// probes sent through the binary wire format and through JSON must produce
// bit-identical assignments.
func TestBinaryAssignMatchesJSON(t *testing.T) {
	_, path := trainSnapshot(t, t.TempDir(), 6, 1)
	srv := startDaemon(t, path)

	fresh := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(41)))
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
		t.Fatalf("json assign returned %d: %s", status, payload)
	}
	var jsonResp daemon.AssignResponse
	if err := json.Unmarshal(payload, &jsonResp); err != nil {
		t.Fatal(err)
	}

	status, payload, ct := postBinary(t, srv.URL+"/v1/assign", probes)
	if status != http.StatusOK {
		t.Fatalf("binary assign returned %d: %s", status, payload)
	}
	if ct != wire.ContentType {
		t.Fatalf("binary response Content-Type = %q, want %q", ct, wire.ContentType)
	}
	binResp, err := wire.DecodeResponse(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(binResp) != len(jsonResp.Assignments) {
		t.Fatalf("binary %d assignments, json %d", len(binResp), len(jsonResp.Assignments))
	}
	for i := range binResp {
		if binResp[i] != jsonResp.Assignments[i] {
			t.Fatalf("probe %d: binary %+v, json %+v", i, binResp[i], jsonResp.Assignments[i])
		}
	}
}

// TestBinaryAssignNormalizes checks the binary path applies the same
// normalization the JSON path does: unsorted, duplicated items answer
// exactly like their canonical form.
func TestBinaryAssignNormalizes(t *testing.T) {
	_, path := trainSnapshot(t, t.TempDir(), 6, 1)
	srv := startDaemon(t, path)

	fresh := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(42)))
	canon := fresh.Txns[:50]
	messy := make([]dataset.Transaction, len(canon))
	rng := rand.New(rand.NewSource(43))
	for i, tx := range canon {
		m := make(dataset.Transaction, 0, 2*len(tx))
		m = append(m, tx...)
		m = append(m, tx...) // duplicate every item
		rng.Shuffle(len(m), func(a, b int) { m[a], m[b] = m[b], m[a] })
		messy[i] = m
	}
	status, wantPayload, _ := postBinary(t, srv.URL+"/v1/assign", canon)
	if status != http.StatusOK {
		t.Fatalf("canonical assign returned %d", status)
	}
	status, gotPayload, _ := postBinary(t, srv.URL+"/v1/assign", messy)
	if status != http.StatusOK {
		t.Fatalf("messy assign returned %d", status)
	}
	if !bytes.Equal(wantPayload, gotPayload) {
		t.Fatal("messy transactions answered differently from their canonical form")
	}
}

// TestBinaryAssignRejectsCorrupt: malformed binary bodies get a 400 with a
// JSON error payload, never a panic or a binary response.
func TestBinaryAssignRejectsCorrupt(t *testing.T) {
	_, path := trainSnapshot(t, t.TempDir(), 6, 1)
	srv := startDaemon(t, path)

	good := wire.AppendRequest(nil, []dataset.Transaction{{1, 2, 3}})
	cases := map[string][]byte{
		"empty":           {},
		"truncated":       good[:len(good)-1],
		"huge count":      {0xff, 0xff, 0xff, 0xff, 0x0f},
		"trailing":        append(append([]byte{}, good...), 0xaa),
		"overlong varint": {0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	}
	for name, body := range cases {
		resp, err := http.Post(srv.URL+"/v1/assign", wire.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: error Content-Type %q, want JSON", name, ct)
		}
		var e map[string]string
		if err := json.Unmarshal(payload, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error payload %q not a JSON error", name, payload)
		}
	}
}

// TestChaosBinaryCacheReloadUnderLoad is the drill the answer cache and
// binary codec must survive together: concurrent binary and JSON clients
// stream batches while a reloader flips between two model generations, with
// the answer cache enabled. Required outcome: zero wrong answers, zero
// stale answers (every batch is consistent with exactly one model
// generation), and the cache actually takes hits.
func TestChaosBinaryCacheReloadUnderLoad(t *testing.T) {
	tmp := t.TempDir()
	pathA := tmp + "/a.rockm"
	pathB := tmp + "/b.rockm"
	if err := model.Save(pathA, schemaSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	if err := model.Save(pathB, schemaSnapshot(10)); err != nil {
		t.Fatal(err)
	}
	_, srv, err := startOne(t, 0, pathA, 4096, daemon.Config{})
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

	// Probes repeat heavily so the cache sees hits; items 0..2 label the
	// low cluster, 3..5 the high one, under both generations (mod 10).
	probes := make([]dataset.Transaction, 120)
	for i := range probes {
		probes[i] = dataset.Transaction{dataset.Item(i % 2 * 3)} // alternate {0},{3}
	}
	checkBatch := func(asg []serve.Assignment) string {
		if len(asg) != len(probes) {
			return "short batch"
		}
		shift := -1
		for i, got := range asg {
			if got.Cluster%10 != i%2 {
				return fmt.Sprintf("probe %d assigned cluster %d: wrong answer", i, got.Cluster)
			}
			s := 0
			if got.Cluster >= 10 {
				s = 10
			}
			if shift == -1 {
				shift = s
			} else if s != shift {
				return "batch split across two models (stale cached answer)"
			}
		}
		return ""
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		binary := c%2 == 0
		go func() {
			defer wg.Done()
			jsonReq := daemon.AssignRequest{Transactions: make([][]int64, len(probes))}
			for i, p := range probes {
				jsonReq.Transactions[i] = []int64{int64(p[0])}
			}
			for b := 0; b < 30; b++ {
				var asg []serve.Assignment
				if binary {
					status, payload, _ := postBinary(t, srv.URL+"/v1/assign", probes)
					if status != http.StatusOK {
						fail <- fmt.Sprintf("binary assign: %d", status)
						return
					}
					var err error
					if asg, err = wire.DecodeResponse(payload, nil); err != nil {
						fail <- err.Error()
						return
					}
				} else {
					status, payload := postJSON(t, srv.URL+"/v1/assign", jsonReq)
					if status != http.StatusOK {
						fail <- fmt.Sprintf("json assign: %d (%s)", status, payload)
						return
					}
					var resp daemon.AssignResponse
					if err := json.Unmarshal(payload, &resp); err != nil {
						fail <- err.Error()
						return
					}
					asg = resp.Assignments
				}
				if msg := checkBatch(asg); msg != "" {
					fail <- msg
					return
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
	m := scrape(t, srv.URL)
	if m["rockd_reloads_total"] == 0 {
		t.Fatal("no reloads happened during the traffic window")
	}
	if m["rockd_cache_hits_total"] == 0 {
		t.Fatal("cache took no hits under a repeating workload")
	}
	t.Logf("chaos run: %.0f reloads, %.0f cache hits, %.0f misses, %.0f entries",
		m["rockd_reloads_total"], m["rockd_cache_hits_total"], m["rockd_cache_misses_total"], m["rockd_cache_entries"])
}
