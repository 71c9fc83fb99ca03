package stream_test

// The stream-soak drill: rockstream's full loop against a live fleet.
//
//	drifting generator -> POST /v1/ingest -> Clusterer -> Publisher
//	    -> model.Dir -> rolling reload through rockgate -> 2 x rockd
//
// Mid-stream the generator rotates a large fraction of every cluster's
// vocabulary. The drill then requires: at least two generations published,
// the drift score (rolling outlier rate) spiking at the rotation and
// recovering as the pool promotes the new vocabulary, and — after the final
// generation lands — zero wrong and zero stale answers through the gateway
// against a directly compiled assigner of that generation. The CI
// stream-soak job runs this under the race detector.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"rock/internal/daemon"
	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/gate"
	"rock/internal/model"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/store"
	"rock/internal/stream"
	"rock/internal/train"
)

func soakDivisor() int {
	if v := os.Getenv("ROCKSTREAM_SOAK_DIVISOR"); v != "" {
		if d, err := strconv.Atoi(v); err == nil && d >= 1 {
			return d
		}
	}
	return 10
}

type soakReplica struct {
	addr string
	srv  *http.Server
	eng  *serve.Engine
}

func startSoakReplica(t *testing.T, dirPath string) *soakReplica {
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
	r := &soakReplica{addr: l.Addr().String(), srv: &http.Server{Handler: h}, eng: eng}
	go r.srv.Serve(l)
	t.Cleanup(func() { r.srv.Close(); r.eng.Close() })
	if _, err := train.PostReload(nil, "http://"+r.addr); err != nil {
		t.Fatalf("initial reload on %s: %v", r.addr, err)
	}
	return r
}

func soakWaitLive(t *testing.T, gurl string, want int) {
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

func TestStreamSoak(t *testing.T) {
	div := soakDivisor()
	total := 40000 / div
	driftAt := total / 2

	gen := datagen.NewDriftStream(datagen.DriftConfig{
		Basket:     datagen.ScaledBasketConfig(100),
		DriftEvery: driftAt,
		DriftFrac:  0.4,
	}, rand.New(rand.NewSource(41)))

	c := stream.New(stream.Config{
		Theta:          0.5,
		ReclusterEvery: 128,
		MinPromote:     8,
		WindowSize:     512,
		Seed:           6,
	})
	dirPath := t.TempDir()
	dir, err := model.OpenDir(store.OS, dirPath, "model", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap: absorb the first quarter of the stream and publish
	// generation 1, so the replicas have something to serve from birth.
	warmup := total / 4
	for i := 0; i < warmup; i++ {
		txn, _ := gen.Next()
		c.Observe(txn)
	}

	// The fleet: two replicas behind a gateway; every publish rolls the
	// fleet through the gateway URL.
	replicasReady := func() (string, func()) {
		r1 := startSoakReplica(t, dirPath)
		r2 := startSoakReplica(t, dirPath)
		g := gate.New(gate.Config{
			Backends:      []string{"http://" + r1.addr, "http://" + r2.addr},
			ProbeInterval: 5 * time.Millisecond,
			ProbeTimeout:  time.Second,
			DrainTimeout:  2 * time.Second,
			ReloadTimeout: 10 * time.Second,
		}, log.New(io.Discard, "", 0))
		gl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		gsrv := &http.Server{Handler: g}
		go gsrv.Serve(gl)
		cleanup := func() { gsrv.Close(); g.Close() }
		return "http://" + gl.Addr().String(), cleanup
	}

	// Generation 1 via a fleetless bootstrap publisher — the replicas need
	// a snapshot to load before the gateway can consider them live.
	boot := stream.NewPublisher(c, stream.PublishConfig{Dir: dir, MinWindow: 256})
	if _, err := boot.TryPublish(context.Background()); err != nil {
		t.Fatalf("bootstrap publish: %v", err)
	}

	gurl, stopFleet := replicasReady()
	defer stopFleet()
	soakWaitLive(t, gurl, 2)

	// The real publisher: count-cadenced, rolling the fleet through the
	// gateway on every generation.
	pub := stream.NewPublisher(c, stream.PublishConfig{
		Dir:           dir,
		Fleet:         []string{gurl},
		Interval:      100 * time.Millisecond,
		EveryAbsorbed: int64(total / 8),
		MinWindow:     256,
		Reload:        train.ReloadOptions{Attempts: 3, Timeout: 5 * time.Second},
	})

	// Run the continuous publisher.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pubDone := make(chan struct{})
	go func() { pub.Run(ctx); close(pubDone) }()

	// rockstream's own HTTP surface: the rest of the stream arrives as
	// ingest POSTs, batched like a real producer would send them.
	ssrv := &http.Server{Handler: stream.NewServer(c, pub)}
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ssrv.Serve(sl)
	defer ssrv.Close()
	surl := "http://" + sl.Addr().String()

	client := &http.Client{Timeout: 10 * time.Second}
	postBatch := func(batch []dataset.Transaction) {
		t.Helper()
		var b strings.Builder
		for _, txn := range batch {
			for i, it := range txn {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(strconv.Itoa(int(it)))
			}
			b.WriteByte('\n')
		}
		resp, err := client.Post(surl+"/v1/ingest", "text/plain", strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
	}
	driftScore := func() float64 {
		resp, err := client.Get(surl + "/v1/stream")
		if err != nil {
			t.Fatal(err)
		}
		var si stream.StreamInfo
		err = json.NewDecoder(resp.Body).Decode(&si)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return si.DriftScore
	}

	const batchSize = 200
	preRate, spikeRate, endRate := 0.0, 0.0, 0.0
	fed := warmup
	for fed < total {
		n := batchSize
		if fed+n > total {
			n = total - fed
		}
		batch := make([]dataset.Transaction, n)
		for i := range batch {
			batch[i], _ = gen.Next()
		}
		postBatch(batch)
		fed += n
		rate := driftScore()
		switch {
		case gen.Rotations() == 0:
			preRate = rate
		default:
			if rate > spikeRate {
				spikeRate = rate
			}
			endRate = rate
		}
	}
	cancel()
	<-pubDone

	// Drift must have been visible and must have healed: the rolling
	// outlier rate spiked when the vocabulary rotated and came back down
	// once the pool promoted the new vocabulary into clusters.
	t.Logf("drift score: pre %.3f, spike %.3f, end %.3f", preRate, spikeRate, endRate)
	if gen.Rotations() == 0 {
		t.Fatal("generator never rotated")
	}
	if spikeRate < preRate+0.2 {
		t.Fatalf("rotation did not move the drift score: pre %.3f, spike %.3f", preRate, spikeRate)
	}
	if endRate > spikeRate/2 || endRate > 0.35 {
		t.Fatalf("outlier rate did not recover after drift: spike %.3f, end %.3f", spikeRate, endRate)
	}

	// The final generation: published after recovery, guard must pass.
	finalEntry, err := pub.TryPublish(context.Background())
	if err != nil {
		t.Fatalf("final publish: %v", err)
	}
	finalSnap := pub.LastSnapshot()
	if got := c.Metrics().Generations.Load(); got < 2 {
		t.Fatalf("only %d generations published, want >= 2", got)
	}
	if ents, _ := dir.List(); len(ents) < 2 {
		t.Fatalf("model dir holds %d generations, want >= 2", len(ents))
	}

	// Zero wrong, zero stale: post-drift draws through the gateway must
	// match a directly compiled assigner of the final generation, served
	// by exactly that generation.
	truth, err := model.Compile(finalSnap)
	if err != nil {
		t.Fatal(err)
	}
	wrong, stale := 0, 0
	const checks = 200
	for i := 0; i < checks; i++ {
		txn, _ := gen.Next()
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
		}
		if got, _ := strconv.ParseUint(seqHeader, 10, 64); got != finalEntry.Seq {
			stale++
		}
	}
	if wrong > 0 || stale > 0 {
		t.Fatalf("%d wrong, %d stale answers out of %d", wrong, stale, checks)
	}
	t.Logf("soak: %d arrivals (divisor %d), %d generations, final seq %d, %d clusters, %d checks clean",
		total, div, c.Metrics().Generations.Load(), finalEntry.Seq, len(finalSnap.Sets), checks)
}
