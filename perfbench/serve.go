package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rock"
	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/experiments"
	"rock/internal/model"
	"rock/internal/sample"
	"rock/internal/serve"
	"rock/internal/store"
	"rock/internal/wire"
)

// serveShape sizes the serving workload.
type serveShape struct {
	corpusDiv   int           // basket corpus = Table 5 shrunk by this factor
	trainSample int           // transactions each model is trained on
	pool        int           // request batches, replayed in order
	cache       int           // rockd answer-cache entries
	openRate    float64       // open-loop arrivals, batches per second
	reloadEvery time.Duration // publish cadence during both phases
}

const (
	serveBatch = 128 // transactions per request
	serveZipfS = 1.1 // popularity skew of the request stream
	serveConns = 2   // client connections = load goroutines
)

func serveShapeFor(tiny bool) serveShape {
	if tiny {
		return serveShape{corpusDiv: 20, trainSample: 500, pool: 64, cache: 256, openRate: 200, reloadEvery: 300 * time.Millisecond}
	}
	// openRate is pinned, never recalibrated: about half the closed-loop
	// capacity (batches/s through the gateway) measured on a 2-CPU machine
	// when the benchmark was written.
	return serveShape{corpusDiv: 2, trainSample: 2000, pool: 512, cache: 4096, openRate: 1100, reloadEvery: time.Second}
}

// serveFixture is one set-up: the corpus, two trained model generations,
// the request pool with every expected response precomputed, and a running
// rockd behind a running rockgate.
type serveFixture struct {
	shape    serveShape
	corpus   []dataset.Transaction
	snaps    [2]*model.Snapshot
	batches  [][]int  // corpus indices of each request
	bodies   [][]byte // binary request bodies
	expect   [2][][]byte
	distinct int

	dir               *model.Dir
	rockd, gate       *child
	rockdURL, gateURL string
}

func (f *serveFixture) close() {
	if f.gate != nil {
		f.gate.stop()
	}
	if f.rockd != nil {
		f.rockd.stop()
	}
}

// serverCPU is the CPU time both servers have used so far.
func (f *serveFixture) serverCPU() float64 {
	return cpuSeconds(f.rockd.cmd.Process.Pid) + cpuSeconds(f.gate.cmd.Process.Pid)
}

// modelOf maps a generation to the snapshot it serves: generations
// alternate between the two trained models, starting with the first.
func modelOf(seq uint64) int { return int((seq - 1) % 2) }

func setupServe(e *env, rockdBin, gateBin, dir string) (*serveFixture, error) {
	sh := serveShapeFor(e.tiny)
	f := &serveFixture{shape: sh}
	data := datagen.Basket(datagen.ScaledBasketConfig(sh.corpusDiv), rand.New(rand.NewSource(e.seed+1_000_003)))
	f.corpus = data.Txns

	ccfg := experiments.SyntheticPipelineConfig(sh.trainSample, 0.5, e.seed).Cluster
	var assigners [2]*model.Assigner
	for m := range f.snaps {
		idx := sample.Indices(len(f.corpus), sh.trainSample, rand.New(rand.NewSource(e.seed*2+int64(m))))
		sub := make([]dataset.Transaction, len(idx))
		for i, p := range idx {
			sub[i] = f.corpus[p]
		}
		res, err := rock.ClusterTransactions(sub, ccfg)
		if err != nil {
			return nil, fmt.Errorf("training model %d: %w", m, err)
		}
		lab, err := rock.NewLabeler(sub, res, ccfg, rock.LabelerConfig{Seed: e.seed + int64(m)})
		if err != nil {
			return nil, err
		}
		if f.snaps[m], err = lab.Snapshot(); err != nil {
			return nil, err
		}
		if assigners[m], err = model.Compile(f.snaps[m]); err != nil {
			return nil, err
		}
	}

	// The request pool: Zipf-skewed draws, so a few transactions are hot
	// and the long tail outgrows the answer cache.
	zipf := rand.NewZipf(rand.New(rand.NewSource(e.seed+77)), serveZipfS, 1, uint64(len(f.corpus)-1))
	answers := [2]map[int]serve.Assignment{{}, {}}
	f.batches = make([][]int, sh.pool)
	f.bodies = make([][]byte, sh.pool)
	txns := make([]dataset.Transaction, serveBatch)
	for b := range f.batches {
		f.batches[b] = make([]int, serveBatch)
		for i := range txns {
			p := int(zipf.Uint64())
			f.batches[b][i] = p
			txns[i] = f.corpus[p]
			for m, a := range assigners {
				if _, ok := answers[m][p]; !ok {
					c, s := a.Assign(f.corpus[p])
					answers[m][p] = serve.Assignment{Cluster: c, Score: s}
				}
			}
		}
		f.bodies[b] = wire.AppendRequest(nil, txns)
	}
	f.distinct = len(answers[0])
	out := make([]serve.Assignment, serveBatch)
	for m := range f.expect {
		f.expect[m] = make([][]byte, sh.pool)
		for b, idx := range f.batches {
			for i, p := range idx {
				out[i] = answers[m][p]
			}
			f.expect[m][b] = wire.AppendResponse(nil, out)
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if f.dir, err = model.OpenDir(store.OS, dir, "model", 4); err != nil {
		return nil, err
	}
	if _, err := f.dir.Save(f.snaps[0]); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	f.rockd, f.rockdURL, err = startServer(e, "rockd", rockdBin, filepath.Join(dir, "rockd.log"), "/readyz",
		func(addr string) []string {
			return []string{"-addr", addr, "-dir", dir, "-cache", strconv.Itoa(sh.cache)}
		},
		func(b []byte) bool {
			var rd struct {
				Ready bool
				Seq   uint64
			}
			return json.Unmarshal(b, &rd) == nil && rd.Ready && rd.Seq == 1
		})
	if err != nil {
		return nil, err
	}
	f.gate, f.gateURL, err = startServer(e, "rockgate", gateBin, filepath.Join(dir, "rockgate.log"), "/v1/fleet",
		func(addr string) []string { return []string{"-addr", addr, "-backends", f.rockdURL} },
		func(b []byte) bool {
			var fl struct {
				MaxSeq   uint64 `json:"max_seq"`
				Replicas []struct{ State string }
			}
			return json.Unmarshal(b, &fl) == nil && fl.MaxSeq == 1 && len(fl.Replicas) == 1
		})
	if err != nil {
		return nil, err
	}
	if err := waitReady(e.ctx, f.gate, f.gateURL+"/readyz", nil); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// startServer starts a server on a free loopback port and polls path until
// ready accepts it, retrying on a new port if the first one was taken.
func startServer(e *env, name, bin, logPath, path string, args func(addr string) []string, ready func([]byte) bool) (*child, string, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, "", err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		c, err := startChild(name, bin, args(addr), logPath)
		if err != nil {
			return nil, "", err
		}
		url := "http://" + addr
		if lastErr = waitReady(e.ctx, c, url+path, ready); lastErr == nil {
			return c, url, nil
		}
		c.stop()
		if e.ctx.Err() != nil {
			break
		}
	}
	return nil, "", lastErr
}

// loadClient drives the fleet and checks every answer.
type loadClient struct {
	fx *serveFixture
	hc *http.Client
	tr *tracer

	acked   atomic.Uint64 // newest generation whose reload was acknowledged
	maxSeen atomic.Uint64 // newest generation any answer has carried

	mu        sync.Mutex
	firstSeen map[uint64]time.Time // when each generation first answered

	requests, non200, wrong, stale atomic.Int64
}

func newLoadClient(fx *serveFixture, tr *tracer) *loadClient {
	c := &loadClient{
		fx: fx, tr: tr, firstSeen: map[uint64]time.Time{},
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns, DisableCompression: true,
		}},
	}
	c.acked.Store(1)
	c.maxSeen.Store(1)
	return c
}

func (c *loadClient) failures() int {
	return int(c.non200.Load() + c.wrong.Load() + c.stale.Load())
}

// assign posts request batch b to base's /v1/assign and checks the answer:
// 200, byte-equal to the precomputed response of the generation it names,
// and not older than a generation acknowledged before it was sent.
func (c *loadClient) assign(base, spanName string, parent, b int, buf *bytes.Buffer) {
	ackedAtSend := c.acked.Load()
	c.requests.Add(1)
	id := c.tr.begin(spanName, parent)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/assign", bytes.NewReader(c.fx.bodies[b]))
	if err != nil {
		panic(err) // the URL is ours; only a bug gets here
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(id)
		c.non200.Add(1)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.tr.end(id)
	if err != nil || resp.StatusCode != http.StatusOK {
		c.non200.Add(1)
		return
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Rock-Model-Seq"), 10, 64)
	if err != nil || seq == 0 || !bytes.Equal(buf.Bytes(), c.fx.expect[modelOf(seq)][b]) {
		c.wrong.Add(1)
		return
	}
	if seq < ackedAtSend {
		c.stale.Add(1)
		return
	}
	if seq > c.maxSeen.Load() {
		c.mu.Lock()
		if _, ok := c.firstSeen[seq]; !ok {
			c.firstSeen[seq] = time.Now()
		}
		if seq > c.maxSeen.Load() {
			c.maxSeen.Store(seq)
		}
		c.mu.Unlock()
	}
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	dur       time.Duration
	requests  int
	latency   []float64 // seconds; open loop: from the due time
	byDue     []float64 // open loop: latency of the i-th scheduled request
	lateness  []float64 // open loop: how late each request was sent
	passTimes []float64 // closed loop: seconds per pass over the pool
}

func (p *phaseStats) txnPerSec() float64 {
	return ratio(float64(p.requests*serveBatch), p.dur.Seconds())
}

// closedLoop runs serveConns clients back to back against base for d.
func (c *loadClient) closedLoop(ctx context.Context, base, spanName string, d time.Duration, parent int) *phaseStats {
	ps := &phaseStats{}
	pool := len(c.fx.bodies)
	var (
		mu       sync.Mutex
		done     int
		lastPass time.Time
		wg       sync.WaitGroup
	)
	start := time.Now()
	lastPass = start
	deadline := start.Add(d)
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			var lat []float64
			for b := w * pool / serveConns; ctx.Err() == nil && time.Now().Before(deadline); b = (b + 1) % pool {
				t := time.Now()
				c.assign(base, spanName, parent, b, &buf)
				now := time.Now()
				lat = append(lat, now.Sub(t).Seconds())
				mu.Lock()
				done++
				if done%pool == 0 {
					ps.passTimes = append(ps.passTimes, now.Sub(lastPass).Seconds())
					lastPass = now
				}
				mu.Unlock()
			}
			mu.Lock()
			ps.latency = append(ps.latency, lat...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	ps.dur = time.Since(start)
	ps.requests = done
	return ps
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// spread over serveConns connections, timing each from its due time.
func (c *loadClient) openLoop(ctx context.Context, base, spanName string, rate float64, d time.Duration, parent int) *phaseStats {
	ps := &phaseStats{}
	pool := len(c.fx.bodies)
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	n := int(d / period)
	ps.byDue = make([]float64, n)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var lat, late []float64
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := start.Add(time.Duration(i) * period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late = append(late, time.Since(due).Seconds())
				c.assign(base, spanName, parent, i%pool, &buf)
				ps.byDue[i] = time.Since(due).Seconds()
				lat = append(lat, ps.byDue[i])
			}
			mu.Lock()
			ps.latency = append(ps.latency, lat...)
			ps.lateness = append(ps.lateness, late...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ps.dur = time.Since(start)
	ps.requests = len(ps.latency)
	ps.byDue = ps.byDue[:ps.requests]
	return ps
}

// reloader publishes a new generation every interval until stopped: save
// the next snapshot into the model directory, then reload rockd.
type reloader struct {
	c       *loadClient
	every   time.Duration
	started map[uint64]time.Time
	times   []float64 // seconds from save to reload acknowledged
	errs    []string
	stop    chan struct{}
	done    chan struct{}
}

func (c *loadClient) startReloader(every time.Duration) *reloader {
	r := &reloader{c: c, every: every, started: map[uint64]time.Time{},
		stop: make(chan struct{}), done: make(chan struct{})}
	go r.run()
	return r
}

func (r *reloader) run() {
	defer close(r.done)
	t := time.NewTicker(r.every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if err := r.publish(); err != nil {
				r.errs = append(r.errs, err.Error())
			}
		}
	}
}

// halt stops the reloader and waits for it.
func (r *reloader) halt() {
	close(r.stop)
	<-r.done
}

func (r *reloader) publish() error {
	fx, tr := r.c.fx, r.c.tr
	seq := r.c.acked.Load() + 1
	start := time.Now()
	root := tr.begin("publish", 0)
	defer tr.end(root)
	var entry model.Entry
	var err error
	tr.do("model.Dir.Save", root, func() { entry, err = fx.dir.Save(fx.snaps[modelOf(seq)]) })
	if err != nil {
		return fmt.Errorf("saving generation %d: %w", seq, err)
	}
	if entry.Seq != seq {
		return fmt.Errorf("saved generation %d, want %d", entry.Seq, seq)
	}
	r.c.mu.Lock()
	r.started[seq] = start
	r.c.mu.Unlock()
	id := tr.begin("rockd POST /v1/reload", root)
	resp, err := r.c.hc.Post(fx.rockdURL+"/v1/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		tr.end(id)
		return fmt.Errorf("reloading generation %d: %w", seq, err)
	}
	var rr struct {
		OK  bool   `json:"ok"`
		Seq uint64 `json:"seq"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	tr.end(id)
	if derr != nil || resp.StatusCode != http.StatusOK || !rr.OK || rr.Seq != seq {
		return fmt.Errorf("reload of generation %d: status %d, seq %d, %v", seq, resp.StatusCode, rr.Seq, derr)
	}
	r.c.acked.Store(seq)
	return nil
}

// publishTimes is, per reload, the time from the save starting to the first
// answer the new generation gave.
func (r *reloader) publishTimes() []float64 {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	var out []float64
	for seq, t := range r.started {
		if seen, ok := r.c.firstSeen[seq]; ok {
			out = append(out, seen.Sub(t).Seconds())
		}
	}
	return out
}

// scrape reads a Prometheus text exposition into name → value (unlabeled
// series only).
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// counters is the daemon and gateway counter state at one instant.
type counters struct{ hits, misses, shed, retries, hedges float64 }

func readCounters(fx *serveFixture) (counters, error) {
	d, err := scrape(fx.rockdURL)
	if err != nil {
		return counters{}, fmt.Errorf("scraping rockd: %w", err)
	}
	g, err := scrape(fx.gateURL)
	if err != nil {
		return counters{}, fmt.Errorf("scraping rockgate: %w", err)
	}
	return counters{
		hits: d["rockd_cache_hits_total"], misses: d["rockd_cache_misses_total"], shed: d["rockd_shed_total"],
		retries: g["rockgate_retries_total"], hedges: g["rockgate_hedges_total"],
	}, nil
}

func (a counters) sub(b counters) counters {
	return counters{a.hits - b.hits, a.misses - b.misses, a.shed - b.shed, a.retries - b.retries, a.hedges - b.hedges}
}

// runServeZipf: client → rockgate → rockd over loopback, binary codec,
// Zipf-skewed batches, a closed-loop then an open-loop phase, with a new
// model generation published every few seconds throughout.
func runServeZipf(e *env) (*result, error) {
	r := newResult()
	rockdBin, gateBin, err := buildBinaries(e.ctx, e.root, filepath.Join(e.work, "bin"))
	if err != nil {
		return nil, err
	}
	var fx *serveFixture
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	fleets := 0
	err = timeSetup(r, func() error {
		if fx != nil {
			fx.close()
			fx = nil
		}
		f, err := setupServe(e, rockdBin, gateBin, filepath.Join(e.work, fmt.Sprintf("fleet-%d", fleets)))
		fleets++
		fx = f
		return err
	})
	if err != nil {
		return nil, err
	}
	sh := fx.shape
	r.input("corpus_txns", len(fx.corpus))
	r.input("train_sample", sh.trainSample)
	r.input("pool_batches", sh.pool)
	r.input("batch", serveBatch)
	r.input("distinct_txns", fx.distinct)
	r.input("cache", sh.cache)
	r.input("zipf_s", serveZipfS)
	r.input("open_rate_batches_per_s", sh.openRate)
	r.input("reload_every", sh.reloadEvery)

	tr := (*tracer)(nil)
	if e.trace {
		tr = newTracer()
	}
	cl := newLoadClient(fx, tr)
	defer cl.hc.CloseIdleConnections()
	warm := min(500*time.Millisecond, e.budget/10)
	cl.closedLoop(e.ctx, fx.gateURL, "", warm, 0)
	before, err := readCounters(fx)
	if err != nil {
		return nil, err
	}
	rl := cl.startReloader(sh.reloadEvery)
	var closed, open *phaseStats
	if e.trace {
		closed, open = traceServePhases(e, r, cl, tr)
	} else {
		cpu0 := fx.serverCPU()
		closed = cl.closedLoop(e.ctx, fx.gateURL, "", e.budget/2, 0)
		r.set("cpu_us_per_txn", 1e6*(fx.serverCPU()-cpu0)/float64(closed.requests*serveBatch), closed.requests)
		open = cl.openLoop(e.ctx, fx.gateURL, "", sh.openRate, e.budget/2-warm, 0)
	}
	rl.halt()
	after, err := readCounters(fx)
	if err != nil {
		return nil, err
	}
	delta := after.sub(before)

	reloads := len(rl.started) + len(rl.errs)
	r.attempted = int(cl.requests.Load()) + reloads
	r.failed = cl.failures() + len(rl.errs) + int(delta.retries+delta.shed)
	r.gate("answers", cl.failures() == 0, "%d requests: %d non-200, %d wrong, %d stale",
		cl.requests.Load(), cl.non200.Load(), cl.wrong.Load(), cl.stale.Load())
	r.gate("reloads", len(rl.errs) == 0 && len(rl.started) > 0, "%d published, errors: %v", len(rl.started), rl.errs)
	r.gate("no retries or sheds", delta.retries == 0 && delta.shed == 0,
		"gateway retries %.0f, rockd sheds %.0f", delta.retries, delta.shed)

	pubs := rl.publishTimes()
	hitRatio := ratio(delta.hits, delta.hits+delta.misses)
	r.note("closed loop: %d requests in %.2fs, %.0f txn/s, latency p50 %.3fms p90 %.3fms (n=%d); pass p25 %.4fs p50 %.4fs p75 %.4fs (n=%d)",
		closed.requests, closed.dur.Seconds(), closed.txnPerSec(),
		percentile(closed.latency, 50)*1000, percentile(closed.latency, 90)*1000, len(closed.latency),
		percentile(closed.passTimes, 25), percentile(closed.passTimes, 50), percentile(closed.passTimes, 75), len(closed.passTimes))
	r.note("open loop: %.0f batches/s pinned, %d requests in %.2fs, latency from due p50 %.3fms p90 %.3fms p99 %.3fms (n=%d)",
		sh.openRate, open.requests, open.dur.Seconds(), percentile(open.latency, 50)*1000,
		percentile(open.latency, 90)*1000, percentile(open.latency, 99)*1000, len(open.latency))
	r.note("open loop generator lateness p50 %.3fms p90 %.3fms max %.3fms (n=%d)",
		percentile(open.lateness, 50)*1000, percentile(open.lateness, 90)*1000, percentile(open.lateness, 100)*1000, len(open.lateness))
	r.note("publishes: %d, save→first answer p50 %.2fms max %.2fms (n=%d); cache hit ratio %.4f; hedges %.0f",
		len(rl.started), median(pubs)*1000, percentile(pubs, 100)*1000, len(pubs), hitRatio, delta.hedges)

	r.set("gate.retries", delta.retries, 1)
	r.set("gate.hedges", delta.hedges, 1)
	r.set("daemon.shed", delta.shed, 1)
	r.set("serve.cache_hit_ratio", hitRatio, int(delta.hits+delta.misses))
	r.set("proc.peak_rss_mb", peakRSSMB(fx.rockd.cmd.Process.Pid), 1)
	r.set("client.late_p90_ms", percentile(open.lateness, 90)*1000, len(open.lateness))
	// Medians over passes and over one-second windows: a host stall
	// spoils the pass or window it lands in, not the run's figure.
	if !e.trace {
		r.set("run.wall_s", median(closed.passTimes), len(closed.passTimes))
		r.set("run.txn_per_s", float64(len(fx.bodies)*serveBatch)/median(closed.passTimes), len(closed.passTimes))
	}
	perWindow := int(sh.openRate)
	p50, windows := windowedPercentile(open.byDue, perWindow, 50)
	p90, _ := windowedPercentile(open.byDue, perWindow, 90)
	r.set("run.p50_ms", p50*1000, windows)
	r.set("run.p90_ms", p90*1000, windows)
	r.set("run.publish_ms", median(pubs)*1000, len(pubs))
	r.spans = tr.snapshot()
	return r, nil
}

// traceServePhases is the traced run's load: in-process timings of the
// layers rockd runs per request, an untraced and a traced closed loop for
// the overhead, a traced open loop, and the gateway hop measured as the
// difference between sequential requests through the gateway and straight
// to rockd.
func traceServePhases(e *env, r *result, cl *loadClient, tr *tracer) (closed, open *phaseStats) {
	fx := cl.fx
	layerTimings(r, fx)
	phase := e.budget / 5
	// Spans are recorded in this process, so the overhead is its CPU time
	// per request, traced against untraced.
	cpu0, client0 := fx.serverCPU(), cpuSeconds(0)
	plain := cl.closedLoop(e.ctx, fx.gateURL, "", phase, 0)
	plainClient := ratio(cpuSeconds(0)-client0, float64(plain.requests))
	r.set("cpu_us_per_txn", 1e6*(fx.serverCPU()-cpu0)/float64(plain.requests*serveBatch), plain.requests)
	r.set("run.wall_s", median(plain.passTimes), len(plain.passTimes))
	r.set("run.txn_per_s", float64(len(fx.bodies)*serveBatch)/median(plain.passTimes), len(plain.passTimes))
	root := tr.begin("closed-loop", 0)
	client0 = cpuSeconds(0)
	closed = cl.closedLoop(e.ctx, fx.gateURL, "rockgate POST /v1/assign", phase, root)
	tracedClient := ratio(cpuSeconds(0)-client0, float64(closed.requests))
	tr.end(root)
	r.set("trace.overhead_pct", 100*(ratio(tracedClient, plainClient)-1), closed.requests)
	r.note("tracing overhead: client CPU %.1fus per request untraced vs %.1fus traced; closed loop %.0f vs %.0f txn/s",
		plainClient*1e6, tracedClient*1e6, plain.txnPerSec(), closed.txnPerSec())

	root = tr.begin("open-loop", 0)
	open = cl.openLoop(e.ctx, fx.gateURL, "rockgate POST /v1/assign", fx.shape.openRate, phase, root)
	tr.end(root)

	// The hop: one connection, one request at a time, alternating blocks
	// through the gateway and direct, so drift hits both sides alike.
	var viaGate, direct []float64
	var buf bytes.Buffer
	hopEnd := time.Now().Add(phase)
	for b := 0; time.Now().Before(hopEnd) && e.ctx.Err() == nil; b++ {
		for _, side := range []struct {
			url, span string
			out       *[]float64
		}{{fx.gateURL, "rockgate POST /v1/assign", &viaGate}, {fx.rockdURL, "rockd POST /v1/assign", &direct}} {
			root := tr.begin("hop", 0)
			t := time.Now()
			cl.assign(side.url, side.span, root, b%len(fx.bodies), &buf)
			*side.out = append(*side.out, time.Since(t).Seconds())
			tr.end(root)
		}
	}
	hop := (median(viaGate) - median(direct)) * 1000
	r.set("gate.hop_p50_ms", hop, len(viaGate))
	r.note("gateway hop: p50 %.3fms via rockgate (n=%d) - %.3fms direct (n=%d) = %.3fms",
		median(viaGate)*1000, len(viaGate), median(direct)*1000, len(direct), hop)
	return closed, open
}

// layerTimings times, in this process, the calls rockd makes per request:
// compile a generation, decode a binary request, assign with the compiled
// model, encode the response.
func layerTimings(r *result, fx *serveFixture) {
	var compiles []float64
	var a *model.Assigner
	for i := 0; i < 10; i++ {
		t := time.Now()
		var err error
		if a, err = model.Compile(fx.snaps[i%2]); err != nil {
			r.gate("compile", false, "%v", err)
			return
		}
		compiles = append(compiles, time.Since(t).Seconds())
	}
	r.set("model.compile_ms", median(compiles)*1000, len(compiles))

	n := len(fx.bodies) * serveBatch
	var txns []dataset.Transaction
	var items []dataset.Item
	t := time.Now()
	for _, body := range fx.bodies {
		var err error
		if txns, items, err = wire.DecodeRequest(body, txns[:0], items[:0]); err != nil {
			r.gate("decode", false, "%v", err)
			return
		}
	}
	r.set("wire.decode_ns_per_txn", float64(time.Since(t).Nanoseconds())/float64(n), n)

	out := make([]serve.Assignment, serveBatch)
	t = time.Now()
	for _, idx := range fx.batches {
		for i, p := range idx {
			out[i].Cluster, out[i].Score = a.Assign(fx.corpus[p])
		}
	}
	r.set("model.assign_ns_per_txn", float64(time.Since(t).Nanoseconds())/float64(n), n)

	var resp []byte
	t = time.Now()
	for range fx.batches {
		resp = wire.AppendResponse(resp[:0], out)
	}
	r.set("wire.encode_ns_per_txn", float64(time.Since(t).Nanoseconds())/float64(n), n)
}
