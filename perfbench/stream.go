package main

import (
	"fmt"
	"math/rand"
	"time"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/stream"
)

// streamShape sizes the drifting-stream workload.
type streamShape struct {
	basketDiv    int     // cluster shapes: Table 5 shrunk by this factor
	driftEvery   int     // arrivals between vocabulary rotations
	driftFrac    float64 // share of each cluster's items replaced per rotation
	arrivals     int     // arrivals per pass
	publishEvery int     // arrivals between snapshot + compile
}

func streamShapeFor(tiny bool) streamShape {
	if tiny {
		return streamShape{basketDiv: 100, driftEvery: 1000, driftFrac: 0.4, arrivals: 4000, publishEvery: 1000}
	}
	return streamShape{basketDiv: 10, driftEvery: 5000, driftFrac: 0.4, arrivals: 60000, publishEvery: 5000}
}

func streamConfig(seed int64) stream.Config {
	return stream.Config{Theta: 0.5, ReclusterEvery: 128, MinPromote: 8, Seed: seed}
}

// streamPass is one pass of a fresh clusterer over the arrivals.
type streamPass struct {
	wall, publish           time.Duration
	cpu                     float64   // CPU-seconds of the whole pass
	observe                 []float64 // seconds per Observe
	absorbedLat, pooledLat  []float64
	reclusterLat            []float64 // Observe calls that ran a pool re-cluster
	snapshots, compiles     []float64
	pubTimes                []float64 // seconds per publish
	poolSizes               []float64
	absorbed, pure          int
	reclusters              int64
	publishes, publishFails int
	publishErr              error
}

// runPass feeds every arrival to a new stream.Clusterer, publishing a
// snapshot (BuildSnapshot, Validate, model.Compile) every publishEvery
// arrivals. With a tracer, each call gets a span.
func runPass(sh streamShape, seed int64, txns []dataset.Transaction, labels []int, tr *tracer) *streamPass {
	p := &streamPass{observe: make([]float64, 0, len(txns))}
	c := stream.New(streamConfig(seed))
	m := c.Metrics()
	// majority[cluster][label] counts absorbed arrivals for purity.
	counts := map[int]map[int]int{}
	root := tr.begin("stream-drift", 0)
	cpu0, start := cpuSeconds(0), time.Now()
	for i, t := range txns {
		before := m.Reclusters.Load()
		id := tr.begin("stream.Clusterer.Observe", root)
		s := time.Now()
		d := c.Observe(t)
		el := time.Since(s).Seconds()
		tr.end(id)
		p.observe = append(p.observe, el)
		if d.Absorbed {
			p.absorbedLat = append(p.absorbedLat, el)
			byLabel := counts[d.Cluster]
			if byLabel == nil {
				byLabel = map[int]int{}
				counts[d.Cluster] = byLabel
			}
			byLabel[labels[i]]++
			p.absorbed++
		} else {
			p.pooledLat = append(p.pooledLat, el)
		}
		if m.Reclusters.Load() != before {
			p.reclusterLat = append(p.reclusterLat, el)
		}
		if (i+1)%sh.publishEvery == 0 {
			p.publishOnce(c, tr, root)
		}
	}
	tr.end(root)
	p.wall = time.Since(start)
	p.cpu = cpuSeconds(0) - cpu0
	p.reclusters = m.Reclusters.Load()
	for _, byLabel := range counts {
		best := 0
		for _, n := range byLabel {
			best = max(best, n)
		}
		p.pure += best
	}
	return p
}

func (p *streamPass) publishOnce(c *stream.Clusterer, tr *tracer, root int) {
	s := time.Now()
	var snap *model.Snapshot
	p.snapshots = append(p.snapshots, tr.do("stream.Clusterer.BuildSnapshot", root, func() { snap = c.BuildSnapshot() }).Seconds())
	err := snap.Validate()
	if err == nil {
		p.compiles = append(p.compiles, tr.do("model.Compile", root, func() { _, err = model.Compile(snap) }).Seconds())
	}
	el := time.Since(s)
	p.publish += el
	p.pubTimes = append(p.pubTimes, el.Seconds())
	p.publishes++
	if err != nil {
		p.publishFails++
		p.publishErr = err
	}
	_, poolSize, _ := c.Stats()
	p.poolSizes = append(p.poolSizes, float64(poolSize))
}

func (p *streamPass) foldRate() float64 {
	return ratio(float64(len(p.observe)), (p.wall - p.publish).Seconds())
}

func (p *streamPass) purity() float64 { return ratio(float64(p.pure), float64(p.absorbed)) }

// setStreamMetrics fills the run metrics from untraced passes and returns
// every Observe latency, in seconds.
func setStreamMetrics(r *result, passes []*streamPass) []float64 {
	var walls, rates, cpus, lat, pubs []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, p.foldRate())
		cpus = append(cpus, p.cpu*1e6/float64(len(p.observe)))
		lat = append(lat, p.observe...)
		pubs = append(pubs, p.pubTimes...)
	}
	r.set("cpu_us_per_txn", median(cpus), len(cpus))
	r.set("run.wall_s", median(walls), len(walls))
	r.set("run.txn_per_s", median(rates), len(rates))
	r.set("run.p50_ms", percentile(lat, 50)*1000, len(lat))
	r.set("run.p90_ms", percentile(lat, 90)*1000, len(lat))
	r.set("run.publish_ms", median(pubs)*1000, len(pubs))
	return lat
}

// runStreamDrift: stream.Clusterer.Observe over a drifting basket stream
// (scale 10, 40% of each vocabulary rotated every 5000 arrivals, 60k
// arrivals), snapshot + compile every 5000 arrivals.
func runStreamDrift(e *env) (*result, error) {
	r := newResult()
	sh := streamShapeFor(e.tiny)
	var txns []dataset.Transaction
	var labels []int
	timeSetup(r, func() error {
		gen := datagen.NewDriftStream(datagen.DriftConfig{
			Basket: datagen.ScaledBasketConfig(sh.basketDiv), DriftEvery: sh.driftEvery, DriftFrac: sh.driftFrac,
		}, rand.New(rand.NewSource(e.seed)))
		txns = make([]dataset.Transaction, sh.arrivals)
		labels = make([]int, sh.arrivals)
		for j := range txns {
			txns[j], labels[j] = gen.Next()
		}
		return nil
	})
	r.input("arrivals", sh.arrivals)
	r.input("basket_scale", fmt.Sprintf("1/%d", sh.basketDiv))
	r.input("drift_every", sh.driftEvery)
	r.input("drift_frac", sh.driftFrac)
	r.input("publish_every", sh.publishEvery)

	checkPass := func(p *streamPass) {
		r.attempted += len(p.observe) + p.publishes
		r.failed += p.publishFails
		r.gate("snapshots validate and compile", p.publishFails == 0, "%d of %d failed (last: %v)",
			p.publishFails, p.publishes, p.publishErr)
		pure := p.purity()
		r.gate("absorbed purity", pure >= 0.99, "%.4f of %d absorbed arrivals pure (limit 0.99)", pure, p.absorbed)
	}

	if e.trace {
		settle()
		plain := runPass(sh, e.seed, txns, labels, nil)
		checkPass(plain)
		setStreamMetrics(r, []*streamPass{plain})
		settle()
		tr := newTracer()
		p := runPass(sh, e.seed, txns, labels, tr)
		checkPass(p)
		r.spans = tr.snapshot()
		rows := selfTimes(r.spans)
		r.set("stream.absorb_ratio", ratio(float64(p.absorbed), float64(len(p.observe))), len(p.observe))
		r.set("stream.absorbed_p50_us", median(p.absorbedLat)*1e6, len(p.absorbedLat))
		r.set("stream.pooled_p50_us", median(p.pooledLat)*1e6, len(p.pooledLat))
		r.set("stream.observe_p99_us", percentile(p.observe, 99)*1e6, len(p.observe))
		r.set("stream.reclusters", float64(p.reclusters), 1)
		r.set("stream.recluster_ms", median(p.reclusterLat)*1000, len(p.reclusterLat))
		r.set("stream.pool_size", median(p.poolSizes), len(p.poolSizes))
		r.set("stream.snapshot_ms", median(p.snapshots)*1000, len(p.snapshots))
		r.set("model.compile_ms", median(p.compiles)*1000, len(p.compiles))
		setOverhead(r, rows, timing{plain.wall, plain.cpu}, timing{p.wall, p.cpu}, []string{"stream.Clusterer.Observe",
			"stream.Clusterer.BuildSnapshot", "model.Compile"})
		return r, nil
	}

	var passes []*streamPass
	start := time.Now()
	var last time.Duration
	for i := 0; untilBudget(start, e.budget, last, i); i++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		settle()
		p := runPass(sh, e.seed, txns, labels, nil)
		last = p.wall
		checkPass(p)
		passes = append(passes, p)
	}
	lat := setStreamMetrics(r, passes)
	r.note("per-Observe p99 %.3fms (n=%d)", percentile(lat, 99)*1000, len(lat))
	return r, nil
}
