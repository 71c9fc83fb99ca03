package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"rock"
	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/experiments"
	"rock/internal/label"
	"rock/internal/links"
	"rock/internal/model"
	"rock/internal/rockcore"
	"rock/internal/sample"
	"rock/internal/sim"
	"rock/internal/simjoin"
)

// publishRepeats is how many times a paper run's result is turned into a
// compiled model; publish_ms is their median.
const publishRepeats = 21

// paperBasketShape is the Table 5 corpus and the Table 6 operating point.
func paperBasketShape(tiny bool) (datagen.BasketConfig, int) {
	if tiny {
		return datagen.ScaledBasketConfig(4), 1000
	}
	return datagen.DefaultBasketConfig(), 5000
}

// runPaperBasket runs rock.ClusterLarge — sample, ROCK on the sample, §4.6
// labeling of the rest — on the Table 5 basket corpus at sample 5000,
// θ=0.5, K=10.
func runPaperBasket(e *env) (*result, error) {
	r := newResult()
	shape, sampleSize := paperBasketShape(e.tiny)
	var data *datagen.BasketData
	timeSetup(r, func() error {
		data = datagen.Basket(shape, rand.New(rand.NewSource(e.seed)))
		return nil
	})
	pcfg := experiments.SyntheticPipelineConfig(sampleSize, 0.5, e.seed)
	clusterTxns := 0
	for _, l := range data.Labels {
		if l != datagen.OutlierLabel {
			clusterTxns++
		}
	}
	r.input("txns", len(data.Txns))
	r.input("cluster_txns", clusterTxns)
	r.input("sample", sampleSize)
	r.input("theta", pcfg.Cluster.Theta)
	r.input("K", pcfg.Cluster.K)

	// checkRun is the workload's correctness gate: K clusters found and at
	// most 0.1% of the cluster transactions misclassified (Table 6).
	checkRun := func(lr *rock.LargeResult) bool {
		found := len(lr.SampleResult.Clusters)
		mis := experiments.CountMisclassified(lr.Assign, data.Labels, found, data.NumClusters())
		ok := found == pcfg.Cluster.K && mis*1000 <= clusterTxns
		r.gate("basket clusters and misclassification", ok,
			"%d clusters (want %d), %d of %d cluster txns misclassified (limit 0.1%%)",
			found, pcfg.Cluster.K, mis, clusterTxns)
		return ok
	}

	if e.trace {
		return r, tracePaperBasket(e, r, data, pcfg, checkRun)
	}

	var walls, cpus, pubs []float64
	start := time.Now()
	var last time.Duration
	for i := 0; untilBudget(start, e.budget, last, i); i++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		settle()
		cpu0, t := cpuSeconds(0), time.Now()
		lr, err := rock.ClusterLarge(data.Txns, pcfg)
		last = time.Since(t)
		cpus = append(cpus, cpuSeconds(0)-cpu0)
		r.attempted++
		if err != nil || !checkRun(lr) {
			r.failed++
			if err != nil {
				r.gate("ClusterLarge", false, "%v", err)
			}
			continue
		}
		walls = append(walls, last.Seconds())
		for k := 0; k < publishRepeats; k++ {
			d, err := timePublish(func() (*model.Snapshot, error) { return lr.Labeler.Snapshot() })
			if err != nil {
				return nil, err
			}
			pubs = append(pubs, d)
		}
	}
	setBatchMetrics(r, walls, cpus, pubs, len(data.Txns))
	return r, nil
}

// settle collects the heap before a timed call, so garbage left by set-up
// or by the previous call does not decide when the collector runs inside it
// or how high resident memory peaks.
func settle() { runtime.GC() }

// setBatchMetrics fills a paper workload's run metrics: one operation is
// one clustering call over n transactions, taking walls seconds and cpus
// CPU-seconds.
func setBatchMetrics(r *result, walls, cpus, pubs []float64, n int) {
	if len(walls) == 0 {
		return
	}
	r.set("cpu_us_per_txn", median(cpus)*1e6/float64(n), len(cpus))
	r.set("run.wall_s", median(walls), len(walls))
	r.set("run.txn_per_s", float64(n)/median(walls), len(walls))
	r.set("run.p50_ms", percentile(walls, 50)*1000, len(walls))
	r.set("run.p90_ms", percentile(walls, 90)*1000, len(walls))
	if len(pubs) > 0 {
		r.set("run.publish_ms", median(pubs)*1000, len(pubs))
	}
}

// timePublish turns a clustering into a servable model — snapshot then
// model.Compile — and returns the seconds it took.
func timePublish(snapshot func() (*model.Snapshot, error)) (float64, error) {
	t := time.Now()
	snap, err := snapshot()
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if _, err := model.Compile(snap); err != nil {
		return 0, fmt.Errorf("compile: %w", err)
	}
	return time.Since(t).Seconds(), nil
}

// coreConfig mirrors rock.Config's translation to the engine's config, so
// the traced pipeline runs exactly what the exported call runs.
func coreConfig(c rock.Config) rockcore.Config {
	return rockcore.Config{
		K: c.K, Theta: c.Theta, F: c.F,
		MinNeighbors: c.MinNeighbors, StopMultiple: c.StopMultiple, MinClusterSize: c.MinClusterSize,
		DenseLimit: c.DenseLimit, Workers: c.Workers,
	}
}

// probeLinks times the link computation alone on the neighbor graph the
// engine would see (after MinNeighbors pruning). ClusterNeighbors computes
// links internally, so its merge-loop time is its duration minus this.
func probeLinks(tr *tracer, parent int, nb *links.Neighbors, cfg rockcore.Config) time.Duration {
	if cfg.MinNeighbors > 0 {
		if keep, out := nb.FilterMinDegree(cfg.MinNeighbors); len(out) > 0 {
			nb = nb.Subset(keep)
		}
	}
	dense := cfg.DenseLimit
	if dense == 0 {
		dense = links.DefaultDenseLimit
	}
	return tr.do("links.ComputeParallel", parent, func() {
		links.ComputeParallel(nb, dense, cfg.Workers)
	})
}

// tracePaperBasket is the traced run: one untraced rock.ClusterLarge for
// the overhead baseline, then the same pipeline composed from the layers'
// public functions with a span around each call. The composed run must
// assign every transaction exactly as ClusterLarge did.
func tracePaperBasket(e *env, r *result, data *datagen.BasketData, pcfg rock.PipelineConfig, checkRun func(*rock.LargeResult) bool) error {
	settle()
	cpu0, t := cpuSeconds(0), time.Now()
	lr, err := rock.ClusterLarge(data.Txns, pcfg)
	wall := time.Since(t)
	cpu := cpuSeconds(0) - cpu0
	r.attempted++
	if err != nil {
		return err
	}
	if !checkRun(lr) {
		r.failed++
	}
	setBatchMetrics(r, []float64{wall.Seconds()}, []float64{cpu}, nil, len(data.Txns))
	txns := data.Txns
	core := coreConfig(pcfg.Cluster)
	join := links.Config{Theta: core.Theta, Workers: core.Workers}
	tr := newTracer()

	// Probe outside the pipeline span: the link table on its own.
	probe := tr.begin("probe", 0)
	prng := rand.New(rand.NewSource(pcfg.Seed))
	pidx := sample.Indices(len(txns), pcfg.SampleSize, prng)
	psub := make([]dataset.Transaction, len(pidx))
	for i, p := range pidx {
		psub[i] = txns[p]
	}
	linksDur := probeLinks(tr, probe, simjoin.NewSource(psub, sim.Jaccard).ComputeNeighbors(join), core)
	tr.end(probe)

	settle()
	root := tr.begin("paper-basket", 0)
	cpu0, rootStart := cpuSeconds(0), time.Now()
	rng := rand.New(rand.NewSource(pcfg.Seed))
	var idx []int
	sub := make([]dataset.Transaction, pcfg.SampleSize)
	tr.do("sample.Indices", root, func() {
		idx = sample.Indices(len(txns), pcfg.SampleSize, rng)
		sub = sub[:len(idx)]
		for i, p := range idx {
			sub[i] = txns[p]
		}
	})
	var nb *links.Neighbors
	tr.do("simjoin.Source.ComputeNeighbors", root, func() {
		nb = simjoin.NewSource(sub, sim.Jaccard).ComputeNeighbors(join)
	})
	var res *rockcore.Result
	tr.do("rockcore.ClusterNeighbors", root, func() { res, err = rockcore.ClusterNeighbors(nb, core) })
	if err != nil {
		return err
	}
	var sets []label.Set
	tr.do("label.BuildSets", root, func() {
		sets, err = label.BuildSets(res.Clusters, label.Config{
			Fraction: pcfg.LabelFraction, MinPerCluster: 5, F: rockcore.DefaultF(core.Theta),
		}, rng)
	})
	if err != nil {
		return err
	}
	assign := make([]int, len(txns))
	for i := range assign {
		assign[i] = rock.OutlierCluster
	}
	inSample := make([]bool, len(txns))
	for c, members := range res.Clusters {
		for _, m := range members {
			assign[idx[m]] = c
		}
	}
	var todo []int
	for _, p := range idx {
		inSample[p] = true
	}
	for p := range txns {
		if !inSample[p] {
			todo = append(todo, p)
		}
	}
	labelDur := tr.do("label.AssignScore", root, func() {
		parallel(todo, func(p int) {
			assign[p], _ = label.AssignScore(sets, func(q int) bool {
				return sim.Jaccard(txns[p], sub[q]) >= core.Theta
			})
		})
	})
	tr.end(root)
	traced := timing{time.Since(rootStart), cpuSeconds(0) - cpu0}

	r.gate("traced pipeline matches rock.ClusterLarge", slices.Equal(assign, lr.Assign),
		"%d transactions compared", len(assign))
	outliers := 0
	for _, p := range todo {
		if assign[p] == rock.OutlierCluster {
			outliers++
		}
	}
	r.spans = tr.snapshot()
	rows := selfTimes(r.spans)
	r.set("simjoin.join_s", selfOf(rows, "simjoin.Source.ComputeNeighbors").Seconds(), 1)
	setCoreLayers(r, res, linksDur, selfOf(rows, "rockcore.ClusterNeighbors"))
	r.set("label.assign_s", labelDur.Seconds(), 1)
	r.set("label.txn_per_s", ratio(float64(len(todo)), labelDur.Seconds()), 1)
	r.set("label.outliers", float64(outliers), 1)
	setOverhead(r, rows, timing{wall, cpu}, traced, []string{"sample.Indices", "simjoin.Source.ComputeNeighbors",
		"rockcore.ClusterNeighbors", "label.BuildSets", "label.AssignScore"})
	return nil
}

// setCoreLayers fills the join-graph, link and merge-loop metrics.
func setCoreLayers(r *result, res *rockcore.Result, linksDur, clusterSelf time.Duration) {
	r.set("simjoin.max_degree", float64(res.Stats.MaxDegree), 1)
	r.set("simjoin.avg_degree", res.Stats.AvgDegree, 1)
	r.set("links.compute_s", linksDur.Seconds(), 1)
	r.set("links.link_pairs", float64(res.Stats.LinkPairs), 1)
	r.set("rockcore.merge_s", (clusterSelf - linksDur).Seconds(), 1)
	r.set("rockcore.merges", float64(res.Stats.Merges), 1)
	r.set("rockcore.pruned", float64(res.Stats.Pruned), 1)
	r.set("rockcore.weeded", float64(res.Stats.Weeded), 1)
}

// timing is one run of a pipeline: wall-clock and this process's CPU time.
type timing struct {
	wall time.Duration
	cpu  float64
}

// setOverhead reports the tracing overhead — traced minus untraced, as a
// share of untraced — by CPU time, which host load hardly moves, and checks
// the phase self times against the untraced wall time: their gap, and how
// much of the traced pipeline no phase span covers.
func setOverhead(r *result, rows []layerTime, untraced, traced timing, phases []string) {
	var sum time.Duration
	for _, p := range phases {
		sum += selfOf(rows, p)
	}
	cpuOverhead := 100 * (traced.cpu - untraced.cpu) / untraced.cpu
	wallOverhead := 100 * (traced.wall - untraced.wall).Seconds() / untraced.wall.Seconds()
	gap := 100 * (sum - untraced.wall).Seconds() / untraced.wall.Seconds()
	r.set("trace.overhead_pct", cpuOverhead, 1)
	r.set("trace.phase_gap_pct", gap, 1)
	r.note("tracing overhead %+.2f%% by CPU time (%+.2f%% by wall time, host noise included)", cpuOverhead, wallOverhead)
	r.note("phase self times sum to %.3fs: %+.2f%% against the untraced wall %.3fs; %.2f%% of the traced pipeline is in no phase span",
		sum.Seconds(), gap, untraced.wall.Seconds(), 100*(traced.wall-sum).Seconds()/traced.wall.Seconds())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// parallel runs fn over todo striped across GOMAXPROCS goroutines, as the
// pipeline's own label pass does.
func parallel(todo []int, fn func(p int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(todo); i += workers {
				fn(todo[i])
			}
		}(g)
	}
	wg.Wait()
}

// mushroomConfig is the Table 3 configuration.
var mushroomConfig = rock.Config{K: 20, Theta: 0.8, DenseLimit: 10000}

// mushroomRecords generates the Table 3 records; tiny keeps every fourth.
func mushroomRecords(seed int64, tiny bool) *datagen.MushroomData {
	md := datagen.Mushroom(datagen.DefaultMushroomConfig(), rand.New(rand.NewSource(seed)))
	if tiny {
		keep := &datagen.MushroomData{Schema: md.Schema, NumComponents: md.NumComponents}
		for i := 0; i < len(md.Records); i += 4 {
			keep.Records = append(keep.Records, md.Records[i])
			keep.Labels = append(keep.Labels, md.Labels[i])
			keep.Components = append(keep.Components, md.Components[i])
		}
		md = keep
	}
	return md
}

// purity counts clusters holding both edible and poisonous records, and
// the records of each cluster's minority class summed over clusters.
func purity(clusters [][]int, labels []int) (mixed, minority int) {
	for _, c := range clusters {
		counts := map[int]int{}
		for _, m := range c {
			counts[labels[m]]++
		}
		if len(counts) > 1 {
			mixed++
			most := 0
			for _, n := range counts {
				most = max(most, n)
			}
			minority += len(c) - most
		}
	}
	return mixed, minority
}

// runPaperMushroom runs rock.ClusterRecords on the 8,124 Table 3 records at
// θ=0.8, K=20: the Figure 3 merge loop dominates and there is no label
// pass.
func runPaperMushroom(e *env) (*result, error) {
	r := newResult()
	var md *datagen.MushroomData
	timeSetup(r, func() error {
		md = mushroomRecords(e.seed, e.tiny)
		return nil
	})
	r.input("records", len(md.Records))
	r.input("theta", mushroomConfig.Theta)
	r.input("K", mushroomConfig.K)

	// The gate is record purity: the share of records in their cluster's
	// majority class. Table 3's single mixed cluster is not a property of
	// every generated corpus — some seeds merge a second pair of
	// cross-class components on the way down to K — so the mixed-cluster
	// count is reported, not gated.
	checkRun := func(res *rock.Result) bool {
		mixed, minority := purity(res.Clusters, md.Labels)
		pure := 1 - float64(minority)/float64(len(md.Records))
		ok := pure >= 0.95 && len(res.Clusters) >= mushroomConfig.K
		r.gate("mushroom purity", ok, "%d clusters (want >= %d), record purity %.4f (limit 0.95), %d mixed clusters holding %d minority-class records, %d outliers",
			len(res.Clusters), mushroomConfig.K, pure, mixed, minority, len(res.Outliers))
		return ok
	}
	if e.trace {
		return r, tracePaperMushroom(e, r, md, checkRun)
	}

	txns := dataset.NewEncoder(md.Schema).EncodeAll(md.Records)
	var walls, cpus, pubs []float64
	start := time.Now()
	var last time.Duration
	for i := 0; untilBudget(start, e.budget, last, i); i++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		settle()
		cpu0, t := cpuSeconds(0), time.Now()
		res, err := rock.ClusterRecords(md.Schema, md.Records, mushroomConfig)
		last = time.Since(t)
		cpus = append(cpus, cpuSeconds(0)-cpu0)
		r.attempted++
		if err != nil || !checkRun(res) {
			r.failed++
			if err != nil {
				r.gate("ClusterRecords", false, "%v", err)
			}
			continue
		}
		walls = append(walls, last.Seconds())
		for k := 0; k < publishRepeats; k++ {
			d, err := timePublish(func() (*model.Snapshot, error) {
				lab, err := rock.NewLabeler(txns, res, mushroomConfig, rock.LabelerConfig{Seed: e.seed})
				if err != nil {
					return nil, err
				}
				lab.SetSchema(md.Schema)
				return lab.Snapshot()
			})
			if err != nil {
				return nil, err
			}
			pubs = append(pubs, d)
		}
	}
	setBatchMetrics(r, walls, cpus, pubs, len(md.Records))
	return r, nil
}

// tracePaperMushroom mirrors tracePaperBasket for rock.ClusterRecords:
// encode, neighbor join, then the engine (links + merge loop).
func tracePaperMushroom(e *env, r *result, md *datagen.MushroomData, checkRun func(*rock.Result) bool) error {
	settle()
	cpu0, t := cpuSeconds(0), time.Now()
	want, err := rock.ClusterRecords(md.Schema, md.Records, mushroomConfig)
	wall := time.Since(t)
	cpu := cpuSeconds(0) - cpu0
	r.attempted++
	if err != nil {
		return err
	}
	if !checkRun(want) {
		r.failed++
	}
	setBatchMetrics(r, []float64{wall.Seconds()}, []float64{cpu}, nil, len(md.Records))
	core := coreConfig(mushroomConfig)
	join := links.Config{Theta: core.Theta, Workers: core.Workers}
	tr := newTracer()

	probe := tr.begin("probe", 0)
	ptxns := dataset.NewEncoder(md.Schema).EncodeAll(md.Records)
	linksDur := probeLinks(tr, probe, simjoin.NewSource(ptxns, sim.Jaccard).ComputeNeighbors(join), core)
	tr.end(probe)

	settle()
	root := tr.begin("paper-mushroom", 0)
	cpu0, rootStart := cpuSeconds(0), time.Now()
	var txns []dataset.Transaction
	tr.do("dataset.Encoder.EncodeAll", root, func() { txns = dataset.NewEncoder(md.Schema).EncodeAll(md.Records) })
	var nb *links.Neighbors
	tr.do("simjoin.Source.ComputeNeighbors", root, func() {
		nb = simjoin.NewSource(txns, sim.Jaccard).ComputeNeighbors(join)
	})
	var res *rockcore.Result
	tr.do("rockcore.ClusterNeighbors", root, func() { res, err = rockcore.ClusterNeighbors(nb, core) })
	tr.end(root)
	traced := timing{time.Since(rootStart), cpuSeconds(0) - cpu0}
	if err != nil {
		return err
	}
	same := len(res.Clusters) == len(want.Clusters)
	for i := 0; same && i < len(res.Clusters); i++ {
		same = slices.Equal(res.Clusters[i], want.Clusters[i])
	}
	r.gate("traced pipeline matches rock.ClusterRecords", same, "%d clusters compared", len(want.Clusters))

	r.spans = tr.snapshot()
	rows := selfTimes(r.spans)
	r.set("simjoin.join_s", selfOf(rows, "simjoin.Source.ComputeNeighbors").Seconds(), 1)
	setCoreLayers(r, res, linksDur, selfOf(rows, "rockcore.ClusterNeighbors"))
	setOverhead(r, rows, timing{wall, cpu}, traced, []string{"dataset.Encoder.EncodeAll",
		"simjoin.Source.ComputeNeighbors", "rockcore.ClusterNeighbors"})
	return nil
}
