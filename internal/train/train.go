// Package train is the out-of-core training pipeline: ROCK's sample-cluster-
// label structure (Sections 4.6 and Figure 2 of the paper) scaled past memory
// by sharding. The input stream is partitioned uniformly at random into K
// disk-backed shards; each shard is Chernoff-sampled (internal/sample's
// per-shard bound), clustered in core through the inverted-index join and the
// link algorithm (internal/simjoin, internal/rockcore), and summarized by
// CURE-style well-scattered representative points adapted to categorical
// sets (internal/cure's scatter under 1 - similarity). The shard clusters are
// then merged globally by link goodness between representatives, a labeled
// subset per global cluster becomes a model.Snapshot, and a final streaming
// pass labels every out-of-sample point with the paper's labeling rule —
// guarded by an outlier-rate threshold so a degenerate model is never
// published. Peak memory is set by one shard's sample plus the pooled
// representatives, not by the corpus.
//
// With Config.RunDir set the pipeline is also crash-safe: every completed
// stage is checkpointed to a durable stage journal (see checkpoint.go) and a
// re-run of the same directory resumes at the first incomplete stage instead
// of discarding hours of work.
package train

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"rock/internal/dataset"
	"rock/internal/label"
	"rock/internal/model"
	"rock/internal/rockcore"
	"rock/internal/sample"
	"rock/internal/sim"
	"rock/internal/simjoin"
	"rock/internal/store"
)

// Opener opens one fresh pass over the input stream. The trainer calls it
// once per pass (counting, sharding); each call must yield the transactions
// in the same order.  closer may be nil.
type Opener func() (sc store.Scanner, closer io.Closer, err error)

// SliceOpener adapts an in-memory corpus to an Opener (tests, small runs).
func SliceOpener(txns []dataset.Transaction) Opener {
	return func() (store.Scanner, io.Closer, error) {
		return &sliceScanner{txns: txns}, nil, nil
	}
}

type sliceScanner struct {
	txns []dataset.Transaction
	i    int
}

func (s *sliceScanner) Next() (dataset.Transaction, error) {
	if s.i >= len(s.txns) {
		return nil, io.EOF
	}
	t := s.txns[s.i]
	s.i++
	return t, nil
}

// Config controls a training run. The zero value of every optional field
// selects a documented default; K and Theta are required.
type Config struct {
	// K is the target number of global clusters.
	K int
	// Theta is the neighbor similarity threshold (Section 3.1).
	Theta float64
	// SimName names the transaction similarity ("jaccard", "dice",
	// "overlap", "cosine"); empty selects "jaccard". The name is persisted
	// in the snapshot, so only named similarities can train.
	SimName string
	// MinNeighbors, StopMultiple and MinClusterSize are the per-shard
	// outlier knobs, passed through to rockcore (Section 4.6).
	MinNeighbors   int
	StopMultiple   float64
	MinClusterSize int
	// Workers bounds parallelism inside the neighbor/link computations.
	Workers int
	// ShardParallel bounds how many shards are in flight at once (sampling +
	// clustering, and later labeling). Default 1: peak memory is then one
	// shard's working set. Raising it trades memory for wall time.
	ShardParallel int

	// Shards fixes the shard count. Zero derives it from MemBudget.
	Shards int
	// MemBudget is the per-shard in-core memory target in bytes, used only
	// when Shards is zero: the trainer counts the stream and picks the
	// smallest shard count whose Chernoff sample fits the budget at
	// SampleBytes per sampled point.
	MemBudget int64
	// SampleBytes is the budget heuristic: estimated in-core bytes per
	// sampled point (transaction + neighbor lists + link-table share).
	// Default 16KiB, deliberately conservative.
	SampleBytes int

	// UMin is the smallest cluster size the sample must represent (the
	// Chernoff bound's u_min). Default max(K·MinLabel, total/100).
	UMin int
	// SampleFrac is the fraction f of each cluster the sample must capture
	// (default 0.05); Delta the per-cluster failure probability (default
	// 0.01). See sample.ShardMinSize.
	SampleFrac float64
	Delta      float64

	// NumRep is the number of representative points per shard cluster
	// (default 10, CURE's c).
	NumRep int
	// LabelFrac, MinLabel and MaxLabel shape the labeled subsets: a
	// LabelFrac fraction of each shard cluster (default 0.25), floored at
	// MinLabel (default 5); each *global* cluster's union is then capped at
	// MaxLabel points (default 128) so the labeling pass over the full
	// corpus stays O(total · K · MaxLabel) similarity evaluations.
	LabelFrac float64
	MinLabel  int
	MaxLabel  int

	// MaxOutlierRate aborts before publishing when the final pass declares
	// more than this fraction of all points outliers — the guard that keeps
	// a mis-trained model (theta off, sample unlucky) from reaching the
	// fleet. Default 0.5; set negative to disable.
	MaxOutlierRate float64

	// Seed drives every random draw (sharding, sampling, labeled subsets).
	Seed int64
	// TmpDir hosts the shard spill files when RunDir is empty (default
	// os.TempDir()). The trainer creates and removes a private subdirectory.
	TmpDir string
	// RunDir, when set, makes the run durable and resumable: spill shards
	// and a CRC-protected stage journal live there (created if needed,
	// never removed), and a later run with the same config and RunDir
	// resumes at the first incomplete stage, verifying artifact checksums
	// and quarantining anything corrupt. See checkpoint.go.
	RunDir string
	// StageTimeout, when positive, is the per-stage watchdog: a stage that
	// runs longer fails with ErrStageTimeout instead of hanging the run
	// forever (the stalled stage's goroutine is abandoned — the process is
	// expected to exit and resume from the journal).
	StageTimeout time.Duration
	// KeepAssignments retains the full per-point assignment slice in the
	// Result — one int per input point, so only for corpora that fit. It
	// also forces the labeling pass to run in full on resume (per-shard
	// label checkpoints only record counts, not assignments).
	KeepAssignments bool

	// Counters, when non-nil, receives live progress (see Counters).
	Counters *Counters
	// Log, when non-nil, receives per-phase progress lines.
	Log *log.Logger

	// hookCheckpoint, when non-nil, observes every durable checkpoint:
	// stage name plus shard index (-1 for whole-stage checkpoints). Tests
	// use it to freeze or abort a run at an exact journal state.
	hookCheckpoint func(stage string, shard int)
}

func (c *Config) validate() error {
	if c.K <= 0 {
		return errors.New("train: K must be positive")
	}
	if math.IsNaN(c.Theta) || c.Theta < 0 || c.Theta > 1 {
		return fmt.Errorf("train: theta %v out of [0,1]", c.Theta)
	}
	if c.Shards < 0 {
		return fmt.Errorf("train: negative shard count %d", c.Shards)
	}
	if c.Shards == 0 && c.MemBudget <= 0 {
		return errors.New("train: either Shards or MemBudget must be set")
	}
	if c.SampleFrac < 0 || c.SampleFrac > 1 {
		return fmt.Errorf("train: sample fraction %v out of [0,1]", c.SampleFrac)
	}
	if c.Delta < 0 || c.Delta >= 1 {
		return fmt.Errorf("train: delta %v out of [0,1)", c.Delta)
	}
	if c.LabelFrac < 0 || c.LabelFrac > 1 {
		return fmt.Errorf("train: label fraction %v out of [0,1]", c.LabelFrac)
	}
	if c.StageTimeout < 0 {
		return fmt.Errorf("train: negative stage timeout %v", c.StageTimeout)
	}
	if _, ok := sim.TxnByName(c.simName()); !ok {
		return fmt.Errorf("train: unknown similarity %q", c.SimName)
	}
	return nil
}

func (c *Config) simName() string {
	if c.SimName == "" {
		return "jaccard"
	}
	return c.SimName
}

func (c *Config) sampleFrac() float64 {
	if c.SampleFrac == 0 {
		return 0.05
	}
	return c.SampleFrac
}

func (c *Config) delta() float64 {
	if c.Delta == 0 {
		return 0.01
	}
	return c.Delta
}

func (c *Config) numRep() int {
	if c.NumRep <= 0 {
		return 10
	}
	return c.NumRep
}

func (c *Config) labelFrac() float64 {
	if c.LabelFrac == 0 {
		return 0.25
	}
	return c.LabelFrac
}

func (c *Config) minLabel() int {
	if c.MinLabel <= 0 {
		return 5
	}
	return c.MinLabel
}

func (c *Config) maxLabel() int {
	if c.MaxLabel <= 0 {
		return 128
	}
	return c.MaxLabel
}

func (c *Config) maxOutlierRate() float64 {
	if c.MaxOutlierRate == 0 {
		return 0.5
	}
	return c.MaxOutlierRate
}

func (c *Config) sampleBytes() int {
	if c.SampleBytes <= 0 {
		return 16 << 10
	}
	return c.SampleBytes
}

func (c *Config) shardParallel() int {
	if c.ShardParallel <= 0 {
		return 1
	}
	return c.ShardParallel
}

func (c *Config) uMin(total int) int {
	if c.UMin > 0 {
		return c.UMin
	}
	u := total / 100
	if m := c.K * c.minLabel(); u < m {
		u = m
	}
	if u < 1 {
		u = 1
	}
	return u
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log.Printf(format, args...)
	}
}

func (c *Config) checkpointed(stage string, shard int) {
	if c.hookCheckpoint != nil {
		c.hookCheckpoint(stage, shard)
	}
}

// maxDerivedShards caps the budget-derived shard count: past this the
// per-shard fixed costs (files, scans) dominate any memory win.
const maxDerivedShards = 1024

// ErrOutlierRate is wrapped into Train's error when the trained model fails
// the outlier-rate guard; errors.Is(err, ErrOutlierRate) detects it.
var ErrOutlierRate = errors.New("outlier rate above MaxOutlierRate")

// ErrStageTimeout is wrapped into Train's error when a stage exceeds
// Config.StageTimeout.
var ErrStageTimeout = errors.New("stage watchdog timeout")

// Result is the outcome of a training run.
type Result struct {
	// Snapshot is the trained, validated model.
	Snapshot *model.Snapshot
	// Total is the number of input transactions; Shards how many shards
	// they were spread over; SampleTarget the per-shard Chernoff sample
	// size; Sampled the points actually drawn across all shards.
	Total, Shards, SampleTarget, Sampled int
	// ShardClusters counts the per-shard clusters that were summarized;
	// Clusters the global clusters after the merge.
	ShardClusters, Clusters int
	// Labeled and Outliers partition the input: every point is either
	// assigned to a cluster or declared an outlier by the final pass.
	Labeled, Outliers int
	// OutlierRate is Outliers/Total.
	OutlierRate float64
	// Assignments, when Config.KeepAssignments, maps input position to
	// global cluster index (label.Outlier for outliers).
	Assignments []int
	// PhaseDurations records wall time per pipeline phase.
	PhaseDurations map[string]time.Duration
	// HeapPeak is the max heap observed at phase boundaries, bytes.
	HeapPeak int64
	// Run is the durable run handle when Config.RunDir was set (nil
	// otherwise); its Publish/PostReload methods journal the publish tail
	// into the same run directory.
	Run *Run
}

// ctxCheckEvery is how many streamed records pass between context checks in
// the long sequential loops; cancellation latency stays in the microseconds
// without a per-record atomic load.
const ctxCheckEvery = 8192

// Train runs the full sharded pipeline over the stream open yields.
func Train(open Opener, cfg Config) (*Result, error) {
	return TrainContext(context.Background(), open, cfg)
}

// TrainContext is Train under a context: cancel it (SIGTERM in
// cmd/rocktrain) and the pipeline stops at the next cooperative point with
// every completed stage already journaled — a later run with the same
// RunDir resumes there. Config.StageTimeout arms a per-stage watchdog on
// top.
func TrainContext(ctx context.Context, open Opener, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	simF, _ := sim.TxnByName(cfg.simName())
	fTheta := rockcore.DefaultF(cfg.Theta)
	ctr := cfg.Counters
	if ctr == nil {
		ctr = &Counters{} // run instrumentation unconditionally; cheap
	}
	cfg.Counters = ctr
	res := &Result{PhaseDurations: map[string]time.Duration{}}
	phaseStart := time.Now()
	endPhase := func(name string) {
		res.PhaseDurations[name] = time.Since(phaseStart)
		phaseStart = time.Now()
		ctr.observeHeap()
	}
	// stage runs one pipeline stage under the watchdog: the stage body gets
	// a context that is cancelled by SIGTERM/parent cancellation or by the
	// per-stage timeout, whichever comes first. Parent cancellation is
	// cooperative — the body is drained (it notices the context at its next
	// check, flushes in-flight checkpoints and returns), so no goroutine
	// outlives TrainContext on a graceful stop. Only a watchdog timeout
	// abandons the body: a wedged stage by definition is not responding, and
	// the surrounding process is expected to exit and resume from the
	// journal.
	stage := func(name string, fn func(context.Context) error) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("train: stage %s aborted: %w", name, err)
		}
		sctx := ctx
		cancel := context.CancelFunc(func() {})
		if cfg.StageTimeout > 0 {
			sctx, cancel = context.WithTimeout(ctx, cfg.StageTimeout)
		}
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- fn(sctx) }()
		var err error
		select {
		case err = <-done:
		case <-sctx.Done():
			if ctx.Err() == nil {
				return fmt.Errorf("train: stage %s: %w after %v", name, ErrStageTimeout, cfg.StageTimeout)
			}
			err = <-done // cooperative drain: checkpoints flush, then abort
		}
		if err != nil {
			return fmt.Errorf("train: stage %s: %w", name, err)
		}
		return nil
	}

	// The working directory: a durable run dir (resumable) or an ephemeral
	// tmpdir that vanishes with the run.
	var run *Run
	dir := cfg.RunDir
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		run, err = OpenRun(store.OS, dir, cfg)
		if err != nil {
			return nil, err
		}
		if j := run.Journal(); j.Shards > 0 || j.Counted > 0 {
			ctr.Resumes.Add(1)
			cfg.logf("resume: run dir %s has a journal (shards %d, spill %d, clustered %d, merge %v, snapshot %v)",
				dir, j.Shards, len(j.Spill), countClustered(j.Clustered), j.MergeGroups != nil, j.SnapshotDone)
		}
		res.Run = run
	} else {
		tmp, err := os.MkdirTemp(cfg.TmpDir, "rocktrain-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// Phase 0 (only when deriving the shard count): count the stream, then
	// pick the smallest shard count whose per-shard Chernoff sample fits
	// the memory budget.
	shards := cfg.Shards
	if shards == 0 {
		if j := run.Journal(); run != nil && j.Shards > 0 {
			shards = j.Shards
			cfg.logf("count: resumed: %d transactions -> %d shards", j.Counted, shards)
		} else {
			ctr.setPhase(PhaseCount)
			var n int
			err := stage(PhaseCount, func(sctx context.Context) error {
				var cerr error
				n, cerr = countStream(sctx, open)
				return cerr
			})
			if err != nil {
				return nil, err
			}
			if n == 0 {
				return nil, errors.New("train: empty input")
			}
			shards = shardsForBudget(n, cfg.uMin(n), cfg.sampleFrac(), cfg.delta(), cfg.MemBudget, cfg.sampleBytes())
			cfg.logf("count: %d transactions, budget %d bytes -> %d shards", n, cfg.MemBudget, shards)
			if err := run.update(func(j *Journal) { j.Counted = n; j.Shards = shards }); err != nil {
				return nil, err
			}
			cfg.checkpointed(PhaseCount, -1)
			endPhase(PhaseCount)
		}
	} else if run != nil {
		if err := run.update(func(j *Journal) { j.Shards = shards }); err != nil {
			return nil, err
		}
	}
	ctr.Shards.Store(int64(shards))

	// Phase 1: partition the stream into disk-backed shards, uniformly at
	// random, remembering each transaction's original position. On resume
	// the journaled spill is verified checksum-by-checksum; corrupt shards
	// are quarantined and respilled (the partition is deterministic in
	// Seed, so a respilled shard is byte-identical).
	ctr.setPhase(PhaseShard)
	var counts []int
	var total int
	err := stage(PhaseShard, func(sctx context.Context) error {
		if j := run.Journal(); run != nil && len(j.Spill) == shards {
			var verr error
			counts, verr = verifySpill(sctx, run, open, dir, shards, cfg)
			if verr != nil {
				return verr
			}
			total = j.Total
			ctr.TxnsTotal.Store(int64(total))
			cfg.logf("shard: resumed: %d transactions in %d verified shards", total, shards)
			return nil
		}
		infos, n, serr := shardStream(sctx, open, dir, shards, cfg.Seed, ctr)
		if serr != nil {
			return serr
		}
		if n == 0 {
			return errors.New("train: empty input")
		}
		if j := run.Journal(); run != nil && j.Counted > 0 && j.Counted != n {
			return fmt.Errorf("train: input stream has %d transactions, journal counted %d — the source changed; use a fresh -run-dir", n, j.Counted)
		}
		counts = make([]int, shards)
		for i, in := range infos {
			counts[i] = in.Records
		}
		total = n
		if err := run.update(func(j *Journal) { j.Total = n; j.Spill = infos }); err != nil {
			return err
		}
		cfg.logf("shard: %d transactions into %d shards", n, shards)
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg.checkpointed(PhaseShard, -1)
	res.Total = total
	res.Shards = shards
	endPhase(PhaseShard)

	// Phase 2: per shard — Chernoff sample, in-core cluster, summarize.
	// Each completed shard's summaries are sealed to disk and journaled
	// immediately, so a crash loses at most the shards in flight; on resume
	// those files are verified and loaded instead of recomputed.
	ctr.setPhase(PhaseCluster)
	uMin := cfg.uMin(total)
	target := sample.ShardMinSize(total, shards, uMin, cfg.sampleFrac(), cfg.delta())
	if target <= 0 {
		// More shards than points, or degenerate parameters: sample whole
		// shards.
		target = total
	}
	res.SampleTarget = target
	var (
		mu   sync.Mutex
		sums []summary
	)
	err = stage(PhaseCluster, func(sctx context.Context) error {
		return forEachShard(sctx, shards, cfg.shardParallel(), func(s int) error {
			if run != nil {
				if ci := run.Journal().clustered(s); ci != nil {
					local, lerr := run.loadShardSummaries(s, ci)
					if lerr == nil {
						mu.Lock()
						sums = append(sums, local...)
						mu.Unlock()
						ctr.Sampled.Add(int64(ci.Sampled))
						ctr.ShardsDone.Add(1)
						ctr.ShardsResumed.Add(1)
						ctr.Summaries.Add(int64(len(local)))
						cfg.logf("cluster: shard %d: resumed %d summaries from checkpoint", s, len(local))
						return nil
					}
					cfg.logf("cluster: shard %d: checkpoint corrupt, quarantining and re-clustering: %v", s, lerr)
					if qerr := run.quarantine(sumsPath(dir, s)); qerr != nil {
						cfg.logf("cluster: shard %d: quarantine failed: %v", s, qerr)
					}
					ctr.ShardsQuarantined.Add(1)
					ctr.stageRetry()
				}
			}
			rng := rand.New(rand.NewSource(cfg.Seed + 1 + int64(s)))
			pos, txns, err := sampleShard(sctx, shardPath(dir, s), counts[s], target, rng)
			if err != nil {
				return err
			}
			ctr.Sampled.Add(int64(len(txns)))
			cres, err := rockcore.ClusterSource(simjoin.NewSource(txns, simF), rockcore.Config{
				K:              cfg.K,
				Theta:          cfg.Theta,
				MinNeighbors:   cfg.MinNeighbors,
				StopMultiple:   cfg.StopMultiple,
				MinClusterSize: cfg.MinClusterSize,
				Workers:        cfg.Workers,
			})
			if err != nil {
				return fmt.Errorf("train: clustering shard %d: %w", s, err)
			}
			local := make([]summary, 0, len(cres.Clusters))
			for _, members := range cres.Clusters {
				local = append(local, summarize(s, members, txns, pos, simF,
					cfg.numRep(), cfg.labelFrac(), cfg.minLabel(), 0, rng))
			}
			if err := run.saveShardSummaries(s, len(txns), local); err != nil {
				return err
			}
			mu.Lock()
			sums = append(sums, local...)
			mu.Unlock()
			ctr.ShardsDone.Add(1)
			ctr.Summaries.Add(int64(len(local)))
			cfg.logf("cluster: shard %d: %d sampled, %d clusters, %d outliers",
				s, len(txns), len(cres.Clusters), len(cres.Outliers))
			cfg.checkpointed(PhaseCluster, s)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	res.Sampled = int(ctr.Sampled.Load())
	res.ShardClusters = len(sums)
	if len(sums) == 0 {
		return nil, errors.New("train: no shard produced any cluster; every sampled point was an outlier")
	}
	// Deterministic summary order regardless of shard completion order.
	sort.Slice(sums, func(i, j int) bool {
		if sums[i].shard != sums[j].shard {
			return sums[i].shard < sums[j].shard
		}
		return sums[i].samplePos[0] < sums[j].samplePos[0]
	})
	endPhase(PhaseCluster)

	// Phase 3: merge shard clusters globally by link goodness between their
	// representative points (hierarchically past mergeFan summaries), then
	// build and seal the snapshot. Both results are journaled: the merge as
	// its group structure (small), the snapshot as snapshot.rock.
	ctr.setPhase(PhaseMerge)
	var groups [][]int
	var snap *model.Snapshot
	err = stage(PhaseMerge, func(context.Context) error {
		if j := run.Journal(); run != nil && j.MergeGroups != nil {
			groups = j.MergeGroups
			if err := validGroups(groups, len(sums)); err != nil {
				return fmt.Errorf("train: journaled merge does not fit the summaries (%w); use a fresh -run-dir", err)
			}
			cfg.logf("merge: resumed: %d shard clusters -> %d global clusters", len(sums), len(groups))
		} else {
			mergeRng := rand.New(rand.NewSource(cfg.Seed - 2))
			groups = mergeAll(sums, simF, cfg.Theta, fTheta, cfg.K, cfg.Workers,
				cfg.numRep(), mergeRng)
			if err := run.update(func(j *Journal) { j.MergeGroups = groups }); err != nil {
				return err
			}
			cfg.logf("merge: %d shard clusters -> %d global clusters", len(sums), len(groups))
			cfg.checkpointed(PhaseMerge, -1)
		}
		res.Clusters = len(groups)
		ctr.Clusters.Store(int64(len(groups)))

		// Build the snapshot: per global cluster, the union of its
		// summaries' labeled subsets, capped at MaxLabel.
		if run != nil && run.Journal().SnapshotDone {
			loaded, lerr := model.LoadFS(run.fsys, snapshotPath(dir))
			if lerr == nil {
				snap = loaded
				cfg.logf("snapshot: resumed from %s", snapshotPath(dir))
				return nil
			}
			cfg.logf("snapshot: checkpoint corrupt, quarantining and rebuilding: %v", lerr)
			if qerr := run.quarantine(snapshotPath(dir)); qerr != nil {
				cfg.logf("snapshot: quarantine failed: %v", qerr)
			}
			ctr.ShardsQuarantined.Add(1)
			ctr.stageRetry()
		}
		built, berr := buildSnapshot(sums, groups, cfg, fTheta)
		if berr != nil {
			return berr
		}
		snap = built
		if run != nil {
			if err := model.SaveFS(run.fsys, snapshotPath(dir), snap); err != nil {
				return fmt.Errorf("train: sealing snapshot: %w", err)
			}
			if err := run.update(func(j *Journal) { j.SnapshotDone = true }); err != nil {
				return err
			}
		}
		cfg.checkpointed(PhaseSnapshot, -1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Snapshot = snap
	endPhase(PhaseMerge)

	// Phase 4: label every point, shard by shard. Sampled points that
	// survived clustering keep their cluster; everything else goes through
	// the labeling rule against the snapshot's labeled sets. Per-shard
	// results are journaled (counts only), so resume skips finished shards
	// — unless KeepAssignments demands the full in-memory slice.
	ctr.setPhase(PhaseLabel)
	sampledTo := sampledMap(sums, groups)
	assigner, err := model.Compile(snap)
	if err != nil {
		return nil, fmt.Errorf("train: compiling snapshot: %w", err)
	}
	var assignments []int
	if cfg.KeepAssignments {
		assignments = make([]int, total)
	}
	var labeled, outliers int64
	var lmu sync.Mutex
	err = stage(PhaseLabel, func(sctx context.Context) error {
		return forEachShard(sctx, shards, cfg.shardParallel(), func(s int) error {
			if run != nil && !cfg.KeepAssignments {
				if li := run.Journal().labelInfo(s); li != nil {
					ctr.Labeled.Add(li.Labeled)
					ctr.Outliers.Add(li.Outliers)
					lmu.Lock()
					labeled += li.Labeled
					outliers += li.Outliers
					lmu.Unlock()
					cfg.logf("label: shard %d: resumed (%d labeled, %d outliers)", s, li.Labeled, li.Outliers)
					return nil
				}
			}
			sc, err := openShard(shardPath(dir, s))
			if err != nil {
				return err
			}
			defer sc.close()
			var lab, out int64
			n := 0
			for {
				if n++; n%ctxCheckEvery == 0 {
					if err := sctx.Err(); err != nil {
						return err
					}
				}
				pos, t, err := sc.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				c, ok := sampledTo[pos]
				if !ok {
					c, _ = assigner.Assign(t)
				}
				if c == label.Outlier {
					out++
				} else {
					lab++
				}
				if assignments != nil {
					assignments[pos] = c
				}
			}
			ctr.Labeled.Add(lab)
			ctr.Outliers.Add(out)
			lmu.Lock()
			labeled += lab
			outliers += out
			lmu.Unlock()
			if err := run.update(func(j *Journal) {
				if len(j.Labeled) == 0 {
					j.Labeled = make([]*LabelInfo, j.Shards)
				}
				j.Labeled[s] = &LabelInfo{Labeled: lab, Outliers: out}
			}); err != nil {
				return err
			}
			cfg.checkpointed(PhaseLabel, s)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	res.Labeled = int(labeled)
	res.Outliers = int(outliers)
	res.OutlierRate = float64(outliers) / float64(total)
	res.Assignments = assignments
	// Seal the run's statistics into the snapshot (format v3), so the
	// serving side can report what this generation looked like at training
	// time. The snapshot checkpoint in the run dir predates the label phase
	// and deliberately omits them; Publish writes the final stats-bearing
	// form.
	snap.Stats = &model.TrainStats{
		Points:      int64(total),
		Outliers:    outliers,
		OutlierRate: res.OutlierRate,
	}
	cfg.logf("label: %d labeled, %d outliers (rate %.4f)", labeled, outliers, res.OutlierRate)
	endPhase(PhaseLabel)
	ctr.setPhase(PhaseDone)
	res.HeapPeak = ctr.HeapPeak.Load()

	if max := cfg.maxOutlierRate(); max >= 0 && res.OutlierRate > max {
		return res, fmt.Errorf("train: %w: %.4f > %.4f; not publishing", ErrOutlierRate, res.OutlierRate, max)
	}
	return res, nil
}

// countClustered counts the non-nil per-shard cluster checkpoints.
func countClustered(cs []*ClusterInfo) int {
	n := 0
	for _, c := range cs {
		if c != nil {
			n++
		}
	}
	return n
}

// clustered returns shard s's cluster checkpoint, nil when absent.
func (j Journal) clustered(s int) *ClusterInfo {
	if s < len(j.Clustered) {
		return j.Clustered[s]
	}
	return nil
}

// labelInfo returns shard s's label checkpoint, nil when absent.
func (j Journal) labelInfo(s int) *LabelInfo {
	if s < len(j.Labeled) {
		return j.Labeled[s]
	}
	return nil
}

// validGroups checks that a journaled merge result indexes the summary list
// it is being resumed against: every index in range, none repeated.
func validGroups(groups [][]int, n int) error {
	seen := make([]bool, n)
	for _, g := range groups {
		for _, si := range g {
			if si < 0 || si >= n {
				return fmt.Errorf("summary index %d of %d", si, n)
			}
			if seen[si] {
				return fmt.Errorf("summary index %d repeated", si)
			}
			seen[si] = true
		}
	}
	return nil
}

// verifySpill checks every journaled shard file against its recorded byte
// count and checksum, quarantines and respills any that fail (the partition
// is deterministic, so the respilled bytes must match the journal exactly),
// and returns the per-shard record counts.
func verifySpill(ctx context.Context, run *Run, open Opener, dir string, shards int, cfg Config) ([]int, error) {
	j := run.Journal()
	ctr := cfg.Counters
	counts := make([]int, shards)
	missing := make(map[int]bool)
	for s := 0; s < shards; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		counts[s] = j.Spill[s].Records
		crc, n, err := store.ChecksumFile(run.fsys, shardPath(dir, s))
		if err == nil && crc == j.Spill[s].CRC && n == j.Spill[s].Bytes {
			continue
		}
		if err != nil {
			cfg.logf("shard: %d unreadable (%v), respilling", s, err)
		} else {
			cfg.logf("shard: %d corrupt (%d bytes CRC %08x, journal says %d bytes CRC %08x), quarantining and respilling",
				s, n, crc, j.Spill[s].Bytes, j.Spill[s].CRC)
			if qerr := run.quarantine(shardPath(dir, s)); qerr != nil {
				cfg.logf("shard: %d quarantine failed: %v", s, qerr)
			}
		}
		ctr.ShardsQuarantined.Add(1)
		ctr.stageRetry()
		missing[s] = true
	}
	if len(missing) == 0 {
		return counts, nil
	}
	infos, err := respillShards(ctx, open, dir, shards, cfg.Seed, missing)
	if err != nil {
		return nil, err
	}
	for s := range missing {
		in := infos[s]
		want := j.Spill[s]
		if in.Records != want.Records || in.Bytes != want.Bytes || in.CRC != want.CRC {
			return nil, fmt.Errorf("train: respilled shard %d does not match the journal (records %d/%d, bytes %d/%d, crc %08x/%08x) — the input stream changed; use a fresh -run-dir",
				s, in.Records, want.Records, in.Bytes, want.Bytes, in.CRC, want.CRC)
		}
	}
	return counts, nil
}

// countStream counts the transactions one pass yields.
func countStream(ctx context.Context, open Opener) (int, error) {
	sc, closer, err := open()
	if err != nil {
		return 0, err
	}
	if closer != nil {
		defer closer.Close()
	}
	n := 0
	for {
		if n%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		_, err := sc.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		n++
	}
}

// shardsForBudget picks the smallest shard count whose per-shard Chernoff
// sample fits the byte budget, assuming bytesPerPoint of in-core cost per
// sampled point.
func shardsForBudget(n, uMin int, f, delta float64, budget int64, bytesPerPoint int) int {
	for k := 1; k <= maxDerivedShards; k *= 2 {
		s := sample.ShardMinSize(n, k, uMin, f, delta)
		if s > 0 && int64(s)*int64(bytesPerPoint) <= budget {
			return k
		}
		if k >= n {
			break
		}
	}
	return maxDerivedShards
}

// shardStream spills the stream into shard files under dir, returning the
// per-shard spill records (counts, bytes, checksums) and the total.
func shardStream(ctx context.Context, open Opener, dir string, shards int, seed int64, ctr *Counters) ([]SpillInfo, int, error) {
	sc, closer, err := open()
	if err != nil {
		return nil, 0, err
	}
	if closer != nil {
		defer closer.Close()
	}
	writers := make([]*shardWriter, shards)
	for i := range writers {
		w, err := newShardWriter(shardPath(dir, i))
		if err != nil {
			for _, prev := range writers[:i] {
				prev.close()
			}
			return nil, 0, err
		}
		writers[i] = w
	}
	closeAll := func() error {
		var first error
		for _, w := range writers {
			if err := w.close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	rng := rand.New(rand.NewSource(seed))
	pos := 0
	for {
		if pos%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				closeAll()
				return nil, 0, err
			}
		}
		t, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			closeAll()
			return nil, 0, err
		}
		if err := writers[rng.Intn(shards)].append(pos, t); err != nil {
			closeAll()
			return nil, 0, err
		}
		pos++
		ctr.TxnsTotal.Add(1)
	}
	infos := make([]SpillInfo, shards)
	for i, w := range writers {
		infos[i] = SpillInfo{Records: w.count}
	}
	if err := closeAll(); err != nil {
		return nil, 0, err
	}
	for i, w := range writers {
		infos[i].Bytes = w.bytes
		infos[i].CRC = w.fileCRC
	}
	// Make the spill filenames durable too: the journal is about to record
	// these files as complete.
	if err := store.OS.SyncDir(dir); err != nil {
		return nil, 0, err
	}
	return infos, pos, nil
}

// respillShards regenerates a subset of shard files by replaying the
// deterministic partition: the full stream is re-read, the rng draws run
// for every record, and only records landing in a missing shard are
// written. Untouched shards are not opened.
func respillShards(ctx context.Context, open Opener, dir string, shards int, seed int64, missing map[int]bool) (map[int]SpillInfo, error) {
	sc, closer, err := open()
	if err != nil {
		return nil, err
	}
	if closer != nil {
		defer closer.Close()
	}
	writers := make(map[int]*shardWriter, len(missing))
	closeAll := func() {
		for _, w := range writers {
			w.close()
		}
	}
	for s := range missing {
		w, err := newShardWriter(shardPath(dir, s))
		if err != nil {
			closeAll()
			return nil, err
		}
		writers[s] = w
	}
	rng := rand.New(rand.NewSource(seed))
	pos := 0
	for {
		if pos%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				closeAll()
				return nil, err
			}
		}
		t, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			closeAll()
			return nil, err
		}
		if w, ok := writers[rng.Intn(shards)]; ok {
			if err := w.append(pos, t); err != nil {
				closeAll()
				return nil, err
			}
		}
		pos++
	}
	infos := make(map[int]SpillInfo, len(missing))
	var first error
	for s, w := range writers {
		info := SpillInfo{Records: w.count}
		if err := w.close(); err != nil && first == nil {
			first = err
		}
		info.Bytes = w.bytes
		info.CRC = w.fileCRC
		infos[s] = info
	}
	if first != nil {
		return nil, first
	}
	if err := store.OS.SyncDir(dir); err != nil {
		return nil, err
	}
	return infos, nil
}

// sampleShard draws a uniform sample of min(target, count) records from one
// shard file: the record indices are drawn up front (the shard's count is
// known from the spill pass), so one sequential scan collects exactly the
// sample — no reservoir churn, memory exactly the sample size.
func sampleShard(ctx context.Context, path string, count, target int, rng *rand.Rand) ([]int, []dataset.Transaction, error) {
	if target > count {
		target = count
	}
	want := sample.Indices(count, target, rng)
	sort.Ints(want)
	sc, err := openShard(path)
	if err != nil {
		return nil, nil, err
	}
	defer sc.close()
	pos := make([]int, 0, target)
	txns := make([]dataset.Transaction, 0, target)
	wi, ri := 0, 0
	for wi < len(want) {
		if ri%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		p, t, err := sc.next()
		if err == io.EOF {
			return nil, nil, fmt.Errorf("train: shard %s ended at record %d, expected %d", path, ri, count)
		}
		if err != nil {
			return nil, nil, err
		}
		if ri == want[wi] {
			pos = append(pos, p)
			txns = append(txns, t)
			wi++
		}
		ri++
	}
	return pos, txns, nil
}

// sampledMap builds the labeling fast path: original stream position ->
// global cluster, for every sample point of every surviving summary.
func sampledMap(sums []summary, groups [][]int) map[int]int {
	sampledTo := make(map[int]int)
	for g, members := range groups {
		for _, si := range members {
			for _, p := range sums[si].samplePos {
				sampledTo[p] = g
			}
		}
	}
	return sampledTo
}

// buildSnapshot assembles the model from the merged summaries: per global
// cluster the union of its summaries' labeled subsets (subsampled down to
// MaxLabel when several shards contribute), with the labeling norm
// (|L_i|+1)^f(theta) over the final set size.
func buildSnapshot(sums []summary, groups [][]int, cfg Config, fTheta float64) (*model.Snapshot, error) {
	rng := rand.New(rand.NewSource(cfg.Seed - 1))
	type labeledPoint struct {
		pos     int
		txn     dataset.Transaction
		cluster int
	}
	var points []labeledPoint
	for g, members := range groups {
		var lp []labeledPoint
		for _, si := range members {
			s := &sums[si]
			for i, p := range s.labeledPos {
				lp = append(lp, labeledPoint{pos: p, txn: s.labeledTxns[i], cluster: g})
			}
		}
		if max := cfg.maxLabel(); len(lp) > max {
			idx := sample.Indices(len(lp), max, rng)
			sub := make([]labeledPoint, len(idx))
			for i, ix := range idx {
				sub[i] = lp[ix]
			}
			lp = sub
		}
		points = append(points, lp...)
	}
	// Snapshot transactions ordered by original position (stable and
	// deterministic); positions are unique because the shards partition the
	// stream.
	sort.Slice(points, func(i, j int) bool { return points[i].pos < points[j].pos })
	snap := &model.Snapshot{
		Theta:   cfg.Theta,
		FTheta:  fTheta,
		SimName: cfg.simName(),
	}
	setPoints := make([][]int, len(groups))
	for i, p := range points {
		snap.Txns = append(snap.Txns, p.txn)
		setPoints[p.cluster] = append(setPoints[p.cluster], i)
	}
	for g, pts := range setPoints {
		if len(pts) == 0 {
			return nil, fmt.Errorf("train: global cluster %d has no labeled points", g)
		}
		snap.Sets = append(snap.Sets, model.Set{
			Cluster: g,
			Norm:    rockcore.ExpectedNeighbors(len(pts), fTheta),
			Points:  pts,
		})
	}
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("train: building snapshot: %w", err)
	}
	return snap, nil
}

// forEachShard runs fn(shard) over every shard with at most parallel in
// flight, returning the first error. Cancelling ctx stops new shards from
// starting; in-flight shards run to completion (checkpointing as they
// finish) before the context error is returned.
func forEachShard(ctx context.Context, shards, parallel int, fn func(s int) error) error {
	if parallel > shards {
		parallel = shards
	}
	sem := make(chan struct{}, parallel)
	errCh := make(chan error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(s); err != nil {
				errCh <- err
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return err
	}
	return ctx.Err()
}

// Publish saves the snapshot as the next generation of the model directory.
func Publish(dir *model.Dir, snap *model.Snapshot) (model.Entry, error) {
	return dir.Save(snap)
}
