// Command perfbench is the repository benchmark: four workloads that drive
// the ROCK stack from outside — the paper's batch runs through the exported
// clustering functions, the serving tier through the rockd and rockgate
// binaries built from the checkout, and the online tier through the stream
// clusterer — check their outputs, and print every end-to-end metric (or,
// with -trace 1, every per-layer metric) as one JSON line.
//
//	bash perfbench/run.sh --workload paper-basket --seed 1 --seconds 15 --trace 0
//
// Run it from the repository root; run.sh builds this package and execs it.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. The catalogs below must match
// BENCHMARK.json (TestCatalogMatchesBenchmarkJSON checks it).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees and the benchmark gates on;
// every workload reports every one (see README.md for what each means per
// workload). Wall-clock figures did not repeat within a tenth on a shared
// 2-CPU host, so they are reported per layer, without a bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_txn", "us", "lower"},
}

// perLayer is reported by traced runs; a layer a workload does not touch
// reads 0.
var perLayer = []metricDef{
	{"run.wall_s", "s", "lower"},
	{"run.txn_per_s", "1/s", "higher"},
	{"run.p50_ms", "ms", "lower"},
	{"run.p90_ms", "ms", "lower"},
	{"run.publish_ms", "ms", "lower"},
	{"simjoin.join_s", "s", "lower"},
	{"simjoin.max_degree", "count", "lower"},
	{"simjoin.avg_degree", "count", "lower"},
	{"links.compute_s", "s", "lower"},
	{"links.link_pairs", "count", "lower"},
	{"rockcore.merge_s", "s", "lower"},
	{"rockcore.merges", "count", "lower"},
	{"rockcore.pruned", "count", "lower"},
	{"rockcore.weeded", "count", "lower"},
	{"label.assign_s", "s", "lower"},
	{"label.txn_per_s", "1/s", "higher"},
	{"label.outliers", "count", "lower"},
	{"model.assign_ns_per_txn", "ns", "lower"},
	{"model.compile_ms", "ms", "lower"},
	{"wire.decode_ns_per_txn", "ns", "lower"},
	{"wire.encode_ns_per_txn", "ns", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"gate.hop_p50_ms", "ms", "lower"},
	{"gate.retries", "count", "lower"},
	{"gate.hedges", "count", "lower"},
	{"daemon.shed", "count", "lower"},
	{"client.late_p90_ms", "ms", "lower"},
	{"stream.absorb_ratio", "ratio", "higher"},
	{"stream.absorbed_p50_us", "us", "lower"},
	{"stream.pooled_p50_us", "us", "lower"},
	{"stream.observe_p99_us", "us", "lower"},
	{"stream.reclusters", "count", "lower"},
	{"stream.recluster_ms", "ms", "lower"},
	{"stream.pool_size", "count", "lower"},
	{"stream.snapshot_ms", "ms", "lower"},
	{"proc.peak_rss_mb", "MiB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.phase_gap_pct", "%", "lower"},
}

// Each workload builds its inputs at least setupRepeats times, and keeps
// repeating a cheap set-up until setupMinTime has gone by; setup_s is the
// median, so one slow set-up does not move it.
const (
	setupRepeats = 3
	setupMinTime = 1500 * time.Millisecond
	setupMaxReps = 200
)

// timeSetup runs fn as described above and records setup_s.
func timeSetup(r *result, fn func() error) error {
	var times []float64
	start := time.Now()
	for len(times) < setupRepeats || (time.Since(start) < setupMinTime && len(times) < setupMaxReps) {
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		times = append(times, time.Since(t).Seconds())
	}
	r.set("setup_s", median(times), len(times))
	return nil
}

// env is what a workload is given.
type env struct {
	ctx    context.Context
	seed   int64
	budget time.Duration // measuring time (--seconds)
	trace  bool
	root   string // checkout root, for building the binaries
	work   string // this run's private directory, removed at exit
	tiny   bool   // scaled-down inputs for the smoke tests
}

// check is one correctness gate.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	checks            []check
	metrics           map[string]float64
	samples           map[string]int
	inputs            []string // "name=value" input sizes for the record
	spans             []span
	notes             []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// gate records a correctness check; a failed one fails the run.
func (r *result) gate(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) input(name string, v any) {
	r.inputs = append(r.inputs, fmt.Sprintf("%s=%v", name, v))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	if r.failed > 0 || len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

var workloads = map[string]func(*env) (*result, error){
	"paper-basket":   runPaperBasket,
	"paper-mushroom": runPaperMushroom,
	"serve-zipf":     runServeZipf,
	"stream-drift":   runStreamDrift,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fset.String("workload", "", "workload name")
		seed     = fset.Int64("seed", 1, "input seed")
		secs     = fset.Int("seconds", 15, "measuring time per run")
		traceOn  = fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = fset.String("root", ".", "repository checkout root")
	)
	if err := fset.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// Interrupts cancel the workload; its deferred clean-up then stops the
	// child processes and the run directory goes below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := filepath.Join(absRoot, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(base, *workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{ctx: ctx, seed: *seed, budget: time.Duration(*secs) * time.Second,
		trace: *traceOn == 1, root: absRoot, work: work}
	started := time.Now()
	res, err := fn(e)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	// In-process workloads' memory is this process's; serving sets rockd's.
	if _, ok := res.metrics["proc.peak_rss_mb"]; !ok {
		res.set("proc.peak_rss_mb", peakRSSMB(0), 1)
	}
	if e.trace && len(res.spans) > 0 {
		dir := filepath.Join(absRoot, ".bench_build", "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", *workload, *seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = writeSpans(path, res.spans)
		}
		if err != nil {
			res.note("span file not written: %v", err)
		} else {
			res.note("span file: %s (%d spans)", strings.TrimPrefix(path, absRoot+"/"), len(res.spans))
		}
	}
	report(stdout, *workload, e, res, time.Since(started))
	if err := printJSON(stdout, res, e.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// report prints the human-readable record ahead of the JSON line: the
// environment, the input sizes, every metric with its sample count, the
// checks and, for traced runs, the self-time table.
func report(w io.Writer, workload string, e *env, res *result, took time.Duration) {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%d trace=%v run_s=%.1f\n",
		workload, e.seed, int(e.budget/time.Second), e.trace, took.Seconds())
	fmt.Fprintf(w, "# env nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf(e.root))
	fmt.Fprintf(w, "# inputs %s\n", strings.Join(res.inputs, " "))
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# metric %-26s %14.6g  n=%d\n", n, res.metrics[n], res.samples[n])
	}
	fmt.Fprintf(w, "# ops attempted=%d failed=%d failure_share=%.6f\n",
		res.attempted, res.failed, failureShare(res.attempted, res.failed))
	for _, c := range res.checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "# check %s %s: %s\n", status, c.Name, c.Detail)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# note %s\n", n)
	}
	if len(res.spans) > 0 {
		var b strings.Builder
		printSelfTimes(&b, selfTimes(res.spans))
		for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
			fmt.Fprintf(w, "# self %s\n", line)
		}
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the result line: every end-to-end metric, or with
// tracing every per-layer metric.
func printJSON(w io.Writer, res *result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		m[d.Name] = metricOut{Value: res.metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// commitOf names the code under test: the git commit when the checkout is
// a repository, otherwise a digest of its Go sources.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		io.WriteString(h, p[len(root):])
		h.Write(b)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// untilBudget reports whether another iteration of length last still fits
// in the measuring budget that began at start. The first iteration always
// runs.
func untilBudget(start time.Time, budget, last time.Duration, done int) bool {
	if done == 0 {
		return true
	}
	return time.Since(start)+last <= budget
}
