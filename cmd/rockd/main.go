// Command rockd serves a trained ROCK assignment model over HTTP: the
// labeling rule of Section 4.6 of the paper as a long-running daemon. Train
// anywhere, snapshot the Labeler (rock -snapshot, or Labeler.SaveSnapshot),
// then serve:
//
//	rockd -model model.rockm -addr :7745
//	rockd -dir /var/lib/rockd/models -addr :7745
//
// Every model is a tenant of one registry, and the three flags name its
// source. -model and -dir build a one-tenant registry whose model is named
// -default-model ("default"), loaded eagerly at startup: -model serves one
// snapshot file (every generation has seq 0), -dir a versioned snapshot
// directory (model-<seq>.rock), where the daemon picks the newest
// generation that loads and validates, rolling back past corrupt ones. An
// empty -dir starts idle (not ready until a snapshot lands); any other
// startup load error is fatal.
//
// With -registry the daemon serves MANY named models from one root — one
// model.Dir subdirectory per model name:
//
//	rockd -registry /var/lib/rockd/models -max-models 8 -cache 4096
//
// Registry models load lazily on first hit and the least-recently-used ones
// are evicted once -max-models/-max-model-bytes is exceeded. In every mode
// each model has its own answer cache, reload cycle and metric labels, and
// the legacy routes alias to -default-model.
//
// API (see internal/daemon for the handler layer):
//
//	POST /v1/assign   {"transactions": [[1,2,3],...]}  →  {"assignments":[{"cluster":0,"score":1.7},...]}
//	                  {"records": [["red","round"],...]} for models with a schema;
//	                  responses carry X-Rock-Model-Seq naming the serving generation
//	POST /v1/assign/{model}   same, against a named model
//	POST /v1/reload   {"path": "new.rockm"} — hot-swap with zero downtime
//	                  (-model and -dir only); {} reloads the model's source:
//	                  the latest good generation of its directory, or its
//	                  snapshot file
//	POST /v1/reload/{model}   the same for a named model
//	GET  /healthz     liveness probe (process up)
//	GET  /readyz      readiness probe (model loaded, not draining) + serving seq
//	                  + per-model serving seqs
//	GET  /metrics     Prometheus text exposition
//	GET  /v1/model    summary of the currently served model
//	GET  /v1/models   every model's serving state and counters
//
// Overload is shed with 429 + Retry-After once -max-inflight assign
// requests are in flight; each request runs under a -req-timeout deadline;
// handler panics become 500s without killing the process. SIGINT/SIGTERM
// fail /readyz, drain in-flight requests, then exit. A fleet of rockd
// replicas is fronted by rockgate (cmd/rockgate).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rock/internal/daemon"
	"rock/internal/model"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/store"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	logger := log.New(os.Stderr, "rockd: ", log.LstdFlags|log.Lmicroseconds)
	var (
		addr        = flag.String("addr", ":7745", "listen address")
		modelPath   = flag.String("model", "", "snapshot file to serve")
		dirPath     = flag.String("dir", "", "versioned snapshot directory to serve from (model-<seq>.rock)")
		retention   = flag.Int("retention", model.DefaultRetention, "snapshot generations to keep in -dir")
		workers     = flag.Int("workers", 0, "assignment worker pool size (0 = GOMAXPROCS)")
		maxInflight = flag.Int("max-inflight", 256, "assign requests admitted concurrently before shedding with 429")
		reqTimeout  = flag.Duration("req-timeout", 30*time.Second, "per-request deadline")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		injectLat   = flag.Duration("inject-latency", 0, "fault injection: extra service time per assign request (testing/benchmarking routing tiers)")
		injectTail  = flag.Duration("inject-tail", 0, "fault injection: extra straggler latency applied every -inject-tail-every requests")
		injectEvery = flag.Int("inject-tail-every", 0, "fault injection: apply -inject-tail to every Nth assign request (0 = off)")
		cacheCap    = flag.Int("cache", 0, "answer-cache capacity in entries (0 = disabled); invalidated wholesale on every reload")

		registryRoot  = flag.String("registry", "", "multi-tenant registry root (one model subdirectory per name); serves /v1/assign/{model}")
		defaultModel  = flag.String("default-model", "default", "model name the legacy routes alias to (the one model of -model and -dir)")
		maxModels     = flag.Int("max-models", 0, "registry: compiled models kept resident before LRU eviction (0 = unlimited)")
		maxModelBytes = flag.Int64("max-model-bytes", 0, "registry: estimated resident model bytes before LRU eviction (0 = unlimited)")
	)
	flag.Parse()
	modes := 0
	for _, set := range []bool{*modelPath != "", *dirPath != "", *registryRoot != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		logger.Fatal("usage: rockd (-model <snapshot> | -dir <snapshot-dir> | -registry <root>) [-addr :7745]")
	}

	rcfg := registry.Config{Keep: *retention, CacheCap: *cacheCap}
	var reg *registry.Registry
	var err error
	switch {
	case *registryRoot != "":
		rcfg.Root, rcfg.MaxModels, rcfg.MaxModelBytes = *registryRoot, *maxModels, *maxModelBytes
		if reg, err = registry.Open(rcfg); err != nil {
			logger.Fatalf("opening registry: %v", err)
		}
		logger.Printf("registry mode: root %s, %d registered models %v, default %q, budget max-models=%d max-model-bytes=%d",
			*registryRoot, len(reg.Names()), reg.Names(), *defaultModel, *maxModels, *maxModelBytes)
	case *dirPath != "":
		if err := os.MkdirAll(*dirPath, 0o755); err != nil {
			logger.Fatalf("creating snapshot directory: %v", err)
		}
		var dir *model.Dir
		if dir, err = model.OpenDir(store.OS, *dirPath, "model", *retention); err != nil {
			logger.Fatalf("opening snapshot directory: %v", err)
		}
		// Only a directory with nothing loadable in it starts idle; every
		// other load or compile failure is fatal.
		reg, err = registry.OpenDir(rcfg, *defaultModel, dir)
		if errors.Is(err, model.ErrNoSnapshots) {
			logger.Printf("no loadable snapshot in %s yet; starting idle (not ready until one lands)", *dirPath)
		} else if err != nil {
			logger.Fatalf("loading model: %v", err)
		}
	default:
		if reg, err = registry.OpenFile(rcfg, *defaultModel, *modelPath); err != nil {
			logger.Fatalf("loading model: %v", err)
		}
	}
	if *registryRoot == "" && err == nil {
		info := reg.List()[0]
		logger.Printf("serving model %q (seq %d, %d clusters)", info.Name, info.Seq, info.Clusters)
	}
	if *cacheCap > 0 {
		logger.Printf("answer cache enabled: %d entries per served model", *cacheCap)
	}
	engine := serve.New(*workers)
	handler := daemon.New(engine, logger, daemon.Config{
		MaxInflight:     *maxInflight,
		ReqTimeout:      *reqTimeout,
		Registry:        reg,
		DefaultModel:    *defaultModel,
		InjectLatency:   *injectLat,
		InjectTail:      *injectTail,
		InjectTailEvery: *injectEvery,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Fatalf("server: %v", err)
	case <-ctx.Done():
	}

	// Drain: fail readiness so load balancers stop routing here, stop
	// accepting, let in-flight requests finish, then release the worker
	// pool.
	logger.Printf("signal received, draining for up to %s", *drain)
	handler.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	engine.Close()
	m := engine.Metrics()
	logger.Printf("served %d requests (%d assignments, %d outliers); bye",
		m.Requests, m.Assignments, m.Outliers)
}
