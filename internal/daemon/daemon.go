// Package daemon is the rockd replica: the HTTP serving layer that fronts a
// serve.Engine worker pool with bounded admission, per-request deadlines,
// panic isolation, readiness/liveness probes, hot reloads and Prometheus
// metrics. Every model it serves is a tenant of one registry.Registry: a
// one-tenant registry for a single snapshot file or directory, or a
// registry root of named models. cmd/rockd wires it to a listener and
// signals; the gateway's tests (internal/gate) run whole fleets of these
// in-process.
//
// Every assignment response carries the X-Rock-Model-Seq header naming the
// snapshot generation that served it, and /readyz reports the same seq, so
// a routing tier can detect model-version skew across replicas without
// extra round trips.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/promtext"
	"rock/internal/registry"
	"rock/internal/serve"
	"rock/internal/wire"
)

// ModelSeqHeader is the response header naming the snapshot generation
// (model.Dir sequence number) of the model that served the response. It is
// 0 for models loaded from a bare file rather than a versioned directory.
const ModelSeqHeader = "X-Rock-Model-Seq"

// AssignRequest is the body of POST /v1/assign. Exactly one of Transactions
// and Records must be set; Records requires the model to carry a schema.
type AssignRequest struct {
	// Transactions are item-id sets, e.g. [[1,2,3],[4,5]].
	Transactions [][]int64 `json:"transactions,omitempty"`
	// Records are categorical records as value strings ("?" = missing),
	// e.g. [["red","round"],["green","?"]].
	Records [][]string `json:"records,omitempty"`
}

// AssignResponse is the body of a successful POST /v1/assign.
type AssignResponse struct {
	Assignments []serve.Assignment `json:"assignments"`
}

// ReloadRequest is the body of POST /v1/reload and POST /v1/reload/{model}.
// An empty path asks the daemon to reload the model's own source: the newest
// good snapshot of its directory, or its snapshot file. A path is accepted
// only by a -model or -dir daemon; a registry root answers it with 400.
type ReloadRequest struct {
	Path string `json:"path"`
}

// ReloadResponse is the body of a successful POST /v1/reload.
type ReloadResponse struct {
	OK             bool      `json:"ok"`
	Model          ModelInfo `json:"model"`
	Source         string    `json:"source"`
	Seq            uint64    `json:"seq"`
	RolledBackPast []string  `json:"rolled_back_past,omitempty"`
}

// ModelInfo summarizes the served model (GET /v1/model).
type ModelInfo struct {
	Clusters     int     `json:"clusters"`
	Sets         int     `json:"sets"`
	Transactions int     `json:"transactions"`
	Theta        float64 `json:"theta"`
	Similarity   string  `json:"similarity"`
	HasSchema    bool    `json:"has_schema"`
	Seq          uint64  `json:"seq"`
	// TrainPoints, TrainOutliers and TrainOutlierRate replay the producing
	// run's statistics from the snapshot (format v3+), so an operator can
	// see what a freshly published generation looked like from the serving
	// side. All zero (with HasTrainStats false) for older snapshots.
	HasTrainStats    bool    `json:"has_train_stats"`
	TrainPoints      int64   `json:"train_points,omitempty"`
	TrainOutliers    int64   `json:"train_outliers,omitempty"`
	TrainOutlierRate float64 `json:"train_outlier_rate,omitempty"`
}

func infoOf(a *model.Assigner, seq uint64) ModelInfo {
	info := ModelInfo{
		Clusters:     a.Clusters(),
		Sets:         len(a.Snapshot().Sets),
		Transactions: len(a.Snapshot().Txns),
		Theta:        a.Theta(),
		Similarity:   a.SimName(),
		HasSchema:    a.Schema() != nil,
		Seq:          seq,
	}
	if st := a.Snapshot().Stats; st != nil {
		info.HasTrainStats = true
		info.TrainPoints = st.Points
		info.TrainOutliers = st.Outliers
		info.TrainOutlierRate = st.OutlierRate
	}
	return info
}

// Readiness is the body of GET /readyz.
type Readiness struct {
	Ready       bool `json:"ready"`
	ModelLoaded bool `json:"model_loaded"`
	Draining    bool `json:"draining"`
	// Seq is the default model's serving snapshot generation (0 for
	// file-loaded models or when no model is loaded).
	Seq uint64 `json:"seq"`
	// Models maps every registered model name to the generation a request
	// for it would be served from right now (warm models report the loaded
	// seq, cold registry-root models the newest on-disk seq; 0 = file-loaded
	// or nothing to serve). Routing tiers use it for per-model skew
	// detection.
	Models map[string]uint64 `json:"models,omitempty"`
}

// maxBodyBytes bounds request bodies; a labeling request has no business
// being larger.
const maxBodyBytes = 32 << 20

// Config tunes the daemon's resilience knobs.
type Config struct {
	// MaxInflight bounds concurrently admitted /v1/assign requests; the
	// excess is shed with 429 + Retry-After instead of queuing without
	// bound. <= 0 selects 256.
	MaxInflight int
	// ReqTimeout is the per-request deadline. <= 0 selects 30s.
	ReqTimeout time.Duration
	// Registry holds the served models (required): a one-tenant registry
	// (registry.OpenFile, registry.OpenDir) or a registry root
	// (registry.Open). Every model is served via /v1/assign/{model} and
	// /v1/reload/{model}; the legacy routes alias to DefaultModel. Answer
	// caches are sized by the registry's own config.
	Registry *registry.Registry
	// DefaultModel is the model name the legacy routes (/v1/assign,
	// /v1/reload, /v1/model) act on ("default" when empty).
	DefaultModel string
	// InjectLatency, when positive, adds that much service time to every
	// assign request while it holds its admission slot. It exists to test
	// and benchmark routing tiers: it turns a replica into a realistic
	// capacity-bounded server (capacity ≈ MaxInflight/InjectLatency) even
	// on hosts with a single core, the same way proxy fault-injection
	// filters do. Off (zero) in production.
	InjectLatency time.Duration
	// InjectTail adds an extra InjectTail sleep to every InjectTailEvery-th
	// assign request, modeling a straggler tail for hedging experiments.
	// InjectTailEvery <= 0 disables it.
	InjectTail      time.Duration
	InjectTailEvery int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.ReqTimeout <= 0 {
		c.ReqTimeout = 30 * time.Second
	}
	if c.DefaultModel == "" {
		c.DefaultModel = "default"
	}
	return c
}

// Server routes rockd's HTTP API onto a serve.Engine. It is an
// http.Handler, so tests drive it through httptest without a socket.
type Server struct {
	engine *serve.Engine
	logger *log.Logger
	mux    *http.ServeMux
	cfg    Config
	// sem is the admission semaphore for /v1/assign: a slot per admitted
	// request, no queue. Full slot table → shed with 429.
	sem chan struct{}
	// draining is set when graceful shutdown begins; /readyz then fails so
	// load balancers stop routing here while in-flight requests finish.
	draining atomic.Bool
	shed     atomic.Uint64
	panics   atomic.Uint64
	// admitted counts admitted assign requests; the tail injector keys off
	// it to slow every Nth one.
	admitted atomic.Uint64
	// scratch pools per-request buffers for the binary assign path: body,
	// decoded transactions/items, assignments and the encoded response all
	// reuse their previous capacity, so a warmed-up binary request performs
	// zero steady-state allocations end to end.
	scratch sync.Pool
}

// assignScratch is the reusable buffer set of one binary assign request.
type assignScratch struct {
	body  []byte
	txns  []dataset.Transaction
	items []dataset.Item
	out   []serve.Assignment
	resp  []byte
}

// New wraps engine in the rockd HTTP API over cfg.Registry. A model with no
// snapshot to serve answers 503 on its assign routes, and /readyz fails
// until some model has one.
func New(engine *serve.Engine, logger *log.Logger, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		engine: engine,
		logger: logger,
		mux:    http.NewServeMux(),
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxInflight),
	}
	s.scratch.New = func() any { return &assignScratch{body: make([]byte, 0, 4<<10)} }
	s.mux.HandleFunc("POST /v1/assign", s.handleAssign)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/model", s.handleModel)
	s.mux.HandleFunc("POST /v1/assign/{model}", s.handleAssign)
	s.mux.HandleFunc("POST /v1/reload/{model}", s.handleReload)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Panic isolation: one broken request must cost a 500, not the
	// process. Recover installs before anything else so even middleware
	// bugs are contained.
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			s.logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			s.writeError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ReqTimeout)
	defer cancel()
	r = r.WithContext(ctx)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// BeginDrain flips readiness off ahead of graceful shutdown, so probes pull
// the instance out of rotation while in-flight requests complete.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Mux exposes the underlying mux so tests can graft extra handlers (e.g. a
// deliberately panicking route).
func (s *Server) Mux() *http.ServeMux { return s.mux }

// Sem exposes the admission semaphore for tests that saturate it directly.
func (s *Server) Sem() chan struct{} { return s.sem }

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logger.Printf("writing response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// count records the served batch against the lease's per-model counters
// (the engine's own counters cover every model together).
func count(lease *registry.Lease, out []serve.Assignment) {
	outliers := 0
	for _, a := range out {
		if a.Cluster == serve.Outlier {
			outliers++
		}
	}
	lease.Count(len(out), outliers)
}

// registryStatus maps a registry error onto an HTTP status.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, model.ErrNoSnapshots):
		return http.StatusServiceUnavailable
	case errors.Is(err, registry.ErrBadReload):
		return http.StatusBadRequest
	default:
		// Snapshot load or compile failure.
		return http.StatusUnprocessableEntity
	}
}

// modelName is the model a request names: its {model} path segment, or
// the default model on the legacy routes.
func (s *Server) modelName(r *http.Request) string {
	if name := r.PathValue("model"); name != "" {
		return name
	}
	return s.cfg.DefaultModel
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	// Bounded admission: take a slot or shed. A full slot table means the
	// worker pool is saturated; queuing more would only grow memory and
	// latency without growing throughput.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "server at capacity (%d in flight); retry later", s.cfg.MaxInflight)
		return
	}
	// Capture model + generation once: encoding (for records), assignment
	// and the response's seq header all describe this one version, so a
	// concurrent reload can never split the request across two models.
	name := s.modelName(r)
	lease, err := s.cfg.Registry.Acquire(name)
	if err != nil {
		s.writeError(w, registryStatus(err), "model %q: %v", name, err)
		return
	}
	defer lease.Release()
	// Content-Type negotiation: the binary codec gets the zero-allocation
	// pooled path, everything else falls through to JSON. Error responses
	// stay JSON in both cases.
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, wire.ContentType) {
		s.handleAssignBinary(w, r, &lease)
		return
	}
	var req AssignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if (req.Transactions == nil) == (req.Records == nil) {
		s.writeError(w, http.StatusBadRequest, "send exactly one of transactions or records")
		return
	}
	var txns []dataset.Transaction
	if req.Transactions != nil {
		txns = make([]dataset.Transaction, len(req.Transactions))
		for i, items := range req.Transactions {
			t := make(dataset.Transaction, 0, len(items))
			for _, it := range items {
				if it < 0 || it > 1<<31-1 {
					s.writeError(w, http.StatusBadRequest, "transaction %d: item %d out of range", i, it)
					return
				}
				t = append(t, dataset.Item(it))
			}
			t.Normalize()
			txns[i] = t
		}
	} else {
		txns = make([]dataset.Transaction, len(req.Records))
		for i, rec := range req.Records {
			t, err := lease.Assigner.EncodeRecord(rec)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, "record %d: %v", i, err)
				return
			}
			txns[i] = t
		}
	}
	s.injectServiceTime()
	out := make([]serve.Assignment, len(txns))
	if err := s.engine.AssignInto(r.Context(), lease.Assigner, lease.Cache, txns, out); err != nil {
		// The client went away or the per-request deadline fired; either
		// way the batch was not fully served.
		status := http.StatusServiceUnavailable
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		s.writeError(w, status, "request abandoned: %v", err)
		return
	}
	count(&lease, out)
	w.Header().Set(ModelSeqHeader, strconv.FormatUint(lease.Seq, 10))
	s.writeJSON(w, http.StatusOK, AssignResponse{Assignments: out})
}

// handleAssignBinary is the binary-codec arm of POST /v1/assign
// (Content-Type: application/x-rock-assign, transactions only — records
// stay JSON). Every buffer the request touches comes from the scratch pool,
// so the decode → assign → encode loop allocates nothing once warm. The
// caller has already taken an admission slot and leased the model.
func (s *Server) handleAssignBinary(w http.ResponseWriter, r *http.Request, lease *registry.Lease) {
	sc := s.scratch.Get().(*assignScratch)
	defer s.scratch.Put(sc)
	var err error
	if sc.body, err = readAll(r.Body, sc.body[:0]); err != nil {
		s.writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if sc.txns, sc.items, err = wire.DecodeRequest(sc.body, sc.txns, sc.items); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// The wire format carries raw transactions; normalize in place exactly
	// as the JSON path does (the arena tolerates the shrink).
	for i := range sc.txns {
		sc.txns[i].Normalize()
	}
	if cap(sc.out) < len(sc.txns) {
		sc.out = make([]serve.Assignment, len(sc.txns))
	} else {
		sc.out = sc.out[:len(sc.txns)]
	}
	s.injectServiceTime()
	if err := s.engine.AssignInto(r.Context(), lease.Assigner, lease.Cache, sc.txns, sc.out); err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		s.writeError(w, status, "request abandoned: %v", err)
		return
	}
	count(lease, sc.out)
	sc.resp = wire.AppendResponse(sc.resp[:0], sc.out)
	w.Header().Set(ModelSeqHeader, strconv.FormatUint(lease.Seq, 10))
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.resp)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(sc.resp); err != nil {
		s.logger.Printf("writing response: %v", err)
	}
}

// readAll reads r to EOF into buf, reusing and growing its capacity, so a
// pooled buffer makes steady-state body reads allocation-free (io.ReadAll
// always allocates a fresh slice).
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// injectServiceTime applies the configured fault-injection sleeps while the
// request holds its admission slot, turning the replica into a
// capacity-bounded server for routing-tier tests and benchmarks.
func (s *Server) injectServiceTime() {
	if s.cfg.InjectLatency <= 0 && s.cfg.InjectTailEvery <= 0 {
		return
	}
	d := s.cfg.InjectLatency
	if n := s.cfg.InjectTailEvery; n > 0 {
		if s.admitted.Add(1)%uint64(n) == 0 {
			d += s.cfg.InjectTail
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// handleReload is POST /v1/reload and POST /v1/reload/{model}: load,
// compile and install a fresh generation of the named (or default) model —
// from the body's path when given (-model/-dir only), else from the model's
// own source, rolling back past corrupt directory generations. The new
// assigner and its fresh answer cache swap in together, so no request pairs
// one generation's assigner with another's cache; on error the served
// generation is unchanged.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	name := s.modelName(r)
	l, skipped, err := s.cfg.Registry.ReloadFrom(name, req.Path)
	for _, e := range skipped {
		s.logger.Printf("rollback: model %q snapshot %s (seq %d) failed to load, falling back", name, e.Path, e.Seq)
	}
	if err != nil {
		s.writeError(w, registryStatus(err), "model %q: %v", name, err)
		return
	}
	s.logger.Printf("serving model %q from %s (seq %d, %d clusters, %d labeled transactions, theta=%.3f sim=%s)",
		name, l.Source, l.Seq, l.Assigner.Clusters(), len(l.Assigner.Snapshot().Txns), l.Assigner.Theta(), l.Assigner.SimName())
	resp := ReloadResponse{OK: true, Model: infoOf(l.Assigner, l.Seq), Source: l.Source, Seq: l.Seq}
	for _, e := range skipped {
		resp.RolledBackPast = append(resp.RolledBackPast, e.Path)
	}
	w.Header().Set(ModelSeqHeader, strconv.FormatUint(l.Seq, 10))
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness only: the process is up and serving HTTP. It
// deliberately stays green through drains and model-less starts — restarts
// don't fix either.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is readiness: route traffic here only when some model has a
// generation to serve — warm, or on disk for a cold registry-root model —
// and the daemon is not draining. A -model/-dir model is cold only when its
// last load failed, so it reports seq 0 and counts as not loaded. The payload carries the serving snapshot
// generations so health checkers double as skew detectors.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := Readiness{Models: make(map[string]uint64)}
	for _, info := range s.cfg.Registry.List() {
		rd.Models[info.Name] = info.Seq
		// A file generation is warm from startup but has seq 0.
		if info.Seq > 0 || info.State == "warm" {
			rd.ModelLoaded = true
		}
	}
	rd.Seq = rd.Models[s.cfg.DefaultModel]
	rd.Draining = s.draining.Load()
	rd.Ready = rd.ModelLoaded && !rd.Draining
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, rd)
}

// handleMetrics emits the daemon's counters and latency histogram in
// Prometheus text exposition format, so the gateway and any scraper can
// parse and aggregate them. The served-generation families (reloads, cache
// entries and evictions) sum over every model; the unlabeled model seq is
// the default model's.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := s.engine.Metrics()
	var reloads, cacheEvicts uint64
	var cacheEntries int
	var seq uint64
	models := s.cfg.Registry.List()
	for _, info := range models {
		reloads += info.Reloads
		cacheEvicts += info.CacheEvicts
		cacheEntries += info.CacheEntries
		if info.Name == s.cfg.DefaultModel {
			seq = info.Seq
		}
	}
	p := promtext.NewWriter(w)
	p.Counter("rockd_requests_total", "Assign batches served.", float64(m.Requests))
	p.Counter("rockd_assignments_total", "Individual transactions assigned.", float64(m.Assignments))
	p.Counter("rockd_outliers_total", "Assignments that landed in no cluster.", float64(m.Outliers))
	p.Counter("rockd_reloads_total", "Model hot-swaps.", float64(reloads))
	p.Counter("rockd_cache_hits_total", "Answer-cache hits on the assign path.", float64(m.CacheHits))
	p.Counter("rockd_cache_misses_total", "Answer-cache misses on the assign path.", float64(m.CacheMisses))
	p.Counter("rockd_cache_evictions_total", "Answers displaced by the cache's CLOCK sweep.", float64(cacheEvicts))
	p.Gauge("rockd_cache_entries", "Currently cached answers.", float64(cacheEntries))
	p.Counter("rockd_shed_total", "Assign requests shed with 429 at the admission gate.", float64(s.shed.Load()))
	p.Counter("rockd_panics_total", "Handler panics converted to 500s.", float64(s.panics.Load()))
	// One family, two shapes: the unlabeled default-model sample, then one
	// model-labeled sample per model.
	p.GaugeFamily("rockd_model_seq", "Serving snapshot generation, unlabeled for the default model and labeled per model (0 = file-loaded or none).")
	p.Sample("rockd_model_seq", "", float64(seq))
	for _, info := range models {
		p.Sample("rockd_model_seq", promtext.Label("model", info.Name), float64(info.Seq))
	}
	p.Gauge("rockd_inflight", "Assign requests currently holding an admission slot.", float64(len(s.sem)))
	lat := s.engine.Latency()
	p.Histogram("rockd_request_latency_seconds", "Engine batch-assignment latency.",
		lat.Bounds, lat.Counts, lat.SumSeconds)
	s.writeModelMetrics(p, models)
	if err := p.Err(); err != nil {
		s.logger.Printf("writing metrics: %v", err)
	}
}

// writeModelMetrics emits the per-tenant counter and gauge families, one
// model-labeled sample per registered model.
func (s *Server) writeModelMetrics(p *promtext.Writer, infos []registry.Info) {
	counters := []struct {
		name, help string
		value      func(registry.Info) uint64
	}{
		{"rockd_model_requests_total", "Assign batches served, per model.",
			func(i registry.Info) uint64 { return i.Requests }},
		{"rockd_model_assignments_total", "Transactions assigned, per model.",
			func(i registry.Info) uint64 { return i.Assignments }},
		{"rockd_model_outliers_total", "Outlier assignments, per model.",
			func(i registry.Info) uint64 { return i.Outliers }},
		{"rockd_model_reloads_total", "Explicit per-model reloads.",
			func(i registry.Info) uint64 { return i.Reloads }},
		{"rockd_model_loads_total", "Lazy cold-hit loads, per model.",
			func(i registry.Info) uint64 { return i.Loads }},
		{"rockd_model_evictions_total", "Budget evictions of the compiled model.",
			func(i registry.Info) uint64 { return i.Evictions }},
		{"rockd_model_cache_evictions_total", "Answer-cache CLOCK evictions, per model.",
			func(i registry.Info) uint64 { return i.CacheEvicts }},
	}
	for _, c := range counters {
		p.CounterFamily(c.name, c.help)
		for _, info := range infos {
			p.Sample(c.name, promtext.Label("model", info.Name), float64(c.value(info)))
		}
	}
	gauges := []struct {
		name, help string
		value      func(registry.Info) float64
	}{
		{"rockd_model_warm", "1 when the compiled model is resident, 0 when cold.",
			func(i registry.Info) float64 {
				if i.State == "warm" {
					return 1
				}
				return 0
			}},
		{"rockd_model_cache_entries", "Currently cached answers, per model.",
			func(i registry.Info) float64 { return float64(i.CacheEntries) }},
	}
	for _, g := range gauges {
		p.GaugeFamily(g.name, g.help)
		for _, info := range infos {
			p.Sample(g.name, promtext.Label("model", info.Name), g.value(info))
		}
	}
	p.Gauge("rockd_models_warm", "Compiled models currently resident.", float64(s.cfg.Registry.WarmCount()))
}

// handleModel describes the default model, warming it if cold exactly as an
// assign would.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	lease, err := s.cfg.Registry.Acquire(s.cfg.DefaultModel)
	if err != nil {
		s.writeError(w, registryStatus(err), "model %q: %v", s.cfg.DefaultModel, err)
		return
	}
	defer lease.Release()
	w.Header().Set(ModelSeqHeader, strconv.FormatUint(lease.Seq, 10))
	s.writeJSON(w, http.StatusOK, infoOf(lease.Assigner, lease.Seq))
}

// ModelsResponse is the body of GET /v1/models: every registered model's
// serving state and counters.
type ModelsResponse struct {
	DefaultModel string          `json:"default_model"`
	Models       []registry.Info `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, ModelsResponse{
		DefaultModel: s.cfg.DefaultModel,
		Models:       s.cfg.Registry.List(),
	})
}
