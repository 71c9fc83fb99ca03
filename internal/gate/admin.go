package gate

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rock/internal/daemon"
	"rock/internal/promtext"
)

// FleetReplica is one backend's row in GET /v1/fleet.
type FleetReplica struct {
	URL              string `json:"url"`
	State            string `json:"state"`
	Seq              uint64 `json:"seq"`
	Inflight         int64  `json:"inflight"`
	Draining         bool   `json:"draining"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	Requests         uint64 `json:"requests"`
	Errors           uint64 `json:"errors"`
	Hedges           uint64 `json:"hedges"`
	HedgeWins        uint64 `json:"hedge_wins"`
	// Models are the per-model serving generations the replica last
	// reported (absent when it reported none).
	Models map[string]uint64 `json:"models,omitempty"`
}

// FleetResponse is the body of GET /v1/fleet.
type FleetResponse struct {
	Replicas []FleetReplica `json:"replicas"`
	// MaxSeq is the newest snapshot generation any live replica serves.
	MaxSeq uint64 `json:"max_seq"`
	// SkewDetected is true when live replicas disagree on the serving seq.
	SkewDetected bool `json:"skew_detected"`
	// Transitioning is true while a rolling reload of the legacy route
	// walks the fleet.
	Transitioning bool `json:"transitioning"`
	// ModelMaxSeq is, per model, the newest generation any live replica
	// serves it at.
	ModelMaxSeq map[string]uint64 `json:"model_max_seq,omitempty"`
	// ModelSkew lists models whose live replicas disagree on the serving
	// generation.
	ModelSkew []string `json:"model_skew,omitempty"`
	// ModelTransitioning lists models mid-rolling-reload.
	ModelTransitioning []string `json:"model_transitioning,omitempty"`
}

func (g *Gateway) fleet() FleetResponse {
	var out FleetResponse
	seqs := map[uint64]bool{}
	modelSeqs := map[string]map[uint64]bool{}
	for _, b := range g.backends {
		st := b.State()
		models := b.Models()
		out.Replicas = append(out.Replicas, FleetReplica{
			URL:              b.url,
			State:            st.String(),
			Seq:              b.Seq(),
			Inflight:         b.Inflight(),
			Draining:         b.drained.Load(),
			ConsecutiveFails: b.consecutiveFails(),
			Requests:         b.requests.Load(),
			Errors:           b.errors.Load(),
			Hedges:           b.hedges.Load(),
			HedgeWins:        b.hedgeWins.Load(),
			Models:           models,
		})
		if st == StateLive {
			seqs[b.Seq()] = true
			if b.Seq() > out.MaxSeq {
				out.MaxSeq = b.Seq()
			}
			for name, seq := range models {
				if out.ModelMaxSeq == nil {
					out.ModelMaxSeq = map[string]uint64{}
				}
				if seq > out.ModelMaxSeq[name] {
					out.ModelMaxSeq[name] = seq
				}
				if modelSeqs[name] == nil {
					modelSeqs[name] = map[uint64]bool{}
				}
				modelSeqs[name][seq] = true
			}
		}
	}
	out.SkewDetected = len(seqs) > 1
	for name, set := range modelSeqs {
		if len(set) > 1 {
			out.ModelSkew = append(out.ModelSkew, name)
		}
	}
	sort.Strings(out.ModelSkew)
	g.trans.Range(func(k, _ any) bool {
		if name := k.(string); name == "" {
			out.Transitioning = true
		} else {
			out.ModelTransitioning = append(out.ModelTransitioning, name)
		}
		return true
	})
	sort.Strings(out.ModelTransitioning)
	return out
}

func (g *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	g.writeJSON(w, http.StatusOK, g.fleet())
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz: the gateway is ready when at least one backend is routable.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	n := len(g.eligible(time.Now(), ""))
	status := http.StatusOK
	if n == 0 {
		status = http.StatusServiceUnavailable
	}
	g.writeJSON(w, status, map[string]any{"ready": n > 0, "routable_backends": n})
}

// ReplicaReload is one backend's row in the rolling-reload report.
type ReplicaReload struct {
	URL     string `json:"url"`
	OK      bool   `json:"ok"`
	Skipped bool   `json:"skipped,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	// Status is the replica's HTTP status when the reload call failed
	// with a non-200 (0 otherwise).
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// ReloadFleetResponse is the body of the gateway's POST /v1/reload and
// POST /v1/reload/{model}.
type ReloadFleetResponse struct {
	OK bool `json:"ok"`
	// Model names the model a per-model rolling reload walked (empty for
	// the legacy route).
	Model    string          `json:"model,omitempty"`
	Seq      uint64          `json:"seq"`
	Replicas []ReplicaReload `json:"replicas"`
}

// reloadLock returns the mutex serializing rolling reloads of one route
// (model name, or "" for the legacy route).
func (g *Gateway) reloadLock(model string) *sync.Mutex {
	mu, _ := g.reloadMus.LoadOrStore(model, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// handleReload performs a coordinated rolling reload of one route across
// the fleet: POST /v1/reload walks the legacy route (each replica's default
// model), POST /v1/reload/{model} one named model. One live replica at a
// time is told to reload its newest generation, then verified through
// /readyz — ready and serving the expected seq — before the next replica
// starts, and every replica must land on the same generation; a mismatch
// (replica snapshot directories out of sync) aborts the walk. The legacy
// route also drains each replica via the balancer first, so capacity never
// drops below N−1 routable replicas. A named model's walk drains nothing:
// a replica swaps one model's compiled assigner atomically while every
// other model keeps serving, so one tenant's publish never pauses another
// tenant's traffic. A concurrent reload of the same route is refused with
// 409; reloads of distinct models proceed independently.
func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) {
	model := r.PathValue("model")
	mu := g.reloadLock(model)
	if !mu.TryLock() {
		g.writeError(w, http.StatusConflict, "a rolling reload of %s is already in progress", routeName(model))
		return
	}
	defer mu.Unlock()
	// Only this route's skew filter is suspended while the walk mixes its
	// generations across the fleet.
	g.trans.Store(model, struct{}{})
	defer g.trans.Delete(model)

	resp := ReloadFleetResponse{OK: true, Model: model}
	var target uint64
	targetSet := false
	for _, b := range g.backends {
		if b.State() != StateLive {
			resp.Replicas = append(resp.Replicas, ReplicaReload{
				URL: b.url, Skipped: true,
				Error: fmt.Sprintf("replica is %s; it serves its newest generation once reinstated", b.State()),
			})
			continue
		}
		rr := g.reloadReplica(r.Context(), b, model, &target, &targetSet)
		resp.Replicas = append(resp.Replicas, rr)
		if !rr.OK {
			resp.OK = false
			break
		}
	}
	resp.Seq = target
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusBadGateway
		// Replica errors that are clearly the model's own fault (unknown
		// name, nothing published yet) surface with their original status.
		for _, rr := range resp.Replicas {
			if rr.Status == http.StatusNotFound || rr.Status == http.StatusServiceUnavailable {
				status = rr.Status
				break
			}
		}
	}
	if g.logger != nil {
		g.logger.Printf("rolling reload of %s: ok=%v seq=%d (%d replicas)", routeName(model), resp.OK, resp.Seq, len(resp.Replicas))
	}
	g.writeJSON(w, status, resp)
}

// routeName names a reload route in messages.
func routeName(model string) string {
	if model == "" {
		return "the default model"
	}
	return fmt.Sprintf("model %q", model)
}

// reloadReplica drains one replica (legacy route only), reloads the route on
// it, checks the reloaded seq against the fleet target, and waits until the
// replica's /readyz reports the route at that seq.
func (g *Gateway) reloadReplica(ctx context.Context, b *Backend, model string, target *uint64, targetSet *bool) ReplicaReload {
	out := ReplicaReload{URL: b.url}
	path := "/v1/reload"
	if model == "" {
		// Drain: out of the balancer, then wait for in-flight zero.
		b.drained.Store(true)
		defer b.drained.Store(false)
		drainDeadline := time.Now().Add(g.cfg.DrainTimeout)
		for b.inflight.Load() > 0 {
			if time.Now().After(drainDeadline) {
				out.Error = fmt.Sprintf("drain timed out with %d requests in flight", b.inflight.Load())
				return out
			}
			select {
			case <-ctx.Done():
				out.Error = "canceled while draining: " + ctx.Err().Error()
				return out
			case <-time.After(2 * time.Millisecond):
			}
		}
	} else {
		path += "/" + model
	}

	rctx, cancel := context.WithTimeout(ctx, g.cfg.ReloadTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, b.url+path, bytes.NewReader([]byte("{}")))
	if err != nil {
		out.Error = err.Error()
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := g.client.Do(req)
	if err != nil {
		out.Error = "reload: " + err.Error()
		return out
	}
	var rl daemon.ReloadResponse
	if err := decodeJSONBody(httpResp, &rl); err != nil {
		out.Error = "reload: decoding response: " + err.Error()
		return out
	}
	if httpResp.StatusCode != http.StatusOK || !rl.OK {
		out.Status = httpResp.StatusCode
		out.Error = fmt.Sprintf("reload: replica answered %d", httpResp.StatusCode)
		return out
	}
	out.Seq = rl.Seq

	// Version check: every replica must land on the same generation.
	if !*targetSet {
		*target, *targetSet = rl.Seq, true
	} else if rl.Seq != *target {
		out.Error = fmt.Sprintf("version skew: replica reloaded %s to seq %d, fleet target is %d (snapshot directories out of sync)", routeName(model), rl.Seq, *target)
		return out
	}

	// Verify through the same readiness probe the health checker trusts
	// before the next replica is touched; what it reports is authoritative.
	for {
		rd, err := g.fetchReadyz(rctx, b)
		if err == nil && rd.Ready && readySeq(rd, model) == rl.Seq {
			b.setSeqs(rd.Seq, rd.Models)
			break
		}
		select {
		case <-rctx.Done():
			out.Error = fmt.Sprintf("replica did not come back ready with %s at seq %d: %v", routeName(model), rl.Seq, rctx.Err())
			return out
		case <-time.After(5 * time.Millisecond):
		}
	}
	out.OK = true
	return out
}

// readySeq is the seq a readiness payload reports for one route.
func readySeq(rd daemon.Readiness, model string) uint64 {
	if model == "" {
		return rd.Seq
	}
	return rd.Models[model]
}

func (g *Gateway) fetchReadyz(ctx context.Context, b *Backend) (daemon.Readiness, error) {
	var rd daemon.Readiness
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		return rd, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return rd, err
	}
	if err := decodeJSONBody(resp, &rd); err != nil {
		return rd, err
	}
	if resp.StatusCode != http.StatusOK {
		return rd, fmt.Errorf("readyz: %d", resp.StatusCode)
	}
	return rd, nil
}

// handleMetrics exposes the gateway's own counters plus fleet-aggregated
// replica counters, all in Prometheus text exposition format. The replica
// aggregation scrapes each backend's /metrics, parses the exposition and
// sums counters and histogram buckets pointwise — every replica shares the
// same bucket bounds, so the sums are themselves a valid histogram.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := promtext.NewWriter(w)
	p.Counter("rockgate_requests_total", "Assign requests admitted at the gateway.", float64(g.requests.Load()))
	p.Counter("rockgate_hedges_total", "Hedge attempts launched.", float64(g.hedged.Load()))
	p.Counter("rockgate_hedge_wins_total", "Hedge attempts whose response won.", float64(g.hedgeWins.Load()))
	p.Counter("rockgate_retries_total", "Retry attempts launched within budget.", float64(g.retried.Load()))
	p.Counter("rockgate_failed_total", "Assign requests answered with a non-200.", float64(g.failed.Load()))
	p.Counter("rockgate_no_backend_total", "Assign requests refused: no routable backend.", float64(g.noBackend.Load()))
	p.Counter("rockgate_skew_filtered_total", "Routing decisions that excluded stale-seq replicas.", float64(g.skewRoutes.Load()))
	p.Counter("rockgate_scrape_errors_total", "Backend /metrics scrapes that failed.", float64(g.scrapeErrs.Load()))
	lat := g.lat.Snapshot()
	p.Histogram("rockgate_attempt_latency_seconds", "Latency of successful backend attempts.",
		lat.Bounds, lat.Counts, lat.SumSeconds)

	p.Header("rockgate_backend_up", "gauge", "1 when the backend is live in the registry.")
	for _, b := range g.backends {
		up := 0.0
		if b.State() == StateLive {
			up = 1
		}
		p.Sample("rockgate_backend_up", promtext.Label("backend", b.url), up)
	}
	p.Header("rockgate_backend_inflight", "gauge", "Outstanding gateway attempts per backend.")
	for _, b := range g.backends {
		p.Sample("rockgate_backend_inflight", promtext.Label("backend", b.url), float64(b.Inflight()))
	}
	p.Header("rockgate_backend_model_seq", "gauge", "Snapshot generation each backend serves.")
	for _, b := range g.backends {
		p.Sample("rockgate_backend_model_seq", promtext.Label("backend", b.url), float64(b.Seq()))
	}
	p.Header("rockgate_backend_registry_model_seq", "gauge", "Per-model serving generation each backend reports.")
	for _, b := range g.backends {
		models := b.Models()
		names := make([]string, 0, len(models))
		for name := range models {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			labels := promtext.Label("backend", b.url) + "," + promtext.Label("model", name)
			p.Sample("rockgate_backend_registry_model_seq", labels, float64(models[name]))
		}
	}
	p.Header("rockgate_backend_requests_total", "counter", "Attempts dispatched per backend.")
	for _, b := range g.backends {
		p.Sample("rockgate_backend_requests_total", promtext.Label("backend", b.url), float64(b.requests.Load()))
	}
	p.Header("rockgate_backend_errors_total", "counter", "Failed attempts per backend.")
	for _, b := range g.backends {
		p.Sample("rockgate_backend_errors_total", promtext.Label("backend", b.url), float64(b.errors.Load()))
	}

	g.writeFleetAggregate(p, r.Context())
	if err := p.Err(); err != nil && g.logger != nil {
		g.logger.Printf("writing metrics: %v", err)
	}
}

// writeFleetAggregate scrapes every live backend's Prometheus /metrics and
// re-emits the summed rockd_* series under rockgate_fleet_*. Gauges whose
// sum is meaningless across replicas (the per-replica model seq) are
// skipped; the fleet view carries those per replica.
func (g *Gateway) writeFleetAggregate(p *promtext.Writer, ctx context.Context) {
	agg := map[string]float64{}
	for _, b := range g.backends {
		if b.State() != StateLive {
			continue
		}
		sctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
		req, err := http.NewRequestWithContext(sctx, http.MethodGet, b.url+"/metrics", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := g.client.Do(req)
		if err != nil {
			cancel()
			g.scrapeErrs.Add(1)
			continue
		}
		samples, err := promtext.Parse(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil {
			g.scrapeErrs.Add(1)
			continue
		}
		promtext.Sum(agg, samples)
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		// The per-replica seq gauge sums to nonsense; /v1/fleet carries it
		// per replica instead.
		if strings.HasPrefix(k, "rockd_") && !strings.HasPrefix(k, "rockd_model_seq") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		series := "rockgate_fleet_" + strings.TrimPrefix(k, "rockd_")
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		p.Sample(name, labels, agg[k])
	}
}
