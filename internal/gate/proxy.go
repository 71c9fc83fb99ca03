package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rock/internal/daemon"
)

// maxBodyBytes mirrors the replicas' request-body bound.
const maxBodyBytes = 32 << 20

func contextWithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}

// decodeJSONBody decodes a response body and always closes it.
func decodeJSONBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(v)
}

// attempt is the outcome of one proxied try against one backend.
type attempt struct {
	b       *Backend
	hedge   bool
	status  int
	header  http.Header
	payload []byte
	err     error // transport-level failure; status/payload are unset
}

// retryable reports whether a different backend might answer this attempt
// successfully: transport errors, sheds and server errors are; everything
// else (success, client errors) is the request's own fate.
func (a attempt) retryable() bool {
	return a.err != nil || a.status == http.StatusTooManyRequests || a.status >= 500
}

func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && g.logger != nil {
		g.logger.Printf("writing response: %v", err)
	}
}

func (g *Gateway) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	g.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleAssign proxies one labeling request into the fleet: balance by
// power-of-two-choices, hedge if the primary is slow, retry elsewhere
// within budget on shed/failure, and relay the winning response verbatim
// (including its X-Rock-Model-Seq). It serves both the legacy
// /v1/assign route and the tenant route /v1/assign/{model}; every route
// rides the same balancer, with its skew filter and seq tracking along
// that route's own axis.
func (g *Gateway) handleAssign(w http.ResponseWriter, r *http.Request) {
	model := r.PathValue("model")
	g.requests.Add(1)
	g.budget.deposit()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ReqTimeout)
	defer cancel()

	// Forward the client's codec choice: replicas negotiate the binary wire
	// format by Content-Type, and the gateway relays bodies verbatim in both
	// directions, so proxying is codec-transparent.
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	res := g.proxyAssign(ctx, model, body, ct)
	switch {
	case res.err != nil:
		g.failed.Add(1)
		status := http.StatusBadGateway
		if ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		url := "(none)"
		if res.b != nil {
			url = res.b.url
		}
		g.writeError(w, status, "backend %s: %v", url, res.err)
	case res.b == nil:
		g.noBackend.Add(1)
		g.failed.Add(1)
		w.Header().Set("Retry-After", "1")
		g.writeError(w, http.StatusServiceUnavailable, "no live backend (fleet of %d)", len(g.backends))
	default:
		if res.status != http.StatusOK {
			g.failed.Add(1)
		}
		for _, h := range []string{daemon.ModelSeqHeader, "Retry-After", "Content-Type"} {
			if v := res.header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(res.status)
		if _, err := w.Write(res.payload); err != nil && g.logger != nil {
			g.logger.Printf("relaying response: %v", err)
		}
	}
}

// proxyAssign races attempts against the fleet until one yields a
// non-retryable outcome or backends/budget run out. The returned attempt
// has b == nil when no backend was routable at all.
func (g *Gateway) proxyAssign(ctx context.Context, model string, body []byte, contentType string) attempt {
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // the winner's return cancels every straggler

	// Buffered so canceled losers can always deliver and exit.
	results := make(chan attempt, len(g.backends))
	tried := make(map[*Backend]bool, len(g.backends))
	launch := func(hedge bool) bool {
		b := g.pick(time.Now(), model, tried)
		if b == nil {
			return false
		}
		tried[b] = true
		if hedge {
			g.hedged.Add(1)
			b.hedges.Add(1)
		}
		go g.attemptOn(actx, b, model, body, contentType, hedge, results)
		return true
	}

	if !launch(false) {
		return attempt{}
	}
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if !g.cfg.DisableHedging {
		hedgeTimer = time.NewTimer(g.hedgeDelay())
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	pending := 1
	var last attempt
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			if !res.retryable() {
				if res.hedge {
					g.hedgeWins.Add(1)
					res.b.hedgeWins.Add(1)
				}
				return res
			}
			last = res
			// A shed or failed attempt retries on a different backend, if
			// the budget allows and one exists; Retry-After has already
			// pushed the shedding backend out of the eligible set.
			if g.budget.withdraw() {
				if launch(false) {
					g.retried.Add(1)
					pending++
				} else {
					g.budget.deposit() // nothing to retry on; hand the token back
				}
			}
		case <-hedgeC:
			hedgeC = nil
			// Hedge only while exactly the primary is outstanding: a
			// retry in flight already covers the slow-primary case.
			if pending == 1 {
				if launch(true) {
					pending++
				}
			}
		case <-actx.Done():
			return attempt{b: last.b, err: actx.Err()}
		}
	}
	return last
}

// attemptOn runs one try against one backend, classifying the outcome and
// feeding the balancer's signals: in-flight accounting, latency
// observation, seq tracking from the response header, Retry-After backoff.
func (g *Gateway) attemptOn(ctx context.Context, b *Backend, model string, body []byte, contentType string, hedge bool, results chan<- attempt) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Add(1)

	path := "/v1/assign"
	if model != "" {
		path += "/" + model
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		results <- attempt{b: b, hedge: hedge, err: err}
		return
	}
	req.Header.Set("Content-Type", contentType)
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		b.errors.Add(1)
		// Transport failure is the same evidence a failed probe delivers,
		// arriving faster — count it toward ejection unless we caused it
		// by canceling the attempt.
		if ctx.Err() == nil {
			g.noteProbeResult(b, false)
		}
		results <- attempt{b: b, hedge: hedge, err: err}
		return
	}
	payload, readErr := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	resp.Body.Close()
	if readErr != nil {
		b.errors.Add(1)
		results <- attempt{b: b, hedge: hedge, err: readErr}
		return
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		g.lat.Observe(time.Since(start))
		if s := resp.Header.Get(daemon.ModelSeqHeader); s != "" {
			if seq, err := strconv.ParseUint(s, 10, 64); err == nil {
				b.setModelSeq(model, seq)
			}
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		b.errors.Add(1)
		d := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			d = time.Duration(s) * time.Second
		}
		b.setBackoff(d)
	case resp.StatusCode >= 500:
		b.errors.Add(1)
	}
	results <- attempt{b: b, hedge: hedge, status: resp.StatusCode, header: resp.Header, payload: payload}
}
