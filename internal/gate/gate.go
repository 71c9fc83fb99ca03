// Package gate is rockgate's routing tier: it turns a fleet of rockd
// replicas into one assignment service. The paper's own scaling story
// (§4.5) is that clustering runs on a sample while the full data set is
// handled by the per-point labeling phase — a stateless, embarrassingly
// parallel operation — so the serving layer scales horizontally and the
// gateway is the piece that makes N replicas look like one endpoint:
//
//   - a replica registry with active health checking: /readyz polling,
//     consecutive-failure ejection, probation-based reinstatement;
//   - power-of-two-choices balancing over live in-flight counts;
//   - request hedging after an adaptive p99-derived delay (first response
//     wins, the loser is canceled);
//   - a retry budget that honors each replica's Retry-After;
//   - model-version skew detection: replicas report the snapshot seq they
//     serve (X-Rock-Model-Seq, /readyz), and outside a coordinated
//     transition traffic is routed only to replicas on the newest seq;
//   - fleet lifecycle: POST /v1/reload and POST /v1/reload/{model} perform
//     a coordinated rolling reload — one replica at a time (drained via the
//     balancer on the legacy route), verified back through /readyz and
//     version-checked before the next — so a snapshot push never reduces
//     capacity below N−1.
package gate

import (
	"log"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rock/internal/daemon"
	"rock/internal/serve"
)

// Config tunes the gateway.
type Config struct {
	// Backends are the replica base URLs (e.g. http://10.0.0.1:7745).
	Backends []string
	// ProbeInterval is the /readyz polling period. <= 0 selects 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe. <= 0 selects 2s.
	ProbeTimeout time.Duration
	// EjectAfter ejects a live backend after that many consecutive failed
	// probes (transport-level request failures count too). <= 0 selects 3.
	EjectAfter int
	// ReinstateAfter is how many consecutive successful probes an ejected
	// backend must pass (in probation) before traffic returns. <= 0
	// selects 2.
	ReinstateAfter int
	// HedgeMin/HedgeMax clamp the adaptive hedging delay derived from the
	// observed p99 attempt latency. <= 0 select 1ms and 250ms. Until
	// hedgeWarmup latencies are observed, HedgeMax is used.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// DisableHedging turns hedged requests off entirely.
	DisableHedging bool
	// RetryRatio is the retry budget refill per admitted request: retries
	// are bounded to roughly that fraction of traffic, so a brownout
	// cannot be amplified into a retry storm. <= 0 selects 0.2.
	RetryRatio float64
	// RetryBurst is the retry budget's bucket size. <= 0 selects 16.
	RetryBurst float64
	// ReqTimeout is the per-request deadline at the gateway. <= 0 selects
	// 30s.
	ReqTimeout time.Duration
	// DrainTimeout bounds how long a rolling reload waits for one
	// replica's gateway-tracked in-flight count to reach zero. <= 0
	// selects 10s.
	DrainTimeout time.Duration
	// ReloadTimeout bounds one replica's reload + readiness verification
	// during a rolling reload. <= 0 selects 30s.
	ReloadTimeout time.Duration
	// Client overrides the HTTP client used for proxying, probing and
	// scraping (tests inject short timeouts). nil selects a default.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.ProbeInterval, time.Second)
	def(&c.ProbeTimeout, 2*time.Second)
	def(&c.HedgeMin, time.Millisecond)
	def(&c.HedgeMax, 250*time.Millisecond)
	def(&c.ReqTimeout, 30*time.Second)
	def(&c.DrainTimeout, 10*time.Second)
	def(&c.ReloadTimeout, 30*time.Second)
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReinstateAfter <= 0 {
		c.ReinstateAfter = 2
	}
	if c.RetryRatio <= 0 {
		c.RetryRatio = 0.2
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 16
	}
	return c
}

// hedgeWarmup is how many attempt latencies must be observed before the
// hedge delay trusts the p99 estimate instead of HedgeMax.
const hedgeWarmup = 100

// Gateway is the replicated serving tier's routing layer. It is an
// http.Handler; Close stops the health checker.
type Gateway struct {
	cfg      Config
	backends []*Backend
	client   *http.Client
	logger   *log.Logger
	mux      *http.ServeMux

	// lat observes successful attempt latencies; its p99 drives the
	// adaptive hedge delay.
	lat serve.Histogram

	// trans marks the routes currently mid-rolling-reload (model name, or
	// "" for the legacy route → struct{}): the version-skew filter is
	// suspended for exactly those routes while the walk deliberately mixes
	// their generations across the fleet. A legacy walk suspends every
	// route's filter; one model's walk never perturbs another's routing.
	trans sync.Map
	// reloadMus serializes rolling reloads per route (model name, or ""
	// → *sync.Mutex): a concurrent reload of the same route is refused with
	// 409 rather than queued, reloads of distinct models proceed
	// independently.
	reloadMus sync.Map

	requests   atomic.Uint64 // assign requests admitted
	hedged     atomic.Uint64 // hedge attempts launched
	hedgeWins  atomic.Uint64 // hedges whose response was used
	retried    atomic.Uint64 // retry attempts launched
	failed     atomic.Uint64 // assign requests relayed/failed with non-2xx
	noBackend  atomic.Uint64 // assign requests refused: no routable backend
	skewRoutes atomic.Uint64 // routing decisions that filtered stale-seq backends
	scrapeErrs atomic.Uint64 // backend /metrics scrapes that failed

	budget retryBudget

	pickMu  sync.Mutex
	pickRng *rand.Rand

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a gateway over the configured backends and starts its health
// checker. Backends begin in probation and turn live on their first
// successful probe, which New triggers immediately.
func New(cfg Config, logger *log.Logger) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		client:  cfg.Client,
		logger:  logger,
		mux:     http.NewServeMux(),
		pickRng: rand.New(rand.NewSource(time.Now().UnixNano())),
		stop:    make(chan struct{}),
	}
	if g.client == nil {
		g.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	}
	g.budget = retryBudget{tokens: cfg.RetryBurst, max: cfg.RetryBurst, ratio: cfg.RetryRatio}
	for _, u := range cfg.Backends {
		g.backends = append(g.backends, newBackend(u, cfg.ReinstateAfter))
	}
	g.mux.HandleFunc("POST /v1/assign", g.handleAssign)
	g.mux.HandleFunc("POST /v1/assign/{model}", g.handleAssign)
	g.mux.HandleFunc("POST /v1/reload", g.handleReload)
	g.mux.HandleFunc("POST /v1/reload/{model}", g.handleReload)
	g.mux.HandleFunc("GET /v1/fleet", g.handleFleet)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.probeAll()
	g.wg.Add(1)
	go g.checker()
	return g
}

// Close stops the health checker. In-flight requests are unaffected.
func (g *Gateway) Close() {
	close(g.stop)
	g.wg.Wait()
}

// Backends exposes the registry (read-only use: tests and cmd/rockgate
// logging).
func (g *Gateway) Backends() []*Backend { return g.backends }

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// checker polls every backend's /readyz on the probe interval.
func (g *Gateway) checker() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			g.probe(b)
		}(b)
	}
	wg.Wait()
}

func (g *Gateway) probe(b *Backend) {
	req, err := http.NewRequest(http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		return
	}
	ctx, cancel := contextWithTimeout(req.Context(), g.cfg.ProbeTimeout)
	defer cancel()
	resp, err := g.client.Do(req.WithContext(ctx))
	if err != nil {
		g.noteProbeResult(b, false)
		return
	}
	var rd daemon.Readiness
	decodeErr := decodeJSONBody(resp, &rd)
	ok := decodeErr == nil && resp.StatusCode == http.StatusOK && rd.Ready
	if ok {
		b.setSeqs(rd.Seq, rd.Models)
	}
	g.noteProbeResult(b, ok)
}

func (g *Gateway) noteProbeResult(b *Backend, ok bool) {
	before := b.State()
	var after State
	if ok {
		after = b.probeOK(g.cfg.ReinstateAfter)
	} else {
		after = b.probeFail(g.cfg.EjectAfter)
	}
	if before != after && g.logger != nil {
		g.logger.Printf("backend %s: %s -> %s (seq %d)", b.url, before, after, b.Seq())
	}
}

// transitioning reports whether a rolling reload is deliberately walking
// the fleet through a mixed-seq state for this route ("" = the legacy
// route, whose walk covers every route).
func (g *Gateway) transitioning(model string) bool {
	if _, ok := g.trans.Load(""); ok {
		return true
	}
	_, ok := g.trans.Load(model)
	return ok
}

// eligible returns the backends the balancer may route to right now for a
// request against the named model ("" = the legacy route). Live,
// non-drained, non-backing-off backends qualify; outside a coordinated
// transition, backends serving a stale snapshot seq for that route are
// filtered out so clients never see mixed model versions once a reload has
// completed. Skew in tenant A never filters routing for tenant B: each
// route's filter looks only at its own generations. Backends that do not
// report the route at all (a registry that has not registered the model)
// are kept only when nobody reports it — they will answer 404 and the
// client learns the model is unknown rather than seeing a spurious 503.
func (g *Gateway) eligible(now time.Time, model string) []*Backend {
	var live []*Backend
	for _, b := range g.backends {
		if b.routable(now) {
			live = append(live, b)
		}
	}
	if len(live) <= 1 || g.transitioning(model) {
		return live
	}
	max, reported := uint64(0), false
	for _, b := range live {
		if seq, ok := b.ModelSeq(model); ok {
			reported = true
			if seq > max {
				max = seq
			}
		}
	}
	if !reported {
		return live
	}
	newest := live[:0:0]
	for _, b := range live {
		if seq, ok := b.ModelSeq(model); ok && seq == max {
			newest = append(newest, b)
		}
	}
	if len(newest) < len(live) {
		g.skewRoutes.Add(1)
	}
	return newest
}

// pick chooses a backend by power-of-two-choices over in-flight counts,
// excluding already-tried backends (retries and hedges must land
// elsewhere). Returns nil when no eligible backend remains.
func (g *Gateway) pick(now time.Time, model string, tried map[*Backend]bool) *Backend {
	els := g.eligible(now, model)
	cands := els[:0:0]
	for _, b := range els {
		if !tried[b] {
			cands = append(cands, b)
		}
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	g.pickMu.Lock()
	i := g.pickRng.Intn(len(cands))
	j := g.pickRng.Intn(len(cands) - 1)
	g.pickMu.Unlock()
	if j >= i {
		j++
	}
	a, b := cands[i], cands[j]
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// hedgeDelay derives the hedging trigger from the observed p99 attempt
// latency, clamped to [HedgeMin, HedgeMax]; before enough observations
// exist it stays at HedgeMax (hedge late rather than double traffic on a
// cold estimate).
func (g *Gateway) hedgeDelay() time.Duration {
	if g.lat.Count() < hedgeWarmup {
		return g.cfg.HedgeMax
	}
	d := g.lat.Quantile(0.99)
	if d < g.cfg.HedgeMin {
		d = g.cfg.HedgeMin
	}
	if d > g.cfg.HedgeMax {
		d = g.cfg.HedgeMax
	}
	return d
}

// retryBudget is a token bucket refilled by admitted requests: each
// admitted assign request deposits ratio tokens, each retry withdraws one.
// When the bucket is dry, failures are returned to the client instead of
// amplified across the fleet.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

func (rb *retryBudget) deposit() {
	rb.mu.Lock()
	rb.tokens += rb.ratio
	if rb.tokens > rb.max {
		rb.tokens = rb.max
	}
	rb.mu.Unlock()
}

func (rb *retryBudget) withdraw() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}
