// Command rockgate fronts a fleet of rockd replicas with one HTTP
// endpoint: health-checked routing, power-of-two-choices load balancing,
// hedged requests, budgeted retries, model-version skew detection and
// coordinated rolling reloads.
//
//	rockgate -addr :7744 -backends http://10.0.0.1:7745,http://10.0.0.2:7745
//
// API (see internal/gate):
//
//	POST /v1/assign   proxied into the fleet (P2C + hedging + retries);
//	                  responses keep the winning replica's X-Rock-Model-Seq
//	POST /v1/assign/{model}   the same for one named model
//	POST /v1/reload   coordinated rolling reload: one replica at a time is
//	                  drained, reloaded to its newest snapshot generation,
//	                  and verified ready on the new seq before the next —
//	                  capacity never drops below N−1
//	POST /v1/reload/{model}   the same walk for one named model, without
//	                  draining
//	GET  /v1/fleet    per-replica health, seq, in-flight and counters
//	GET  /healthz     liveness (process up)
//	GET  /readyz      readiness (≥1 routable backend)
//	GET  /metrics     gateway counters + fleet-aggregated replica counters
//	                  (Prometheus text exposition)
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rock/internal/gate"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	logger := log.New(os.Stderr, "rockgate: ", log.LstdFlags|log.Lmicroseconds)
	var (
		addr           = flag.String("addr", ":7744", "listen address")
		backends       = flag.String("backends", "", "comma-separated rockd base URLs (required)")
		probeInterval  = flag.Duration("probe-interval", time.Second, "readiness probe period")
		probeTimeout   = flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		ejectAfter     = flag.Int("eject-after", 3, "consecutive probe failures before ejection")
		reinstateAfter = flag.Int("reinstate-after", 2, "consecutive probe successes before an ejected replica is reinstated")
		hedgeMin       = flag.Duration("hedge-min", time.Millisecond, "lower clamp on the adaptive hedge delay")
		hedgeMax       = flag.Duration("hedge-max", 250*time.Millisecond, "upper clamp on the adaptive hedge delay")
		noHedge        = flag.Bool("no-hedge", false, "disable hedged requests")
		retryRatio     = flag.Float64("retry-ratio", 0.2, "retry budget refill per admitted request")
		retryBurst     = flag.Float64("retry-burst", 16, "retry budget bucket size")
		reqTimeout     = flag.Duration("req-timeout", 30*time.Second, "per-request deadline")
		drainTimeout   = flag.Duration("reload-drain-timeout", 10*time.Second, "rolling reload: per-replica drain timeout")
		reloadTimeout  = flag.Duration("reload-timeout", 30*time.Second, "rolling reload: per-replica reload+verify timeout")
		shutdownDrain  = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	)
	flag.Parse()
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		logger.Fatal("usage: rockgate -backends http://host1:7745,http://host2:7745 [-addr :7744]")
	}

	g := gate.New(gate.Config{
		Backends:       urls,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		EjectAfter:     *ejectAfter,
		ReinstateAfter: *reinstateAfter,
		HedgeMin:       *hedgeMin,
		HedgeMax:       *hedgeMax,
		DisableHedging: *noHedge,
		RetryRatio:     *retryRatio,
		RetryBurst:     *retryBurst,
		ReqTimeout:     *reqTimeout,
		DrainTimeout:   *drainTimeout,
		ReloadTimeout:  *reloadTimeout,
	}, logger)
	defer g.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           g,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("fronting %d replicas, listening on %s", len(urls), *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Fatalf("server: %v", err)
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining for up to %s", *shutdownDrain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownDrain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
}
