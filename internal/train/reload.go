package train

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The publish tail of a training run talks to a live fleet, and a live fleet
// legitimately pushes back: rockd sheds with 429 + Retry-After under load, a
// gateway mid-rolling-reload answers 409, a replica restart drops the
// connection. A trainer that treats any of that as fatal — or that waits
// forever on a hung socket — turns an hours-long run into a coin flip at its
// very last step. Reloads therefore always run with a deadline and bounded
// exponential-backoff retries with jitter, honoring Retry-After.

// Defaults for ReloadOptions' zero values.
const (
	// DefaultReloadTimeout bounds one reload attempt end to end. A gateway
	// rolling reload drains and verifies every replica in sequence, so this
	// is generous compared to a single-replica reload.
	DefaultReloadTimeout = 2 * time.Minute
	// DefaultReloadAttempts is the total number of tries (first + retries).
	DefaultReloadAttempts = 5
	// DefaultReloadBackoff is the first retry delay; it doubles per attempt
	// up to DefaultReloadMaxBackoff, with up to 50% random jitter.
	DefaultReloadBackoff    = 500 * time.Millisecond
	DefaultReloadMaxBackoff = 15 * time.Second
)

// ReloadOptions shapes PostReloadRetry. The zero value selects every
// default.
type ReloadOptions struct {
	// Attempts is the total number of tries; <= 0 selects
	// DefaultReloadAttempts, 1 disables retrying.
	Attempts int
	// Backoff is the initial retry delay (doubling, jittered); MaxBackoff
	// caps it. Zero selects the defaults.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Timeout bounds each attempt. It applies through the request context,
	// so it works with any client. Zero selects DefaultReloadTimeout;
	// negative disables it (the context alone bounds the attempt).
	Timeout time.Duration
	// OnRetry, when non-nil, observes each scheduled retry: the error that
	// caused it and the delay before the next attempt.
	OnRetry func(err error, delay time.Duration)
	// Counters, when non-nil, receives StageRetries increments per retry.
	Counters *Counters
	// Model, when set, targets one named model: the reload POSTs to
	// {base}/v1/reload/{Model} (on rockd, or rockgate's per-model rolling
	// reload) instead of the legacy /v1/reload.
	Model string
}

func (o *ReloadOptions) attempts() int {
	if o.Attempts <= 0 {
		return DefaultReloadAttempts
	}
	return o.Attempts
}

func (o *ReloadOptions) backoff() time.Duration {
	if o.Backoff <= 0 {
		return DefaultReloadBackoff
	}
	return o.Backoff
}

func (o *ReloadOptions) maxBackoff() time.Duration {
	if o.MaxBackoff <= 0 {
		return DefaultReloadMaxBackoff
	}
	return o.MaxBackoff
}

func (o *ReloadOptions) timeout() time.Duration {
	if o.Timeout == 0 {
		return DefaultReloadTimeout
	}
	if o.Timeout < 0 {
		return 0
	}
	return o.Timeout
}

// reloadJitterRng adds up to 50% random jitter to backoff delays so a
// trainer reloading many replicas does not hammer them in lockstep.
var (
	reloadJitterMu  sync.Mutex
	reloadJitterRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func jittered(d time.Duration) time.Duration {
	reloadJitterMu.Lock()
	defer reloadJitterMu.Unlock()
	return d + time.Duration(reloadJitterRng.Int63n(int64(d)/2+1))
}

// reloadHTTPError is a non-2xx reload response; permanent marks statuses
// that retrying cannot fix (4xx other than 408/429).
type reloadHTTPError struct {
	base       string
	status     string
	statusCode int
	body       []byte
	retryAfter time.Duration
}

func (e *reloadHTTPError) Error() string {
	return fmt.Sprintf("train: reload %s: %s: %s", e.base, e.status, bytes.TrimSpace(e.body))
}

func (e *reloadHTTPError) permanent() bool {
	c := e.statusCode
	return c >= 400 && c < 500 && c != http.StatusTooManyRequests && c != http.StatusRequestTimeout && c != http.StatusConflict
}

// parseRetryAfter reads a Retry-After header in delay-seconds form (the form
// rockd and rockgate emit). HTTP-date and garbage both yield 0: the backoff
// schedule applies unmodified.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// postReloadOnce performs one reload attempt against base.
func postReloadOnce(ctx context.Context, client *http.Client, base, model string) (uint64, error) {
	path := "/v1/reload"
	if model != "" {
		path += "/" + model
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader([]byte("{}")))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, &reloadHTTPError{
			base:       base,
			status:     resp.Status,
			statusCode: resp.StatusCode,
			body:       body,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	var parsed struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		return 0, nil // a 200 with an exotic body is still a success
	}
	return parsed.Seq, nil
}

// PostReloadRetry asks a serving process to pick up the newest model
// generation — POST {base}/v1/reload, which both rockd (reloads its Dir's
// latest snapshot) and rockgate (rolling-reloads the fleet) accept — with
// per-attempt deadlines and bounded exponential-backoff retries. Transport
// errors, 5xx, 408, 409 (a concurrent rolling reload) and 429 are retried;
// 429's Retry-After extends the delay when it asks for longer than the
// backoff schedule would wait. Other 4xx are permanent. Returns the model
// sequence the server reports, when it reports one.
func PostReloadRetry(ctx context.Context, client *http.Client, base string, opt ReloadOptions) (uint64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	attempts := opt.attempts()
	delay := opt.backoff()
	var lastErr error
	for attempt := 1; ; attempt++ {
		actx := ctx
		cancel := func() {}
		if t := opt.timeout(); t > 0 {
			actx, cancel = context.WithTimeout(ctx, t)
		}
		seq, err := postReloadOnce(actx, client, base, opt.Model)
		cancel()
		if err == nil {
			return seq, nil
		}
		lastErr = err
		var httpErr *reloadHTTPError
		if errors.As(err, &httpErr) && httpErr.permanent() {
			return 0, err
		}
		if ctx.Err() != nil {
			return 0, fmt.Errorf("train: reload %s: %w (last error: %v)", base, ctx.Err(), lastErr)
		}
		if attempt >= attempts {
			return 0, fmt.Errorf("train: reload %s failed after %d attempts: %w", base, attempts, lastErr)
		}
		wait := jittered(delay)
		if httpErr != nil && httpErr.retryAfter > wait {
			wait = httpErr.retryAfter
		}
		opt.Counters.stageRetry()
		if opt.OnRetry != nil {
			opt.OnRetry(err, wait)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return 0, fmt.Errorf("train: reload %s: %w (last error: %v)", base, ctx.Err(), lastErr)
		}
		if delay *= 2; delay > opt.maxBackoff() {
			delay = opt.maxBackoff()
		}
	}
}

// defaultReloadClient backs PostReload calls that pass a nil client: a
// deadline is non-negotiable against a live fleet.
var defaultReloadClient = &http.Client{Timeout: DefaultReloadTimeout}

// PostReload is PostReloadRetry with background context and default options.
// A nil client gets a client with DefaultReloadTimeout — never an unbounded
// wait.
func PostReload(client *http.Client, base string) (uint64, error) {
	if client == nil {
		client = defaultReloadClient
	}
	return PostReloadRetry(context.Background(), client, base, ReloadOptions{})
}
