package gate

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// State is a backend's position in the health state machine.
type State int32

const (
	// StateLive backends receive traffic.
	StateLive State = iota
	// StateProbation backends answered a probe after being ejected (or have
	// not been probed yet) and must pass ReinstateAfter consecutive probes
	// before traffic returns — a single lucky probe must not flap a sick
	// replica back into rotation.
	StateProbation
	// StateEjected backends failed EjectAfter consecutive probes and
	// receive no traffic until probation reinstates them.
	StateEjected
)

func (s State) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateProbation:
		return "probation"
	case StateEjected:
		return "ejected"
	}
	return "state(" + strconv.Itoa(int(s)) + ")"
}

// Backend is one rockd replica behind the gateway: its address, its health
// state machine (driven by the registry's active /readyz checker plus
// passive transport-error signals from the request path), the live
// in-flight count the power-of-two-choices balancer compares, the snapshot
// generations it last reported, and per-backend traffic counters.
type Backend struct {
	url string

	// mu guards the state machine fields below; everything else is atomic.
	mu          sync.Mutex
	state       State
	consecFails int
	consecOKs   int

	// inflight counts gateway attempts currently outstanding against this
	// backend — the balancer's load signal and the rolling-reload
	// controller's drain barrier.
	inflight atomic.Int64
	// seqs maps each route to the snapshot generation the backend last
	// reported for it: the legacy route under "" and every named model
	// under its name. /readyz probes replace the whole map; response
	// headers only ever raise one entry. The map is immutable once stored;
	// updates swap in a copy.
	seqs atomic.Pointer[map[string]uint64]
	// drained marks the backend administratively out of rotation while the
	// rolling-reload controller works on it.
	drained atomic.Bool
	// backoffUntil (unix nanos) keeps the balancer away from a backend
	// that shed with Retry-After until the requested delay has passed.
	backoffUntil atomic.Int64

	requests  atomic.Uint64 // attempts dispatched (primary + hedge + retry)
	errors    atomic.Uint64 // attempts that failed (transport, 429, 5xx)
	hedges    atomic.Uint64 // hedge attempts dispatched to this backend
	hedgeWins atomic.Uint64 // hedge attempts that won their race
}

// newBackend starts in probation one successful probe away from live: a
// fresh gateway trusts a replica as soon as it answers once, but a replica
// that was ejected must re-earn trust over ReinstateAfter probes.
func newBackend(url string, reinstateAfter int) *Backend {
	return &Backend{url: url, state: StateProbation, consecOKs: reinstateAfter - 1}
}

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.url }

// State returns the backend's current health state.
func (b *Backend) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Seq returns the snapshot generation the backend last reported for the
// legacy route.
func (b *Backend) Seq() uint64 {
	seq, _ := b.ModelSeq("")
	return seq
}

// ModelSeq returns the generation the backend last reported for one route
// (a model name, or "" for the legacy route), and whether the backend
// reported it at all.
func (b *Backend) ModelSeq(name string) (uint64, bool) {
	m := b.seqs.Load()
	if m == nil {
		return 0, false
	}
	seq, ok := (*m)[name]
	return seq, ok
}

// Models returns a copy of the per-model serving generations the backend
// last reported (nil when it reported none).
func (b *Backend) Models() map[string]uint64 {
	m := b.seqs.Load()
	if m == nil {
		return nil
	}
	var out map[string]uint64
	for k, v := range *m {
		if k == "" {
			continue
		}
		if out == nil {
			out = make(map[string]uint64, len(*m))
		}
		out[k] = v
	}
	return out
}

// setSeqs replaces every route's seq from a readiness payload: seq for the
// legacy route, models per name. A probe is authoritative, so it may move a
// seq backward (a replica rolled back).
func (b *Backend) setSeqs(seq uint64, models map[string]uint64) {
	cp := make(map[string]uint64, len(models)+1)
	for k, v := range models {
		cp[k] = v
	}
	cp[""] = seq
	b.seqs.Store(&cp)
}

// setModelSeq records one route's serving generation learned from a
// response header, copy-on-write so concurrent readers stay safe. Stale
// writes (a late response from before a reload) never move a seq backward.
func (b *Backend) setModelSeq(name string, seq uint64) {
	for {
		old := b.seqs.Load()
		var cp map[string]uint64
		if old == nil {
			cp = map[string]uint64{name: seq}
		} else {
			if cur, ok := (*old)[name]; ok && cur >= seq {
				return
			}
			cp = make(map[string]uint64, len(*old)+1)
			for k, v := range *old {
				cp[k] = v
			}
			cp[name] = seq
		}
		if b.seqs.CompareAndSwap(old, &cp) {
			return
		}
	}
}

// Inflight returns the number of outstanding gateway attempts.
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

// probeOK records a successful readiness probe and returns the resulting
// state.
func (b *Backend) probeOK(reinstateAfter int) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	switch b.state {
	case StateEjected:
		b.state = StateProbation
		b.consecOKs = 1
	case StateProbation:
		b.consecOKs++
	case StateLive:
		return StateLive
	}
	if b.consecOKs >= reinstateAfter {
		b.state = StateLive
	}
	return b.state
}

// probeFail records a failed readiness probe (or a transport-level request
// failure, which is the same evidence arriving faster) and returns the
// resulting state. Probation falls straight back to ejected: trust is
// rebuilt consecutively or not at all.
func (b *Backend) probeFail(ejectAfter int) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecOKs = 0
	b.consecFails++
	switch b.state {
	case StateProbation:
		b.state = StateEjected
	case StateLive:
		if b.consecFails >= ejectAfter {
			b.state = StateEjected
		}
	}
	return b.state
}

// consecutiveFails reports the current failure streak (for /v1/fleet).
func (b *Backend) consecutiveFails() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecFails
}

// setBackoff keeps the balancer away from this backend for d (a replica's
// Retry-After answer). Longer existing backoffs are kept.
func (b *Backend) setBackoff(d time.Duration) {
	until := time.Now().Add(d).UnixNano()
	for {
		cur := b.backoffUntil.Load()
		if cur >= until || b.backoffUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// inBackoff reports whether the backend asked not to be routed to yet.
func (b *Backend) inBackoff(now time.Time) bool {
	return now.UnixNano() < b.backoffUntil.Load()
}

// routable reports whether the balancer may send ordinary traffic here.
func (b *Backend) routable(now time.Time) bool {
	return b.State() == StateLive && !b.drained.Load() && !b.inBackoff(now)
}
