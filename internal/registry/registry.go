// Package registry is the model layer between snapshot storage and serving:
// a root directory holds one model.Dir per model name
// (`<root>/<name>/model-<seq>.rock`), and the registry serves compiled
// assigners for any of them on demand. OpenDir and OpenFile build the
// one-tenant registries rockd -dir and -model serve from: one named model
// whose source is a single snapshot directory or snapshot file, loaded
// eagerly when the registry opens.
//
// Root models load lazily — the first Acquire of a name reads the newest snapshot,
// compiles it, and builds that model's answer cache — and stay warm until the
// configured budget (MaxModels / MaxModelBytes) forces the least-recently
// used cold tenant out. Eviction only clears the registry's slot: an assign
// that already holds a lease keeps its captured (assigner, cache) pair and
// finishes correctly; the memory goes back when the last lease releases and
// the next hit reloads the model transparently.
//
// Consistency model, per tenant: Reload swaps that model's (assigner, cache)
// pair atomically and touches no other tenant, so one model's publish can
// never flush another model's cache or mix generations. Every answer a lease
// produces comes from exactly one (snapshot, cache) generation.
package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"rock/internal/model"
	"rock/internal/serve"
	"rock/internal/store"
)

// ErrUnknownModel is returned for names that are valid but have no model
// directory under the registry root. Serving layers map it to 404.
var ErrUnknownModel = errors.New("registry: unknown model")

// ErrBadReload rejects a reload request the model cannot honour: a file
// tenant's reload that names no snapshot path (a single file has no newer
// generation to pick), or a root model's reload that names one (a root
// model serves its own directory, which its next lazy load reads again).
// Serving layers map it to 400.
var ErrBadReload = errors.New("registry: bad reload request")

// Config configures a Registry.
type Config struct {
	// Root is the registry root; each immediate subdirectory is one model.
	// It is empty in the one-tenant registries of OpenDir and OpenFile,
	// which never register another name.
	Root string
	// FS is the snapshot IO filesystem (store.OS when nil). Subdirectory
	// discovery always uses the real filesystem: store.FS deliberately
	// cannot list directories.
	FS store.FS
	// SnapshotName is the snapshot base name inside every model directory
	// ("model" when empty) — tenants share the naming scheme, only the
	// directory differs.
	SnapshotName string
	// Keep bounds snapshot retention per model (model.DefaultRetention
	// when <= 0).
	Keep int
	// MaxModels bounds how many compiled models stay loaded at once
	// (0 = unlimited).
	MaxModels int
	// MaxModelBytes bounds the estimated total bytes of loaded snapshots
	// (0 = unlimited).
	MaxModelBytes int64
	// CacheCap is each model's answer-cache capacity (0 disables caching).
	CacheCap int
}

// Registry serves named, lazily loaded, budget-bounded compiled models.
type Registry struct {
	cfg   Config
	clock atomic.Uint64 // LRU tick; larger = more recently used

	mu      sync.Mutex // guards tenants map membership and eviction sweeps
	tenants map[string]*tenant

	// overBudget is set when an eviction sweep found the budget breached
	// but every candidate pinned; the next Release re-sweeps. Keeps the
	// Release hot path to one atomic load in the common in-budget case.
	overBudget atomic.Bool
}

// tenant is one named model slot. Its source is dir, a versioned snapshot
// directory, or — when dir is nil — the snapshot file at file.
type tenant struct {
	name string
	dir  *model.Dir
	file string

	// loadMu single-flights snapshot load+compile: a stampede of first
	// requests performs exactly one Compile, the rest block and reuse it.
	loadMu sync.Mutex
	// cur is the warm (assigner, cache, seq) generation, nil while cold.
	cur atomic.Pointer[Loaded]
	// pins counts in-flight leases; the evictor never clears a pinned slot.
	pins atomic.Int64
	// lastUsed is the registry clock value of the most recent Acquire.
	lastUsed atomic.Uint64

	stats TenantStats
}

// Loaded is one warm generation of a model: the compiled assigner, the
// answer cache bound to it, and the snapshot sequence they came from.
type Loaded struct {
	Assigner *model.Assigner
	Cache    *serve.Cache
	Seq      uint64
	// Source is the snapshot file the generation was read from.
	Source string
	// Bytes is the estimated in-memory footprint, charged against
	// MaxModelBytes.
	Bytes int64
}

// NewLoaded compiles snap into a generation served as sequence seq, with a
// fresh answer cache of cacheCap entries bound to the new assigner
// (cacheCap <= 0 disables it) whose evictions count into evictions. It is
// the one constructor of a served generation.
func NewLoaded(snap *model.Snapshot, seq uint64, cacheCap int, evictions *atomic.Uint64) (*Loaded, error) {
	a, err := model.Compile(snap)
	if err != nil {
		return nil, err
	}
	l := &Loaded{Assigner: a, Seq: seq, Bytes: snapshotBytes(snap)}
	if cacheCap > 0 {
		l.Cache = serve.NewCache(cacheCap, a, evictions)
	}
	return l, nil
}

// TenantStats are one model's monotonic serving counters. All fields are
// atomics; the serving layer bumps them through Lease.Count and the metrics
// path reads them via Info.
type TenantStats struct {
	Requests    atomic.Uint64
	Assignments atomic.Uint64
	Outliers    atomic.Uint64
	Reloads     atomic.Uint64
	Loads       atomic.Uint64
	Evictions   atomic.Uint64
	CacheEvicts atomic.Uint64
}

// Open opens (creating the root if needed) a registry and registers every
// existing model subdirectory. New subdirectories are picked up on first
// Acquire/Reload of their name — adding a tenant needs no restart.
func Open(cfg Config) (*Registry, error) {
	if cfg.Root == "" {
		return nil, errors.New("registry: empty root")
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating root: %w", err)
	}
	r := newRegistry(cfg)
	ents, err := os.ReadDir(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("registry: reading root: %w", err)
	}
	for _, e := range ents {
		if !e.IsDir() || !ValidName(e.Name()) {
			continue
		}
		if _, err := r.register(e.Name()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// OpenDir returns a one-tenant registry serving model name from the
// versioned snapshot directory d (rockd -dir), with the directory's newest
// good generation already loaded. The registry is returned even when that
// load fails: with model.ErrNoSnapshots it starts idle, and any later
// reload or assign retries the directory. cfg.Root is ignored.
func OpenDir(cfg Config, name string, d *model.Dir) (*Registry, error) {
	return single(cfg, &tenant{name: name, dir: d})
}

// OpenFile returns a one-tenant registry serving model name from the
// snapshot file at path (rockd -model), loaded eagerly as OpenDir does. Its
// generations have seq 0. cfg.Root is ignored.
func OpenFile(cfg Config, name, path string) (*Registry, error) {
	return single(cfg, &tenant{name: name, file: path})
}

// single builds a one-tenant registry around t and runs its startup load,
// which counts as a load, not a reload.
func single(cfg Config, t *tenant) (*Registry, error) {
	if !ValidName(t.name) {
		return nil, fmt.Errorf("%w: invalid name %q", ErrUnknownModel, t.name)
	}
	cfg.Root = ""
	r := newRegistry(cfg)
	r.tenants[t.name] = t
	_, _, err := r.load(t, false, "")
	return r, err
}

func newRegistry(cfg Config) *Registry {
	if cfg.FS == nil {
		cfg.FS = store.OS
	}
	if cfg.SnapshotName == "" {
		cfg.SnapshotName = "model"
	}
	return &Registry{cfg: cfg, tenants: make(map[string]*tenant)}
}

// ValidName reports whether name is usable as a model name: non-empty, at
// most 128 bytes, made of letters, digits, '.', '_' and '-', and not "." or
// "..". Names double as subdirectory names, URL path segments and metric
// label values, so the alphabet is deliberately narrow.
func ValidName(name string) bool {
	if name == "" || name == "." || name == ".." || len(name) > 128 {
		return false
	}
	for _, c := range name {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// register returns the tenant for name, creating the slot if the model
// directory exists on disk. The caller must NOT hold r.mu.
func (r *Registry) register(name string) (*tenant, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: invalid name %q", ErrUnknownModel, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok {
		return t, nil
	}
	if r.cfg.Root == "" {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	dirPath := filepath.Join(r.cfg.Root, name)
	if fi, err := os.Stat(dirPath); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	d, err := model.OpenDir(r.cfg.FS, dirPath, r.cfg.SnapshotName, r.cfg.Keep)
	if err != nil {
		return nil, err
	}
	t := &tenant{name: name, dir: d}
	r.tenants[name] = t
	return t, nil
}

// Dir returns (registering it if needed) the model.Dir for name, creating
// the model subdirectory when it does not exist yet. This is the publish
// path: trainers open a named slot and Save into it.
func (r *Registry) Dir(name string) (*model.Dir, error) {
	if r.cfg.Root != "" && ValidName(name) {
		if err := os.MkdirAll(filepath.Join(r.cfg.Root, name), 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating model dir: %w", err)
		}
	}
	t, err := r.register(name)
	if err != nil {
		return nil, err
	}
	if t.dir == nil {
		return nil, fmt.Errorf("registry: model %q serves a snapshot file, not a directory", name)
	}
	return t.dir, nil
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Lease is a pinned reference to one warm generation of one model. The
// holder may use Assigner and Cache until Release; eviction and reload
// never invalidate a held lease (they clear or replace the registry slot,
// not the captured generation). Acquire returns it by value, so a request
// that keeps its lease on the stack allocates nothing for it.
type Lease struct {
	Loaded
	t *tenant
	r *Registry
}

// Release unpins the lease. The lease must not be used afterwards. When a
// sweep had to defer because every victim was pinned, the release that
// frees a pin finishes the eviction.
func (l *Lease) Release() {
	l.t.pins.Add(-1)
	if l.r.overBudget.Load() {
		l.r.enforceBudget(nil)
	}
}

// Count records one served batch against the lease's model.
func (l *Lease) Count(assignments, outliers int) {
	l.t.stats.Requests.Add(1)
	l.t.stats.Assignments.Add(uint64(assignments))
	l.t.stats.Outliers.Add(uint64(outliers))
}

// Acquire pins model name and returns a lease on its warm generation,
// lazily loading and compiling the newest snapshot on a cold hit. The pin
// is taken before the slot is read, so a concurrent eviction sweep either
// sees the pin and skips the model, or already cleared the slot — in which
// case Acquire simply reloads. Errors: ErrUnknownModel for absent models,
// model.ErrNoSnapshots for registered-but-empty directories.
func (r *Registry) Acquire(name string) (Lease, error) {
	t, err := r.register(name)
	if err != nil {
		return Lease{}, err
	}
	t.pins.Add(1)
	t.lastUsed.Store(r.clock.Add(1))
	l := t.cur.Load()
	if l == nil {
		if l, _, err = r.load(t, false, ""); err != nil {
			t.pins.Add(-1)
			return Lease{}, err
		}
	}
	return Lease{Loaded: *l, t: t, r: r}, nil
}

// load populates t's slot under the tenant's single-flight lock, from the
// snapshot file at path or, when path is empty, from the tenant's own
// source. reload forces a fresh generation even when the slot is warm; a
// lazy load rechecks the slot after taking the lock so a stampede compiles
// once. It also returns the corrupt generations a directory load rolled
// back past.
func (r *Registry) load(t *tenant, reload bool, path string) (*Loaded, []model.Entry, error) {
	t.loadMu.Lock()
	defer t.loadMu.Unlock()
	if !reload {
		if l := t.cur.Load(); l != nil {
			return l, nil, nil
		}
	}
	snap, ent, skipped, err := r.read(t, path)
	if err != nil {
		return nil, skipped, err
	}
	l, err := NewLoaded(snap, ent.Seq, r.cfg.CacheCap, &t.stats.CacheEvicts)
	if err != nil {
		return nil, skipped, err
	}
	l.Source = ent.Path
	t.cur.Store(l)
	if reload {
		t.stats.Reloads.Add(1)
	} else {
		t.stats.Loads.Add(1)
	}
	r.enforceBudget(t)
	return l, skipped, nil
}

// read loads the snapshot a (re)load installs: the file at path, served as
// seq 0, or else the tenant's source — its directory's newest good
// generation, or its snapshot file.
func (r *Registry) read(t *tenant, path string) (*model.Snapshot, model.Entry, []model.Entry, error) {
	if path == "" && t.dir != nil {
		return t.dir.LoadLatest()
	}
	if path == "" {
		path = t.file
	}
	snap, err := model.LoadFS(r.cfg.FS, path)
	return snap, model.Entry{Path: path}, nil, err
}

// ReloadFrom loads and installs a fresh generation of model name — new
// assigner, new empty cache — leaving every other tenant's slot and cache
// untouched. An empty path reloads the model's own source: its directory's
// newest good generation, or its snapshot file. A non-empty path, allowed
// only in one-tenant registries, serves that file as seq 0 until the next
// reload. It returns the installed generation and the corrupt generations
// a directory reload rolled back past.
func (r *Registry) ReloadFrom(name, path string) (*Loaded, []model.Entry, error) {
	t, err := r.register(name)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case path == "" && t.dir == nil:
		return nil, nil, fmt.Errorf("%w: missing snapshot path (the model serves a snapshot file, not a directory)", ErrBadReload)
	case path != "" && r.cfg.Root != "":
		return nil, nil, fmt.Errorf("%w: path reloads are not available in registry mode", ErrBadReload)
	}
	t.pins.Add(1) // guard the fresh generation from the eviction sweep
	defer t.pins.Add(-1)
	return r.load(t, true, path)
}

// enforceBudget evicts least-recently-used, unpinned warm models until the
// configured budget holds again. keep (the model just loaded) is never a
// victim: it is about to serve the request that loaded it.
func (r *Registry) enforceBudget(keep *tenant) {
	if r.cfg.MaxModels <= 0 && r.cfg.MaxModelBytes <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		warm, bytes := 0, int64(0)
		var victim *tenant
		var victimUsed uint64
		for _, t := range r.tenants {
			l := t.cur.Load()
			if l == nil {
				continue
			}
			warm++
			bytes += l.Bytes
			if t == keep || t.pins.Load() > 0 {
				continue
			}
			if used := t.lastUsed.Load(); victim == nil || used < victimUsed {
				victim, victimUsed = t, used
			}
		}
		over := (r.cfg.MaxModels > 0 && warm > r.cfg.MaxModels) ||
			(r.cfg.MaxModelBytes > 0 && bytes > r.cfg.MaxModelBytes)
		if !over || victim == nil {
			r.overBudget.Store(over)
			return
		}
		// Clearing the slot is the whole eviction: in-flight leases hold
		// their generation and the GC reclaims it after the last Release.
		victim.cur.Store(nil)
		victim.stats.Evictions.Add(1)
	}
}

// ServingSeq returns the sequence a request for name would be answered
// from right now: the warm generation's seq, or — for a cold root model —
// the newest on-disk seq, which is exactly what the next hit will lazily
// load. 0 means the model has nothing to serve, or serves a file.
func (r *Registry) ServingSeq(name string) (uint64, error) {
	t, err := r.register(name)
	if err != nil {
		return 0, err
	}
	return r.servingSeq(t), nil
}

// servingSeq is ServingSeq for a registered tenant. A one-tenant
// registry's model loads at startup and is never evicted unless a budget
// is set, so cold there means its last load failed: it reports 0 rather
// than the seq of an on-disk file that may not load.
func (r *Registry) servingSeq(t *tenant) uint64 {
	if l := t.cur.Load(); l != nil {
		return l.Seq
	}
	if t.dir == nil || r.cfg.Root == "" {
		return 0
	}
	ents, err := t.dir.List()
	if err != nil || len(ents) == 0 {
		return 0
	}
	return ents[0].Seq
}

// Info is one model's row in List: identity, serving state and counters.
type Info struct {
	Name string `json:"name"`
	// Seq is the serving sequence (see ServingSeq); 0 when no snapshot
	// exists yet.
	Seq uint64 `json:"seq"`
	// State is "warm" (compiled and resident) or "cold" (loads on next hit).
	State string `json:"state"`
	// Stats carries the warm generation's training statistics (nil when
	// cold or when the snapshot predates stats).
	Stats *model.TrainStats `json:"train_stats,omitempty"`
	// SimName is the warm generation's similarity ("" when cold).
	SimName      string `json:"sim,omitempty"`
	Clusters     int    `json:"clusters,omitempty"`
	CacheEntries int    `json:"cache_entries"`
	Requests     uint64 `json:"requests"`
	Assignments  uint64 `json:"assignments"`
	Outliers     uint64 `json:"outliers"`
	Reloads      uint64 `json:"reloads"`
	Loads        uint64 `json:"loads"`
	Evictions    uint64 `json:"evictions"`
	CacheEvicts  uint64 `json:"cache_evictions"`
}

// List returns one Info per registered model, sorted by name. Listing is
// cheap for warm models; cold models cost one directory listing each (to
// report the seq a hit would serve) and are never loaded.
func (r *Registry) List() []Info {
	names := r.Names()
	out := make([]Info, 0, len(names))
	for _, name := range names {
		r.mu.Lock()
		t := r.tenants[name]
		r.mu.Unlock()
		if t == nil {
			continue
		}
		info := Info{
			Name:        name,
			Seq:         r.servingSeq(t),
			State:       "cold",
			Requests:    t.stats.Requests.Load(),
			Assignments: t.stats.Assignments.Load(),
			Outliers:    t.stats.Outliers.Load(),
			Reloads:     t.stats.Reloads.Load(),
			Loads:       t.stats.Loads.Load(),
			Evictions:   t.stats.Evictions.Load(),
			CacheEvicts: t.stats.CacheEvicts.Load(),
		}
		if l := t.cur.Load(); l != nil {
			info.State = "warm"
			snap := l.Assigner.Snapshot()
			info.Stats = snap.Stats
			info.SimName = snap.SimName
			info.Clusters = snap.Clusters()
			if l.Cache != nil {
				info.CacheEntries = l.Cache.Len()
			}
		}
		out = append(out, info)
	}
	return out
}

// WarmCount returns how many models are currently compiled and resident.
func (r *Registry) WarmCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.tenants {
		if t.cur.Load() != nil {
			n++
		}
	}
	return n
}

// snapshotBytes estimates a snapshot's in-memory footprint: transaction and
// point-list backing arrays dominate, plus the schema's strings. The
// estimate only needs to be consistent across models for the byte budget to
// mean anything.
func snapshotBytes(s *model.Snapshot) int64 {
	b := int64(256)
	for _, t := range s.Txns {
		b += 24 + 4*int64(len(t))
	}
	for _, set := range s.Sets {
		b += 48 + 8*int64(len(set.Points))
	}
	if s.Schema != nil {
		for _, attr := range s.Schema.Attrs {
			b += 64 + int64(len(attr.Name)) + 8*int64(len(attr.Weights))
			for _, v := range attr.Domain {
				b += 16 + int64(len(v))
			}
		}
	}
	return b
}
