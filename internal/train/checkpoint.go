package train

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"path/filepath"
	"sync"

	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/store"
)

// crcOf checksums a sealed body the same way its journal entry does.
func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// A training run with Config.RunDir set is crash-safe: the spill shards live
// in the run directory instead of an ephemeral tmpdir, and a stage journal
// (journal.rockj, written atomically with a magic+version header and CRC32
// trailer via store.WriteSealed) records every completed stage — the source
// count, each shard's spill (bytes + checksum), each shard's clustering
// result (the serialized summaries: representatives, membership, labeled
// subset), the cross-shard merge, the built snapshot, the published
// model.Dir sequence and each fleet reload. Re-running rocktrain with the
// same -run-dir resumes: artifacts are verified against their journaled
// checksums, corrupt ones are quarantined (renamed aside) and re-derived,
// finished stages are skipped, and the first incomplete stage runs next.
// Every stage is deterministic given Config.Seed, so a resumed run produces
// a model byte-identical to an uninterrupted one — which the kill-and-resume
// drill asserts via ARI.

// journalMagic identifies the run journal; journalVersion its format.
var journalMagic = []byte{'R', 'O', 'C', 'K', 'J', 'R', 'N', 'L'}

const journalVersion = 1

// journalFile is the journal's name inside a run directory.
const journalFile = "journal.rockj"

// sumsMagic seals the per-shard clustering result files
// (clustered-<shard>.bin), each holding the shard's serialized summaries.
var sumsMagic = []byte{'R', 'O', 'C', 'K', 'S', 'U', 'M', 'S'}

const sumsVersion = 1

// SpillInfo is the journal's record of one completed shard spill.
type SpillInfo struct {
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	CRC     uint32 `json:"crc"`
}

// ClusterInfo is the journal's record of one shard's completed clustering:
// how many points its sample drew, and the seal of the summaries file.
type ClusterInfo struct {
	Sampled   int    `json:"sampled"`
	Summaries int    `json:"summaries"`
	Bytes     int64  `json:"bytes"`
	CRC       uint32 `json:"crc"`
}

// LabelInfo is the journal's record of one shard's completed labeling pass.
type LabelInfo struct {
	Labeled  int64 `json:"labeled"`
	Outliers int64 `json:"outliers"`
}

// Journal is the persisted stage ledger of a resumable run. Fields are nil
// or zero until their stage completes; the shard-indexed slices are written
// entry by entry as shards finish, so a crash mid-stage loses only the
// shards still in flight.
type Journal struct {
	// ConfigSig fingerprints every config field that shapes the result
	// (thresholds, seeds, shard counts). A run directory may only be resumed
	// by a run with the same signature.
	ConfigSig string `json:"config_sig"`
	// Counted is the source count from the count phase (only recorded when
	// the shard count is budget-derived); Total the count observed by the
	// spill pass; Shards the resolved shard count.
	Counted int `json:"counted,omitempty"`
	Total   int `json:"total,omitempty"`
	Shards  int `json:"shards,omitempty"`
	// Spill has one entry per shard once the spill stage completes.
	Spill []SpillInfo `json:"spill,omitempty"`
	// Clustered[s] is non-nil once shard s's clustering result is sealed on
	// disk.
	Clustered []*ClusterInfo `json:"clustered,omitempty"`
	// MergeGroups is the cross-shard merge result: global cluster ->
	// summary indices (into the shard-then-position ordered summary list).
	MergeGroups [][]int `json:"merge_groups,omitempty"`
	// SnapshotDone records that snapshot.rock was built and sealed.
	SnapshotDone bool `json:"snapshot_done,omitempty"`
	// Labeled[s] is non-nil once shard s's labeling pass completed.
	Labeled []*LabelInfo `json:"labeled,omitempty"`
	// PublishSeq is the model.Dir generation the snapshot published as
	// (0 = not yet); Reloaded maps each base URL to the sequence its fleet
	// reported after a successful reload.
	PublishSeq uint64            `json:"publish_seq,omitempty"`
	Reloaded   map[string]uint64 `json:"reloaded,omitempty"`
}

// configSig fingerprints the fields that determine the run's output. Knobs
// that only affect parallelism or reporting (Workers, ShardParallel,
// KeepAssignments, MaxOutlierRate, logging) are deliberately
// excluded: changing them must not orphan a half-finished run.
func (c *Config) configSig() string {
	return fmt.Sprintf("v1 k=%d theta=%v sim=%s minNbrs=%d stopMult=%v minSize=%d shards=%d budget=%d sampleBytes=%d uMin=%d frac=%v delta=%v numRep=%d labelFrac=%v minLabel=%d maxLabel=%d seed=%d",
		c.K, c.Theta, c.simName(), c.MinNeighbors, c.StopMultiple, c.MinClusterSize,
		c.Shards, c.MemBudget, c.sampleBytes(), c.UMin, c.sampleFrac(), c.delta(),
		c.numRep(), c.labelFrac(), c.minLabel(), c.maxLabel(), c.Seed)
}

// Run is the handle to a durable run directory: the journal plus the
// checkpointing machinery. A nil *Run (tmpdir mode) is valid everywhere and
// checkpoints nothing.
type Run struct {
	fsys store.FS
	dir  string
	ctr  *Counters

	mu sync.Mutex
	j  Journal
}

// OpenRun opens (or starts) the run directory dir for a run with the given
// config. An existing journal is validated — CRC, version, and config
// signature — and becomes the resume state; a corrupt journal is an error
// (the operator decides whether to delete it or pick a fresh directory,
// never the trainer silently), and a journal from a different config is
// refused. The directory itself must already exist.
func OpenRun(fsys store.FS, dir string, cfg Config) (*Run, error) {
	r := &Run{fsys: fsys, dir: dir, ctr: cfg.Counters}
	sig := cfg.configSig()
	j, err := LoadJournal(fsys, dir)
	switch {
	case err == nil:
		if j.ConfigSig != sig {
			return nil, fmt.Errorf("train: run dir %s was started with a different config:\n  have %s\n  want %s\nresume with the original flags or use a fresh -run-dir", dir, j.ConfigSig, sig)
		}
		r.j = *j
	case errors.Is(err, ErrNoJournal):
		r.j = Journal{ConfigSig: sig}
	default:
		return nil, err
	}
	return r, nil
}

// ErrNoJournal is returned by LoadJournal when the directory holds no
// journal at all — a fresh run, as opposed to a damaged one.
var ErrNoJournal = errors.New("train: no run journal")

// LoadJournal reads and validates a run directory's journal. It is the
// read-only inspection path (tests, tooling, a parent process watching a
// training child); Train itself goes through OpenRun.
func LoadJournal(fsys store.FS, dir string) (*Journal, error) {
	path := filepath.Join(dir, journalFile)
	_, body, err := store.ReadSealed(fsys, path, journalMagic, journalVersion)
	if err != nil {
		// Only a missing file means "fresh run"; unreadable or corrupt
		// journals must surface, not silently restart an expensive run.
		if _, _, statErr := store.ChecksumFile(fsys, path); statErr != nil {
			return nil, fmt.Errorf("%w in %s", ErrNoJournal, dir)
		}
		return nil, fmt.Errorf("train: run journal %s unreadable (delete it or use a fresh -run-dir): %w", path, err)
	}
	j := &Journal{}
	if err := json.Unmarshal(body, j); err != nil {
		return nil, fmt.Errorf("train: run journal %s: %w", path, err)
	}
	if err := j.validate(); err != nil {
		return nil, fmt.Errorf("train: run journal %s: %w", path, err)
	}
	return j, nil
}

// validate checks the structural invariants a well-formed journal satisfies;
// a sealed-but-nonsensical journal (a bug, or a hand-edited file) must not
// drive resume logic.
func (j *Journal) validate() error {
	if j.Shards < 0 || j.Total < 0 || j.Counted < 0 {
		return errors.New("negative counts")
	}
	if len(j.Spill) != 0 && len(j.Spill) != j.Shards {
		return fmt.Errorf("%d spill entries for %d shards", len(j.Spill), j.Shards)
	}
	if len(j.Clustered) != 0 && len(j.Clustered) != j.Shards {
		return fmt.Errorf("%d cluster entries for %d shards", len(j.Clustered), j.Shards)
	}
	if len(j.Labeled) != 0 && len(j.Labeled) != j.Shards {
		return fmt.Errorf("%d label entries for %d shards", len(j.Labeled), j.Shards)
	}
	if len(j.Clustered) > 0 && len(j.Spill) == 0 {
		return errors.New("clustering recorded before spill")
	}
	for _, g := range j.MergeGroups {
		if len(g) == 0 {
			return errors.New("empty merge group")
		}
	}
	return nil
}

// Journal returns a deep copy of the run's current journal state — deep, so
// a reader in one shard worker never aliases slices a concurrent update is
// writing. Nil-safe: a tmpdir-mode (nil) Run reports an empty journal, so
// resume checks read naturally as "is this stage done".
func (r *Run) Journal() Journal {
	if r == nil {
		return Journal{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.j
	j.Spill = append([]SpillInfo(nil), r.j.Spill...)
	if r.j.Clustered != nil {
		j.Clustered = make([]*ClusterInfo, len(r.j.Clustered))
		for i, ci := range r.j.Clustered {
			if ci != nil {
				c := *ci
				j.Clustered[i] = &c
			}
		}
	}
	if r.j.MergeGroups != nil {
		j.MergeGroups = make([][]int, len(r.j.MergeGroups))
		for i, g := range r.j.MergeGroups {
			j.MergeGroups[i] = append([]int(nil), g...)
		}
	}
	if r.j.Labeled != nil {
		j.Labeled = make([]*LabelInfo, len(r.j.Labeled))
		for i, li := range r.j.Labeled {
			if li != nil {
				l := *li
				j.Labeled[i] = &l
			}
		}
	}
	if r.j.Reloaded != nil {
		j.Reloaded = make(map[string]uint64, len(r.j.Reloaded))
		for k, v := range r.j.Reloaded {
			j.Reloaded[k] = v
		}
	}
	return j
}

// Dir returns the run directory path ("" for a nil, tmpdir-mode Run).
func (r *Run) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// update applies fn to the journal and checkpoints it durably; every
// completed stage goes through here, so the on-disk journal is never ahead
// of reality and at most one stage behind it.
func (r *Run) update(fn func(j *Journal)) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(&r.j)
	return r.checkpointLocked()
}

func (r *Run) checkpointLocked() error {
	body, err := json.Marshal(&r.j)
	if err != nil {
		return fmt.Errorf("train: encoding run journal: %w", err)
	}
	if err := store.WriteSealed(r.fsys, filepath.Join(r.dir, journalFile), journalMagic, journalVersion, body); err != nil {
		return fmt.Errorf("train: writing run journal: %w", err)
	}
	if r.ctr != nil {
		r.ctr.CheckpointWrites.Add(1)
	}
	return nil
}

// quarantine moves a corrupt artifact aside as <name>.corrupt so resume can
// re-derive it while an operator can still inspect the damage. An existing
// quarantined file from an earlier resume is replaced.
func (r *Run) quarantine(path string) error {
	if err := r.fsys.Remove(path + ".corrupt"); err != nil {
		// Best-effort: most of the time there is no previous quarantine.
		_ = err
	}
	return r.fsys.Rename(path, path+".corrupt")
}

// ---- Per-shard clustering results: sealed summary files. ----

// sumsPath names shard s's sealed clustering-result file under dir.
func sumsPath(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("clustered-%04d.bin", s))
}

// snapshotPath names the run's built-model artifact.
func snapshotPath(dir string) string {
	return filepath.Join(dir, "snapshot.rock")
}

func writeTxnTo(bw *bufio.Writer, t dataset.Transaction) error {
	if err := store.WriteUvarint(bw, uint64(len(t))); err != nil {
		return err
	}
	prev := dataset.Item(0)
	for _, it := range t {
		if err := store.WriteUvarint(bw, uint64(it-prev)); err != nil {
			return err
		}
		prev = it
	}
	return nil
}

func readTxnFrom(br *bufio.Reader) (dataset.Transaction, error) {
	n, err := store.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxPrealloc = 1 << 16
	capHint := n
	if capHint > maxPrealloc {
		capHint = maxPrealloc
	}
	t := make(dataset.Transaction, 0, capHint)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := store.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		prev += d
		t = append(t, dataset.Item(prev))
	}
	return t, nil
}

// encodeSummaries serializes one shard's summaries: everything downstream
// stages need (representatives for the merge, labeled subset for the
// snapshot, sample positions for the labeling fast path), in an order that
// round-trips exactly so a resumed run is bit-deterministic.
func encodeSummaries(sums []summary) ([]byte, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := store.WriteUvarint(bw, uint64(len(sums))); err != nil {
		return nil, err
	}
	for _, s := range sums {
		if err := store.WriteUvarint(bw, uint64(s.shard)); err != nil {
			return nil, err
		}
		if err := store.WriteUvarint(bw, uint64(s.size)); err != nil {
			return nil, err
		}
		if err := store.WriteUvarint(bw, uint64(len(s.reps))); err != nil {
			return nil, err
		}
		for _, rep := range s.reps {
			if err := writeTxnTo(bw, rep); err != nil {
				return nil, err
			}
		}
		if len(s.labeledPos) != len(s.labeledTxns) {
			return nil, fmt.Errorf("train: summary has %d labeled positions, %d labeled transactions", len(s.labeledPos), len(s.labeledTxns))
		}
		if err := store.WriteUvarint(bw, uint64(len(s.labeledPos))); err != nil {
			return nil, err
		}
		for i, p := range s.labeledPos {
			if err := store.WriteUvarint(bw, uint64(p)); err != nil {
				return nil, err
			}
			if err := writeTxnTo(bw, s.labeledTxns[i]); err != nil {
				return nil, err
			}
		}
		if err := store.WriteUvarint(bw, uint64(len(s.samplePos))); err != nil {
			return nil, err
		}
		for _, p := range s.samplePos {
			if err := store.WriteUvarint(bw, uint64(p)); err != nil {
				return nil, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeSummaries(body []byte) ([]summary, error) {
	br := bufio.NewReader(bytes.NewReader(body))
	n, err := store.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxSummaries = 1 << 20
	if n > maxSummaries {
		return nil, fmt.Errorf("train: summary count %d out of range", n)
	}
	out := make([]summary, 0, n)
	for i := uint64(0); i < n; i++ {
		var s summary
		shard, err := store.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		s.shard = int(shard)
		size, err := store.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		s.size = int(size)
		nr, err := store.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nr; j++ {
			t, err := readTxnFrom(br)
			if err != nil {
				return nil, err
			}
			s.reps = append(s.reps, t)
		}
		nl, err := store.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nl; j++ {
			p, err := store.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			t, err := readTxnFrom(br)
			if err != nil {
				return nil, err
			}
			s.labeledPos = append(s.labeledPos, int(p))
			s.labeledTxns = append(s.labeledTxns, t)
		}
		np, err := store.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < np; j++ {
			p, err := store.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			s.samplePos = append(s.samplePos, int(p))
		}
		if len(s.samplePos) == 0 {
			return nil, fmt.Errorf("train: summary %d has no sample positions", i)
		}
		out = append(out, s)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, errors.New("train: trailing bytes after summaries")
	}
	return out, nil
}

// saveShardSummaries seals shard s's clustering result and records it in the
// journal in one step.
func (r *Run) saveShardSummaries(s, sampled int, sums []summary) error {
	if r == nil {
		return nil
	}
	body, err := encodeSummaries(sums)
	if err != nil {
		return err
	}
	path := sumsPath(r.dir, s)
	if err := store.WriteSealed(r.fsys, path, sumsMagic, sumsVersion, body); err != nil {
		return err
	}
	return r.update(func(j *Journal) {
		if len(j.Clustered) == 0 {
			j.Clustered = make([]*ClusterInfo, j.Shards)
		}
		j.Clustered[s] = &ClusterInfo{
			Sampled:   sampled,
			Summaries: len(sums),
			Bytes:     int64(len(body)),
			CRC:       crcOf(body),
		}
	})
}

// loadShardSummaries loads and verifies shard s's sealed clustering result
// against the journal entry. Any mismatch — missing file, bad seal, wrong
// size or checksum — returns an error; the caller quarantines and
// recomputes.
func (r *Run) loadShardSummaries(s int, ci *ClusterInfo) ([]summary, error) {
	path := sumsPath(r.dir, s)
	_, body, err := store.ReadSealed(r.fsys, path, sumsMagic, sumsVersion)
	if err != nil {
		return nil, err
	}
	if int64(len(body)) != ci.Bytes || crcOf(body) != ci.CRC {
		return nil, fmt.Errorf("train: %s does not match its journal entry (%d bytes CRC %08x, journal says %d bytes CRC %08x)",
			path, len(body), crcOf(body), ci.Bytes, ci.CRC)
	}
	sums, err := decodeSummaries(body)
	if err != nil {
		return nil, err
	}
	if len(sums) != ci.Summaries {
		return nil, fmt.Errorf("train: %s holds %d summaries, journal says %d", path, len(sums), ci.Summaries)
	}
	for i := range sums {
		if sums[i].shard != s {
			return nil, fmt.Errorf("train: %s summary %d belongs to shard %d", path, i, sums[i].shard)
		}
	}
	return sums, nil
}

// Publish saves the snapshot as the next generation of dir, journaling the
// sequence so a resumed run publishes exactly once. When the journal already
// records a publish and that generation still exists, it is returned with
// skipped=true; if the directory lost it (wiped, pruned), the snapshot is
// republished. A nil Run publishes plainly.
func (r *Run) Publish(dir *model.Dir, snap *model.Snapshot) (model.Entry, bool, error) {
	if r == nil {
		e, err := Publish(dir, snap)
		return e, false, err
	}
	if seq := r.Journal().PublishSeq; seq != 0 {
		ents, err := dir.List()
		if err != nil {
			return model.Entry{}, false, err
		}
		for _, e := range ents {
			if e.Seq == seq {
				return e, true, nil
			}
		}
		r.ctr.stageRetry()
	}
	e, err := Publish(dir, snap)
	if err != nil {
		return model.Entry{}, false, err
	}
	if err := r.update(func(j *Journal) { j.PublishSeq = e.Seq }); err != nil {
		return e, false, err
	}
	return e, false, nil
}

// PostReload reloads one serving base URL with retries, journaling success
// so a resumed run re-POSTs only the reloads that never landed — the
// "publish succeeded but reload failed" crash leaves the publish journaled
// and retries just this tail. A nil Run posts plainly.
func (r *Run) PostReload(ctx context.Context, client *http.Client, base string, opt ReloadOptions) (uint64, bool, error) {
	if r != nil {
		if seq, ok := r.Journal().Reloaded[base]; ok {
			return seq, true, nil
		}
	}
	seq, err := PostReloadRetry(ctx, client, base, opt)
	if err != nil {
		return 0, false, err
	}
	if err := r.update(func(j *Journal) {
		if j.Reloaded == nil {
			j.Reloaded = map[string]uint64{}
		}
		j.Reloaded[base] = seq
	}); err != nil {
		return seq, false, err
	}
	return seq, false, nil
}
