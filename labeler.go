package rock

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"rock/internal/label"
	"rock/internal/model"
	"rock/internal/rockcore"
	"rock/internal/sim"
)

// Labeler assigns new, unseen transactions to the clusters of a previous
// clustering run using the paper's labeling rule (Section 4.6): a point
// goes to the cluster in whose labeled subset L_i it has the most
// theta-neighbors after dividing by the expected count (|L_i|+1)^f(theta).
//
// Typical use: cluster a sample once, keep the Labeler, and classify
// arriving transactions incrementally. A Labeler is read-only after
// construction, so concurrent Assign calls are safe. For serving across
// process boundaries, Snapshot persists the model and LoadLabeler (or the
// rockd daemon) revives it.
//
// A Labeler over a named similarity assigns through the same compiled
// posting-list index the serving layer uses (model.Compile), which returns
// scores bit-identical to the scan of Section 4.6; only custom similarity
// functions scan every labeled transaction.
type Labeler struct {
	sets    []label.Set
	txns    []Transaction
	sim     TxnSimilarity
	simName string
	theta   float64
	fTheta  float64
	schema  *Schema
	// asg is the compiled model; nil for custom similarities (and models
	// too degenerate to snapshot), which take the scan path.
	asg *model.Assigner
}

// Snapshot is the persisted form of a Labeler: the labeled sets, their
// norms, the labeled transactions, and the model's parameters. See
// Labeler.Snapshot and LoadLabeler.
type Snapshot = model.Snapshot

// LabelerConfig controls labeled-set construction for a Labeler.
type LabelerConfig struct {
	// Fraction of each cluster drawn into its labeled set (default 0.25).
	// Must lie in [0, 1]; zero selects the default.
	Fraction float64
	// MinPerCluster floors each labeled set's size (default 5). Must be
	// non-negative; zero selects the default.
	MinPerCluster int
	// Seed drives the labeled-set draw.
	Seed int64
}

// NewLabeler builds a Labeler from the transactions that were clustered and
// the clustering result. cfg must be the Config the clustering ran with (its
// Theta, F and Similarity are reused for the neighbor tests).
func NewLabeler(txns []Transaction, res *Result, cfg Config, lcfg LabelerConfig) (*Labeler, error) {
	if res == nil {
		return nil, errors.New("rock: nil result")
	}
	if lcfg.Fraction < 0 || lcfg.Fraction > 1 {
		return nil, fmt.Errorf("rock: labeler fraction %v out of [0,1]", lcfg.Fraction)
	}
	if lcfg.MinPerCluster < 0 {
		return nil, fmt.Errorf("rock: negative MinPerCluster %d", lcfg.MinPerCluster)
	}
	frac := lcfg.Fraction
	if frac == 0 {
		frac = 0.25
	}
	minPer := lcfg.MinPerCluster
	if minPer == 0 {
		minPer = 5
	}
	f := cfg.F
	if f == nil {
		f = rockcore.DefaultF
	}
	fTheta := f(cfg.Theta)
	rng := rand.New(rand.NewSource(lcfg.Seed))
	sets, err := label.BuildSets(res.Clusters, label.Config{
		Fraction:      frac,
		MinPerCluster: minPer,
		F:             fTheta,
	}, rng)
	if err != nil {
		return nil, err
	}
	l := &Labeler{
		sets:    sets,
		txns:    txns,
		sim:     cfg.txnSim(),
		simName: sim.NameOf(cfg.txnSim()),
		theta:   cfg.Theta,
		fTheta:  fTheta,
	}
	l.compile()
	return l, nil
}

// compile builds the Labeler's posting-list assigner from its snapshot. A
// Labeler that cannot be snapshotted — a custom similarity function, or a
// model Snapshot rejects, such as an empty labeled set — keeps assigning by
// scan, as it always could.
func (l *Labeler) compile() {
	if l.simName == "" {
		return
	}
	snap, err := l.Snapshot()
	if err != nil {
		return
	}
	if asg, err := model.Compile(snap); err == nil {
		l.asg = asg
	}
}

// Assign labels one transaction, returning a cluster index into the
// original Result.Clusters or OutlierCluster when the transaction has no
// neighbors in any labeled set. Assign is safe for concurrent use.
func (l *Labeler) Assign(t Transaction) int {
	c, _ := l.AssignScore(t)
	return c
}

// AssignScore is Assign plus the winning cluster's normalized neighbor
// count — the confidence score the serving layer reports. The score is 0
// for outliers.
func (l *Labeler) AssignScore(t Transaction) (int, float64) {
	if l.asg != nil {
		return l.asg.Assign(t)
	}
	return label.AssignScore(l.sets, func(q int) bool {
		return l.sim(t, l.txns[q]) >= l.theta
	})
}

// AssignAll labels a batch of transactions.
func (l *Labeler) AssignAll(ts []Transaction) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = l.Assign(t)
	}
	return out
}

// SetSchema attaches the categorical schema the training records were
// encoded with. Snapshots carry the schema onward, letting a serving
// process (rockd) accept raw records and encode them identically.
func (l *Labeler) SetSchema(s *Schema) { l.schema = s }

// Schema returns the attached categorical schema, or nil.
func (l *Labeler) Schema() *Schema { return l.schema }

// Snapshot captures the Labeler as a persistable model. Only the
// transactions referenced by some labeled set are included (indices are
// remapped), so a snapshot of a large training run stays small. The
// similarity must be one of the named ones (Jaccard, Dice, Overlap,
// Cosine); a custom similarity function cannot be serialized.
func (l *Labeler) Snapshot() (*Snapshot, error) {
	if l.simName == "" {
		return nil, errors.New("rock: custom similarity functions cannot be snapshotted; use a named similarity")
	}
	// Collect the referenced transaction indices, sorted and deduplicated,
	// and build the old→new index remap.
	used := map[int]bool{}
	for _, s := range l.sets {
		for _, p := range s.Points {
			if p < 0 || p >= len(l.txns) {
				return nil, fmt.Errorf("rock: labeled point %d outside transaction slice of %d", p, len(l.txns))
			}
			used[p] = true
		}
	}
	order := make([]int, 0, len(used))
	for p := range used {
		order = append(order, p)
	}
	sort.Ints(order)
	remap := make(map[int]int, len(order))
	txns := make([]Transaction, len(order))
	for i, p := range order {
		remap[p] = i
		txns[i] = l.txns[p]
	}
	snap := &Snapshot{
		Theta:   l.theta,
		FTheta:  l.fTheta,
		SimName: l.simName,
		Schema:  l.schema,
		Txns:    txns,
	}
	for _, s := range l.sets {
		pts := make([]int, len(s.Points))
		for i, p := range s.Points {
			pts[i] = remap[p]
		}
		sort.Ints(pts)
		snap.Sets = append(snap.Sets, model.Set{
			Cluster: s.Cluster,
			Norm:    s.Norm(),
			Points:  pts,
		})
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// WriteSnapshot writes the Labeler's snapshot to w in the versioned binary
// snapshot format.
func (l *Labeler) WriteSnapshot(w io.Writer) error {
	s, err := l.Snapshot()
	if err != nil {
		return err
	}
	return s.Write(w)
}

// SaveSnapshot writes the Labeler's snapshot to path (atomically, via a
// temporary file and rename).
func (l *Labeler) SaveSnapshot(path string) error {
	s, err := l.Snapshot()
	if err != nil {
		return err
	}
	return model.Save(path, s)
}

// LoadLabeler revives a Labeler from a snapshot stream written by
// WriteSnapshot/SaveSnapshot. The revived Labeler assigns identically to
// the one that was snapshotted.
func LoadLabeler(r io.Reader) (*Labeler, error) {
	snap, err := model.Read(r)
	if err != nil {
		return nil, err
	}
	return labelerFromSnapshot(snap)
}

// LoadLabelerFile revives a Labeler from a snapshot file.
func LoadLabelerFile(path string) (*Labeler, error) {
	snap, err := model.Load(path)
	if err != nil {
		return nil, err
	}
	return labelerFromSnapshot(snap)
}

// labelerFromSnapshot revives a Labeler through model.Compile, which
// resolves every snapshot similarity — including the schema-weighted
// "wjaccard", whose weight table only the snapshot's schema carries.
func labelerFromSnapshot(snap *Snapshot) (*Labeler, error) {
	asg, err := model.Compile(snap)
	if err != nil {
		return nil, err
	}
	sets := make([]label.Set, len(snap.Sets))
	for i, s := range snap.Sets {
		sets[i] = label.NewSet(s.Cluster, s.Points, s.Norm)
	}
	return &Labeler{
		sets:    sets,
		txns:    snap.Txns,
		simName: snap.SimName,
		theta:   snap.Theta,
		fTheta:  snap.FTheta,
		schema:  snap.Schema,
		asg:     asg,
	}, nil
}
