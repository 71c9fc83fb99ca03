package rock

import (
	"errors"

	"rock/internal/dataset"
	"rock/internal/rockcore"
	"rock/internal/sim"
	"rock/internal/simjoin"
)

// Core data types, shared with the internal packages via aliases.
type (
	// Item is a compact integer item identifier.
	Item = dataset.Item
	// Transaction is a sorted set of items.
	Transaction = dataset.Transaction
	// Record is a categorical record (one value index per attribute,
	// MissingValue for absent values).
	Record = dataset.Record
	// Schema describes the categorical attributes of a data set.
	Schema = dataset.Schema
	// Attribute is one categorical attribute with its value domain.
	Attribute = dataset.Attribute
	// Result is the outcome of a clustering run: clusters (largest first),
	// outliers, the criterion value E_l and run statistics.
	Result = rockcore.Result
	// Stats carries run diagnostics.
	Stats = rockcore.Stats
)

// MissingValue marks an absent attribute value in a Record.
const MissingValue = dataset.Missing

// NewTransaction builds a normalized transaction from items.
func NewTransaction(items ...Item) Transaction { return dataset.NewTransaction(items...) }

// NewRecord returns a record of n attributes, all missing.
func NewRecord(n int) Record { return dataset.NewRecord(n) }

// NewEncoder builds a categorical-record encoder for the schema (Section
// 3.1.2 of the paper: one item per attribute=value pair).
func NewEncoder(schema *Schema) *dataset.Encoder { return dataset.NewEncoder(schema) }

// TxnSimilarity is a normalized similarity between transactions.
type TxnSimilarity = sim.TxnFunc

// Similarity functions from Section 3.1. Jaccard is the paper's choice.
var (
	Jaccard TxnSimilarity = sim.Jaccard
	Dice    TxnSimilarity = sim.Dice
	Overlap TxnSimilarity = sim.Overlap
	Cosine  TxnSimilarity = sim.Cosine
)

// SimilarityByName resolves a named transaction similarity ("jaccard",
// "dice", "overlap", "cosine"). Model snapshots persist similarities by
// these names; flags and config files can use them too.
func SimilarityByName(name string) (TxnSimilarity, bool) {
	return sim.TxnByName(name)
}

// DefaultF is the paper's f(theta) = (1-theta)/(1+theta).
func DefaultF(theta float64) float64 { return rockcore.DefaultF(theta) }

// Config controls a ROCK clustering run.
type Config struct {
	// K is the desired number of clusters. It is a hint: ROCK may stop
	// with more clusters when no cross links remain, and outlier handling
	// may remove clusters (Section 5.2).
	K int
	// Theta is the neighbor similarity threshold in [0, 1] (Section 3.1).
	Theta float64
	// F maps theta to f(theta), the exponent model of Section 3.3. Nil
	// selects DefaultF.
	F func(theta float64) float64
	// Similarity is the transaction similarity; nil selects Jaccard. Only
	// used by ClusterTransactions, ClusterRecords and the pipeline
	// functions.
	Similarity TxnSimilarity
	// MinNeighbors, when positive, discards points with fewer neighbors as
	// outliers before clustering (Section 4.6).
	MinNeighbors int
	// StopMultiple and MinClusterSize enable the second outlier mechanism
	// of Section 4.6: pause at StopMultiple×K clusters and weed out
	// clusters smaller than MinClusterSize.
	StopMultiple   float64
	MinClusterSize int
	// Workers bounds parallelism in the O(n²) neighbor computation; zero
	// uses all CPUs, one reproduces the paper's sequential behaviour.
	Workers int
	// DenseLimit is ignored: clustering counts links straight into
	// per-point link lists and builds no link table. The field stays so
	// existing configurations keep compiling.
	DenseLimit int
	// TraceMerges records the merge history in Result.Trace, enabling
	// BestK and CriterionTrajectory analyses.
	TraceMerges bool
}

func (c Config) core() rockcore.Config {
	return rockcore.Config{
		K:              c.K,
		Theta:          c.Theta,
		F:              c.F,
		MinNeighbors:   c.MinNeighbors,
		StopMultiple:   c.StopMultiple,
		MinClusterSize: c.MinClusterSize,
		Workers:        c.Workers,
		TraceMerges:    c.TraceMerges,
	}
}

func (c Config) txnSim() TxnSimilarity {
	if c.Similarity != nil {
		return c.Similarity
	}
	return sim.Jaccard
}

// ClusterTransactions clusters market-basket transactions.
//
// When the configured similarity is one of the named set measures (Jaccard,
// Dice, cosine, overlap), the transactions are normalized, and Theta is
// high enough to prune (simjoin.MinIndexTheta), the neighbor phase runs on
// the exact set-similarity join instead of the O(n²) pairwise similarity
// calls — same neighbor lists, bit for bit. The join picks its engine from
// the data: a prefix index that finds neighbors near-linearly on sparse
// data, or an item-bitmap sweep on dense records where prefixes cannot
// prune. Custom similarity functions and near-zero thresholds use brute
// force.
func ClusterTransactions(txns []Transaction, cfg Config) (*Result, error) {
	return rockcore.ClusterSource(simjoin.NewSource(txns, cfg.txnSim()), cfg.core())
}

// ClusterRecords clusters categorical records by converting each to a
// transaction of attribute=value items (missing values omitted) and applying
// the transaction similarity.
func ClusterRecords(schema *Schema, records []Record, cfg Config) (*Result, error) {
	if schema == nil {
		return nil, errors.New("rock: nil schema")
	}
	txns := dataset.NewEncoder(schema).EncodeAll(records)
	return ClusterTransactions(txns, cfg)
}

// ClusterRecordsPairwise clusters categorical records under the paper's
// time-series rule: each pair of records is compared only on the attributes
// whose values are present in both (Section 3.1.2).
func ClusterRecordsPairwise(records []Record, cfg Config) (*Result, error) {
	return rockcore.Cluster(len(records), sim.RecordsPairwise(records), cfg.core())
}

// ClusterSim clusters n points under an arbitrary index-addressed normalized
// similarity — for example a domain-expert similarity table.
func ClusterSim(n int, similarity func(i, j int) float64, cfg Config) (*Result, error) {
	return rockcore.Cluster(n, similarity, cfg.core())
}
