// Package simjoin implements an exact similarity threshold join over
// transaction corpora: given a set similarity measure and a threshold theta,
// it produces, for every transaction, the list of transactions with
// sim >= theta — the neighbor lists of Section 3.1 of the ROCK paper.
//
// Two exact engines share one preparation: items are remapped so the rarest
// item sorts first, and each record becomes a sorted array of item ranks.
//
//   - The prefix index is the classic inverted-index join (AllPairs/PPJoin
//     family): every record is indexed only on a short prefix, and candidate
//     pairs pass a length filter, a prefix filter and a positional upper
//     bound before an early-exit merge intersection verifies them. It does
//     not evaluate all n(n-1)/2 pairs, and it is the only sub-quadratic
//     engine, so sparse corpora, high thresholds and the streaming IncIndex
//     rely on it.
//   - The item-bitmap sweep turns every record into a bitmap over the
//     distinct items and takes the exact intersection size of every pair
//     from popcounts of the bitmaps' AND. On dense categorical records,
//     where the prefixes prune nothing, it beats the index's per-candidate
//     work severalfold.
//
// Join chooses between them per call from the prefix-posting counts the
// preparation yields. All bounds are derived from the *same floating-point
// predicate* the brute-force path evaluates (sim(a, b) >= theta as computed
// by internal/sim), so the output of either engine is bit-identical to
// links.ComputeNeighbors for every input — the filters only ever discard
// pairs whose exact similarity provably fails the predicate.
package simjoin

import (
	"math"
	"sort"

	"rock/internal/sim"
)

// Measure identifies one of the set-theoretic transaction similarities of
// Section 3.1 that the indexed join supports.
type Measure int8

const (
	// Jaccard is |a ∩ b| / |a ∪ b| (the paper's measure).
	Jaccard Measure = iota
	// Dice is 2|a ∩ b| / (|a| + |b|).
	Dice
	// Cosine is |a ∩ b| / sqrt(|a| · |b|).
	Cosine
	// Overlap is |a ∩ b| / min(|a|, |b|).
	Overlap

	numMeasures
)

// measureByName maps the sim package's registered similarity names to
// measures. Keeping the mapping by name (rather than by function value) ties
// the join to the same registry that model snapshots use.
var measureByName = map[string]Measure{
	"jaccard": Jaccard,
	"dice":    Dice,
	"cosine":  Cosine,
	"overlap": Overlap,
}

// MeasureByName resolves a registered similarity name to a join measure.
func MeasureByName(name string) (Measure, bool) {
	m, ok := measureByName[name]
	return m, ok
}

// MeasureOf identifies the join measure of a transaction similarity
// function, when it is one of the named sim-package measures.
func MeasureOf(f sim.TxnFunc) (Measure, bool) {
	return MeasureByName(sim.NameOf(f))
}

// Eval computes the similarity of a pair with intersection size inter and
// transaction sizes la, lb. Each case mirrors the corresponding function in
// internal/sim operation for operation, so the float64 result is bit-equal
// to what the brute-force path computes for the same pair.
func (m Measure) Eval(inter, la, lb int) float64 {
	switch m {
	case Jaccard:
		union := la + lb - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	case Dice:
		if la+lb == 0 {
			return 0
		}
		return 2 * float64(inter) / float64(la+lb)
	case Cosine:
		if la == 0 || lb == 0 {
			return 0
		}
		return float64(inter) / math.Sqrt(float64(la)*float64(lb))
	default: // Overlap
		mn := la
		if lb < mn {
			mn = lb
		}
		if mn == 0 {
			return 0
		}
		return float64(inter) / float64(mn)
	}
}

// minOverlapPair returns the smallest intersection size I in [0, min(la,lb)]
// with Eval(I, la, lb) >= theta, or min(la,lb)+1 when no I qualifies (the
// pair cannot be neighbors regardless of content — this is the length
// filter). For every measure Eval is monotone nondecreasing in I (integer
// numerators convert exactly and IEEE division/sqrt round monotonically), so
// binary search over the predicate is exact.
//
// Because the bound is defined directly by the float predicate — not by a
// rounded closed-form formula — any pair whose true intersection falls below
// it provably fails sim >= theta under the brute-force arithmetic too.
func (m Measure) minOverlapPair(la, lb int, theta float64) int {
	mn := la
	if lb < mn {
		mn = lb
	}
	return sort.Search(mn+1, func(i int) bool { return m.Eval(i, la, lb) >= theta })
}

// minOverlapAny returns the smallest intersection size the record of length
// l must share with *any* partner for the pair to possibly reach theta. For
// a fixed I the similarity is maximized by the shortest admissible partner
// (length I, when the partner is a subset), so the bound is the smallest I
// with Eval(I, l, I) >= theta. It determines the prefix length
// l - minOverlapAny + 1: a qualifying pair must share an item within both
// records' prefixes.
func (m Measure) minOverlapAny(l int, theta float64) int {
	return sort.Search(l+1, func(i int) bool { return m.Eval(i, l, i) >= theta })
}
