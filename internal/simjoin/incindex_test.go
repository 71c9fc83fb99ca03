package simjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rock/internal/dataset"
)

// incCorpus draws a clustered corpus with the pathologies the index must
// handle: empty transactions, exact duplicates, singletons, and items whose
// document frequencies shift over the stream (so the frozen-rank order and
// the DF order genuinely diverge between rebuilds).
func incCorpus(rng *rand.Rand, n int) []dataset.Transaction {
	txns := make([]dataset.Transaction, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%17 == 0:
			txns = append(txns, dataset.Transaction{})
		case i%13 == 0 && len(txns) > 1:
			// Exact duplicate of an earlier transaction.
			txns = append(txns, txns[rng.Intn(len(txns))])
		default:
			// Clustered draw: a base of shared items plus noise. Later
			// clusters use higher item ids, shifting frequencies over time.
			cl := rng.Intn(4)
			sz := 1 + rng.Intn(8)
			t := make(dataset.Transaction, 0, sz)
			for k := 0; k < sz; k++ {
				if rng.Intn(3) == 0 {
					t = append(t, dataset.Item(200+rng.Intn(40))) // global noise
				} else {
					t = append(t, dataset.Item(cl*20+rng.Intn(12)))
				}
			}
			t.Normalize()
			txns = append(txns, t)
		}
	}
	return txns
}

// TestIncIndexMatchesBatchAtEveryPrefix is the incremental-vs-batch
// equivalence property: inserting transactions one at a time must yield
// neighbor lists bit-identical to rebuilding the batch index from scratch at
// every prefix of the stream — across measures, thresholds (including the
// brute-force fallback band), and corpora with empties and duplicates.
func TestIncIndexMatchesBatchAtEveryPrefix(t *testing.T) {
	measures := []Measure{Jaccard, Dice, Cosine, Overlap}
	thetas := []float64{0.01, 0.3, 0.5, 0.8} // 0.01 < MinIndexTheta: brute path
	for _, m := range measures {
		for _, theta := range thetas {
			m, theta := m, theta
			t.Run(fmt.Sprintf("%s/theta=%v", m, theta), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(m)*1000 + int64(theta*100)))
				// 150 crosses the rebuild thresholds at 64 and 128, so both
				// frozen-rank epochs and the re-rank path are exercised.
				txns := incCorpus(rng, 150)
				inc := NewIncIndex(m, theta)
				for i, txn := range txns {
					id, row := inc.Insert(txn)
					if int(id) != i {
						t.Fatalf("insert %d returned id %d", i, id)
					}
					want := Join(txns[:i+1], m, theta, 1)
					got := inc.Neighbors()
					if !reflect.DeepEqual(got.Lists, want.Lists) {
						t.Fatalf("prefix %d: incremental lists diverge from batch join\ngot  %v\nwant %v",
							i+1, got.Lists, want.Lists)
					}
					if !reflect.DeepEqual(row, want.Lists[i]) {
						t.Fatalf("prefix %d: Insert returned %v, batch row is %v", i+1, row, want.Lists[i])
					}
				}
			})
		}
	}
}

// TestIncIndexUnnormalizedInput checks that Insert normalizes a copy without
// mutating the caller's transaction.
func TestIncIndexUnnormalizedInput(t *testing.T) {
	inc := NewIncIndex(Jaccard, 0.5)
	inc.Insert(dataset.Transaction{3, 1, 2})
	raw := dataset.Transaction{2, 3, 3, 1}
	_, row := inc.Insert(raw)
	if !reflect.DeepEqual(raw, dataset.Transaction{2, 3, 3, 1}) {
		t.Fatalf("Insert mutated its argument: %v", raw)
	}
	if !reflect.DeepEqual(row, []int32{0}) {
		t.Fatalf("normalized duplicate should match record 0, got %v", row)
	}
	if got := inc.Txn(1); !got.IsNormalized() {
		t.Fatalf("stored transaction not normalized: %v", got)
	}
}

// TestIncIndexRetainMatchesFresh is the property the stream pool's
// re-cluster relies on: after Retain(keep) the index is indistinguishable
// from a fresh index fed the kept records in order. Its neighbor lists equal
// the batch join over the kept records, every later Insert returns what the
// fresh index returns for the same arrival, and the rank order and document
// frequencies hold only the survivors' items — across measures, thresholds
// on both sides of MinIndexTheta, and keep sets that are empty, full, an
// oldest-first shed and random, over three insert-then-retain rounds.
func TestIncIndexRetainMatchesFresh(t *testing.T) {
	measures := []Measure{Jaccard, Dice, Cosine, Overlap}
	thetas := []float64{0, 0.01, 0.3, 0.5, 0.8} // 0 and 0.01 take the brute path
	keeps := map[string]func(rng *rand.Rand, n int) []int{
		"empty": func(*rand.Rand, int) []int { return nil },
		"full": func(_ *rand.Rand, n int) []int {
			keep := make([]int, n)
			for i := range keep {
				keep[i] = i
			}
			return keep
		},
		"shed": func(_ *rand.Rand, n int) []int {
			var keep []int
			for i := n - n/3; i < n; i++ {
				keep = append(keep, i)
			}
			return keep
		},
		"random": func(rng *rand.Rand, n int) []int {
			var keep []int
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					keep = append(keep, i)
				}
			}
			return keep
		},
	}
	for _, m := range measures {
		for _, theta := range thetas {
			for kind, pick := range keeps {
				m, theta, pick := m, theta, pick
				t.Run(fmt.Sprintf("%s/theta=%v/%s", m, theta, kind), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(int64(m)*1000 + int64(theta*100) + int64(len(kind))))
					// Each round inserts 150 records (crossing the rebuild
					// thresholds at 64 and 128), then retains a subset.
					inc := NewIncIndex(m, theta)
					var kept []dataset.Transaction
					for round := 0; round < 3; round++ {
						fresh := NewIncIndex(m, theta)
						for _, txn := range kept {
							fresh.Insert(txn)
						}
						for i, txn := range incCorpus(rng, 150) {
							gotID, gotRow := inc.Insert(txn)
							wantID, wantRow := fresh.Insert(txn)
							if gotID != wantID || !reflect.DeepEqual(gotRow, wantRow) {
								t.Fatalf("round %d arrival %d: Insert (%d, %v), fresh index (%d, %v)",
									round, i, gotID, gotRow, wantID, wantRow)
							}
							kept = append(kept, txn)
						}
						if !reflect.DeepEqual(inc.Neighbors().Lists, fresh.Neighbors().Lists) {
							t.Fatalf("round %d: lists diverge from the fresh index's", round)
						}

						keep := pick(rng, inc.Len())
						inc.Retain(keep)
						survivors := make([]dataset.Transaction, len(keep))
						for i, k := range keep {
							survivors[i] = kept[k]
						}
						kept = survivors
						checkRetained(t, inc, kept, m, theta)
					}
				})
			}
		}
	}
}

// checkRetained asserts that inc holds exactly the records kept, with the
// batch join's neighbor lists over them and a rank order and document
// frequencies drawn from their items alone.
func checkRetained(t *testing.T, inc *IncIndex, kept []dataset.Transaction, m Measure, theta float64) {
	t.Helper()
	if inc.Len() != len(kept) {
		t.Fatalf("Retain left %d records, want %d", inc.Len(), len(kept))
	}
	for i, txn := range kept {
		if !inc.Txn(i).Equal(txn) {
			t.Fatalf("record %d is %v, want %v", i, inc.Txn(i), txn)
		}
	}
	want := Join(kept, m, theta, 1)
	if !reflect.DeepEqual(inc.Neighbors().Lists, want.Lists) {
		t.Fatalf("after Retain lists diverge from the batch join\ngot  %v\nwant %v", inc.Neighbors().Lists, want.Lists)
	}
	if !inc.indexed {
		return
	}
	df := map[dataset.Item]int32{}
	for _, txn := range kept {
		for _, it := range txn {
			df[it]++
		}
	}
	if !reflect.DeepEqual(inc.df, df) {
		t.Fatalf("document frequencies %v, survivors' %v", inc.df, df)
	}
	if len(inc.rank) != len(df) {
		t.Fatalf("rank holds %d items, survivors have %d", len(inc.rank), len(df))
	}
	for it := range inc.rank {
		if _, ok := df[it]; !ok {
			t.Fatalf("rank holds item %d, which no survivor has", it)
		}
	}
}
