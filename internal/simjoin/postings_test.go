package simjoin

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rock/internal/dataset"
	"rock/internal/sim"
)

// postingsTxn draws a transaction over a mixed item universe: small dense
// ids, negative ids and ids past the dense table, with the odd empty one.
func postingsTxn(rng *rand.Rand) dataset.Transaction {
	if rng.Intn(12) == 0 {
		return dataset.Transaction{}
	}
	items := make([]dataset.Item, 1+rng.Intn(7))
	for i := range items {
		switch r := rng.Intn(10); {
		case r == 0:
			items[i] = dataset.Item(-1 - rng.Intn(4))
		case r == 1:
			items[i] = dataset.Item(denseItems + rng.Intn(4))
		case r == 2:
			items[i] = dataset.Item(1<<30 + rng.Intn(3))
		default:
			items[i] = dataset.Item(rng.Intn(24))
		}
	}
	return dataset.NewTransaction(items...)
}

// postingsRef is the reference model of a Postings: the live slots' items
// and, per item, its posting list with append-on-add and swap-delete.
type postingsRef struct {
	txns  map[int32]dataset.Transaction
	lists map[dataset.Item][]int32
}

func (r *postingsRef) add(s int32, t dataset.Transaction) {
	r.txns[s] = t
	for _, it := range t {
		r.lists[it] = append(r.lists[it], s)
	}
}

func (r *postingsRef) remove(s int32) {
	for _, it := range r.txns[s] {
		list := r.lists[it]
		i := slices.Index(list, s)
		list[i] = list[len(list)-1]
		r.lists[it] = list[:len(list)-1]
	}
	delete(r.txns, s)
}

// probe is the brute-force answer under the sim package's function, sorted.
func (r *postingsRef) probe(f sim.TxnFunc, theta float64, q dataset.Transaction) []int32 {
	var out []int32
	for s, t := range r.txns {
		if f(q, t) >= theta {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

// checkPostings asserts the posting ↔ live-slot invariants: each item's list
// is the reference list, order included; a map entry lives exactly as long
// as its list is non-empty; no list holds a stray posting; and the slot
// table describes the live slots and only them.
func checkPostings(t *testing.T, p *Postings, ref *postingsRef) {
	t.Helper()
	postings := 0
	for it, want := range ref.lists {
		if _, ok := p.sparse[it]; ok && len(want) == 0 {
			t.Fatalf("item %d: map entry outlived its last posting", it)
		}
		if got := p.list(it); !slices.Equal(got, want) {
			t.Fatalf("item %d: list %v, want %v", it, got, want)
		}
		postings += len(want)
	}
	indexed := 0
	for _, list := range p.lists {
		indexed += len(list)
	}
	for it, list := range p.sparse {
		if uint(it) < denseItems || len(list) == 0 {
			t.Fatalf("item %d: stray map entry %v", it, list)
		}
		indexed += len(list)
	}
	if indexed != postings {
		t.Fatalf("index holds %d postings, live slots %d", indexed, postings)
	}
	for s, l := range p.lens {
		want, live := ref.txns[int32(s)]
		switch {
		case live && (l != int32(len(want)) || !p.txns[s].Equal(want)):
			t.Fatalf("slot %d: holds %v (len %d), want %v", s, p.txns[s], l, want)
		case !live && (l != -1 || p.txns[s] != nil):
			t.Fatalf("free slot %d: holds %v (len %d)", s, p.txns[s], l)
		}
	}
	for s := range ref.txns {
		if int(s) >= len(p.lens) {
			t.Fatalf("live slot %d beyond the slot table", s)
		}
	}
}

// TestPostingsProbeMatchesBruteForce: over random add/remove sequences,
// starting empty or from a static build, every probe equals the brute-force
// θ-neighbors under the sim package's function — for the four measures at
// θ 0 through 1, with empty transactions and negative and wide item ids —
// and the posting lists keep the reference's order after every operation.
// At θ 0 the answer is every live slot in ascending order. Concurrent
// probes, each with its own scratch, see the same answers.
func TestPostingsProbeMatchesBruteForce(t *testing.T) {
	for _, name := range []string{"jaccard", "dice", "cosine", "overlap"} {
		m, _ := MeasureByName(name)
		f, _ := sim.TxnByName(name)
		for _, theta := range []float64{0, 0.3, 0.5, 0.7, 1} {
			for _, static := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/theta=%v/static=%v", name, theta, static), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(theta*10) + int64(len(name))))
					ref := &postingsRef{txns: map[int32]dataset.Transaction{}, lists: map[dataset.Item][]int32{}}
					var initial []dataset.Transaction
					if static {
						for i := 0; i < 30; i++ {
							initial = append(initial, postingsTxn(rng))
						}
					}
					p := NewPostings(m, theta, initial)
					for s, txn := range initial {
						ref.add(int32(s), txn)
					}
					checkPostings(t, p, ref)
					var sc ProbeScratch
					probe := func(q dataset.Transaction) {
						got := p.Probe(&sc, q)
						if theta <= 0 && !slices.IsSorted(got) {
							t.Fatalf("θ 0 probe %v not ascending", got)
						}
						got = slices.Clone(got)
						slices.Sort(got)
						if want := ref.probe(f, theta, q); !slices.Equal(got, want) {
							t.Fatalf("probe %v: got %v, want %v", q, got, want)
						}
					}
					live := func() []int32 {
						var out []int32
						for s := range ref.txns {
							out = append(out, s)
						}
						slices.Sort(out)
						return out
					}
					for op := 0; op < 400; op++ {
						if len(ref.txns) > 0 && rng.Intn(5) < 2 {
							slots := live()
							s := slots[rng.Intn(len(slots))]
							p.Remove(s)
							ref.remove(s)
						} else {
							// The lowest free slot, or a new one past the end.
							s := int32(0)
							for _, ok := ref.txns[s]; ok; _, ok = ref.txns[s] {
								s++
							}
							if rng.Intn(8) == 0 {
								s = int32(len(p.lens) + rng.Intn(3))
							}
							txn := postingsTxn(rng)
							p.Add(s, txn)
							ref.add(s, txn)
						}
						checkPostings(t, p, ref)
						for k := 0; k < 3; k++ {
							probe(postingsTxn(rng))
						}
						for _, s := range live() {
							if rng.Intn(4) == 0 {
								probe(ref.txns[s])
							}
						}
					}

					queries := make([]dataset.Transaction, 64)
					wants := make([][]int32, len(queries))
					for i := range queries {
						queries[i] = postingsTxn(rng)
						wants[i] = ref.probe(f, theta, queries[i])
					}
					var wg sync.WaitGroup
					errs := make(chan string, 4)
					for g := 0; g < 4; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							var sc ProbeScratch
							for r := 0; r < 20; r++ {
								for i := range queries {
									i := (i + g*7) % len(queries)
									got := slices.Clone(p.Probe(&sc, queries[i]))
									slices.Sort(got)
									if !slices.Equal(got, wants[i]) {
										errs <- fmt.Sprintf("goroutine %d, query %v: got %v, want %v", g, queries[i], got, wants[i])
										return
									}
								}
							}
						}(g)
					}
					wg.Wait()
					close(errs)
					for e := range errs {
						t.Fatal(e)
					}
				})
			}
		}
	}
}

// TestPostingsProbeZeroAllocs: once a scratch has grown to the slot space,
// a probe allocates nothing.
func TestPostingsProbeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	txns := make([]dataset.Transaction, 500)
	for i := range txns {
		txns[i] = postingsTxn(rng)
	}
	p := NewPostings(Jaccard, 0.3, txns)
	var sc ProbeScratch
	for _, q := range txns {
		p.Probe(&sc, q)
	}
	i := 0
	if allocs := testing.AllocsPerRun(500, func() {
		p.Probe(&sc, txns[i%len(txns)])
		i++
	}); allocs != 0 {
		t.Fatalf("Probe allocates %.1f objects/op, want 0", allocs)
	}
}
