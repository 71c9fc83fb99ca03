package iheap

import (
	"math/rand"
	"sort"
	"testing"
)

func TestPushPopOrder(t *testing.T) {
	h := New()
	h.Push(1, 3.0, 0)
	h.Push(2, 5.0, 0)
	h.Push(3, 1.0, 0)
	h.Push(4, 4.0, 0)
	var keys []int
	for h.Len() > 0 {
		k, _, _, _ := h.PopMax()
		keys = append(keys, k)
	}
	want := []int{2, 4, 1, 3}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("pop order %v, want %v", keys, want)
		}
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	h := New()
	h.Push(7, 1.0, 0)
	h.Push(3, 1.0, 0)
	h.Push(5, 1.0, 0)
	k, _, _, _ := h.PopMax()
	if k != 3 {
		t.Fatalf("tie broke to %d, want smallest key 3", k)
	}
}

// TestPartnerTieBreak: equal priorities order by smaller partner first,
// then by smaller key, and Max and PopMax return the partner.
func TestPartnerTieBreak(t *testing.T) {
	h := New()
	h.Push(2, 1.0, 9)
	h.Push(8, 1.0, 4)
	h.Push(5, 1.0, 4)
	h.Push(1, 0.5, 0)
	h.Push(6, 2.0, 7)
	if k, pri, partner, ok := h.Max(); !ok || k != 6 || pri != 2 || partner != 7 {
		t.Fatalf("Max = (%d, %v, %d, %v), want (6, 2, 7, true)", k, pri, partner, ok)
	}
	want := [][2]int{{6, 7}, {5, 4}, {8, 4}, {2, 9}, {1, 0}}
	for _, w := range want {
		k, _, partner, ok := h.PopMax()
		if !ok || k != w[0] || partner != w[1] {
			t.Fatalf("PopMax = (%d, partner %d), want (%d, partner %d)", k, partner, w[0], w[1])
		}
	}
}

// TestUpdatePartnerOnlyResifts: an Update that keeps the priority but
// changes the partner moves the entry both ways.
func TestUpdatePartnerOnlyResifts(t *testing.T) {
	h := New()
	for k := 0; k < 20; k++ {
		h.Push(k, 1.0, 100+k)
	}
	h.Update(17, 1.0, 3) // smaller partner: sifts up to the top
	if k, _, partner, _ := h.Max(); k != 17 || partner != 3 {
		t.Fatalf("after raising 17: Max = (%d, partner %d), want (17, partner 3)", k, partner)
	}
	h.Update(17, 1.0, 500) // larger partner: sifts down
	if k, _, partner, _ := h.Max(); k != 0 || partner != 100 {
		t.Fatalf("after lowering 17: Max = (%d, partner %d), want (0, partner 100)", k, partner)
	}
	var got []int
	for h.Len() > 0 {
		k, _, _, _ := h.PopMax()
		got = append(got, k)
	}
	if got[len(got)-1] != 17 {
		t.Fatalf("drain order %v: 17 (partner 500) should come last", got)
	}
	if pri, partner, ok := h.Priority(17); ok {
		t.Fatalf("Priority of popped key = (%v, %d, true)", pri, partner)
	}
}

func TestRemoveAndUpdate(t *testing.T) {
	h := New()
	for i := 0; i < 10; i++ {
		h.Push(i, float64(i), 0)
	}
	if !h.Remove(9) {
		t.Fatal("Remove(9) failed")
	}
	if h.Remove(9) {
		t.Fatal("double Remove succeeded")
	}
	if k, _, _, _ := h.Max(); k != 8 {
		t.Fatalf("max = %d, want 8", k)
	}
	if !h.Update(0, 100, 0) {
		t.Fatal("Update failed")
	}
	if k, pri, _, _ := h.Max(); k != 0 || pri != 100 {
		t.Fatalf("max = %d/%v, want 0/100", k, pri)
	}
	if h.Update(42, 1, 0) {
		t.Fatal("Update of absent key succeeded")
	}
}

func TestUpsert(t *testing.T) {
	h := New()
	h.Upsert(1, 5, 0)
	h.Upsert(1, 2, 7)
	if pri, partner, ok := h.Priority(1); !ok || pri != 2 || partner != 7 {
		t.Fatalf("priority = %v, partner %d, %v", pri, partner, ok)
	}
	if h.Len() != 1 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestDuplicatePushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := New()
	h.Push(1, 1, 0)
	h.Push(1, 2, 0)
}

func TestEmptyOps(t *testing.T) {
	h := New()
	if _, _, _, ok := h.Max(); ok {
		t.Error("Max on empty")
	}
	if _, _, _, ok := h.PopMax(); ok {
		t.Error("PopMax on empty")
	}
	if !h.Empty() {
		t.Error("Empty false")
	}
}

// TestHeapInvariantRandomOps runs a randomized workload against a reference
// map and verifies the maximum, membership and the drain order at every
// step. Priorities and partners come from small ranges, so most comparisons
// fall through to the partner and key tie-breaks.
func TestHeapInvariantRandomOps(t *testing.T) {
	type val struct {
		pri     float64
		partner int
	}
	// before reports whether (ka, a) orders ahead of (kb, b).
	before := func(ka int, a val, kb int, b val) bool {
		if a.pri != b.pri {
			return a.pri > b.pri
		}
		if a.partner != b.partner {
			return a.partner < b.partner
		}
		return ka < kb
	}
	rng := rand.New(rand.NewSource(13))
	h := New()
	ref := make(map[int]val)
	randVal := func() val { return val{float64(rng.Intn(4)), rng.Intn(6) - 1} }
	for op := 0; op < 20000; op++ {
		switch rng.Intn(5) {
		case 0: // push
			k := rng.Intn(200)
			if _, ok := ref[k]; !ok {
				v := randVal()
				h.Push(k, v.pri, v.partner)
				ref[k] = v
			}
		case 1: // remove
			k := rng.Intn(200)
			_, ok := ref[k]
			if h.Remove(k) != ok {
				t.Fatal("Remove disagrees with reference")
			}
			delete(ref, k)
		case 2: // update priority and partner
			k := rng.Intn(200)
			_, ok := ref[k]
			v := randVal()
			if h.Update(k, v.pri, v.partner) != ok {
				t.Fatal("Update disagrees with reference")
			}
			if ok {
				ref[k] = v
			}
		case 3: // update the partner only
			k := rng.Intn(200)
			if v, ok := ref[k]; ok {
				v.partner = rng.Intn(6) - 1
				h.Update(k, v.pri, v.partner)
				ref[k] = v
			}
		case 4: // verify max and lookup
			k := rng.Intn(200)
			pri, partner, ok := h.Priority(k)
			if v, in := ref[k]; ok != in || (ok && (pri != v.pri || partner != v.partner)) {
				t.Fatalf("Priority(%d) = (%v, %d, %v), ref (%+v, %v)", k, pri, partner, ok, v, in)
			}
			if len(ref) == 0 {
				if _, _, _, ok := h.Max(); ok {
					t.Fatal("Max on logically empty heap")
				}
				continue
			}
			bestK := -1
			for k, v := range ref {
				if bestK < 0 || before(k, v, bestK, ref[bestK]) {
					bestK = k
				}
			}
			k, pri, partner, ok = h.Max()
			if want := ref[bestK]; !ok || k != bestK || pri != want.pri || partner != want.partner {
				t.Fatalf("Max = (%d, %v, %d), want (%d, %v, %d)", k, pri, partner, bestK, want.pri, want.partner)
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("Len = %d, ref %d", h.Len(), len(ref))
		}
	}
	// Drain: the full order matches the reference sorted by the same rule.
	keys := make([]int, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return before(keys[i], ref[keys[i]], keys[j], ref[keys[j]]) })
	for _, want := range keys {
		k, _, _, ok := h.PopMax()
		if !ok || k != want {
			t.Fatalf("drain popped %d (%v), want %d", k, ok, want)
		}
	}
}

func TestKeys(t *testing.T) {
	h := New()
	for i := 0; i < 5; i++ {
		h.Push(i, float64(i), 0)
	}
	keys := h.Keys()
	sort.Ints(keys)
	for i, k := range keys {
		if i != k {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestNegativeKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Push(-1, 1, 0)
}

// TestDenseIndexSparseKeys pushes keys spread far apart (the position index
// is a slice addressed by key), then re-pushes removed and popped keys.
func TestDenseIndexSparseKeys(t *testing.T) {
	h := NewWithCapacity(4)
	keys := []int{1 << 20, 3, 70000, 0, 999999}
	for i, k := range keys {
		h.Push(k, float64(i), 0)
	}
	for _, k := range []int{-5, 1, 4, 1<<20 - 1, 1 << 21} {
		if h.Has(k) || h.Remove(k) || h.Update(k, 1, 0) {
			t.Fatalf("absent key %d reported present", k)
		}
	}
	if k, _, _, _ := h.Max(); k != 999999 {
		t.Fatalf("max = %d, want 999999", k)
	}
	if !h.Remove(1 << 20) {
		t.Fatal("Remove(1<<20) failed")
	}
	if h.Has(1 << 20) {
		t.Fatal("removed key still present")
	}
	h.Push(1<<20, 10, 0)
	if k, pri, _, _ := h.PopMax(); k != 1<<20 || pri != 10 {
		t.Fatalf("max = %d/%v, want re-pushed %d/10", k, pri, 1<<20)
	}
	h.Push(1<<20, -1, 0)
	if pri, _, ok := h.Priority(1 << 20); !ok || pri != -1 {
		t.Fatalf("priority after second re-push = %v, %v", pri, ok)
	}
	var got []int
	for h.Len() > 0 {
		k, _, _, _ := h.PopMax()
		got = append(got, k)
	}
	want := []int{999999, 0, 70000, 3, 1 << 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestLazyHeapOrder(t *testing.T) {
	var l Lazy
	l.Init([]LazyEntry{
		{Key: 1, Pri: 2},
		{Key: 3, Pri: 5}, // tie with key 2: smaller key first
		{Key: 4, Pri: 1},
		{Key: 2, Pri: 5},
	})
	wantKeys := []int32{2, 3, 1, 4}
	for _, want := range wantKeys {
		e, ok := l.Pop()
		if !ok || e.Key != want {
			t.Fatalf("pop = %v (%v), want key %d", e.Key, ok, want)
		}
	}
	if _, ok := l.Pop(); ok {
		t.Fatal("pop on empty")
	}
}

// TestLazyHeapInitTieBreak heapifies equal-priority entries in scrambled
// order: Init must drain exactly in sorted order, priority descending, ties
// toward smaller key.
func TestLazyHeapInitTieBreak(t *testing.T) {
	var l Lazy
	l.Init([]LazyEntry{{Key: 9, Pri: 3}, {Key: 4, Pri: 3}, {Key: 1, Pri: 2}, {Key: 7, Pri: 3}, {Key: 2, Pri: 5}})
	for _, want := range []int32{2, 4, 7, 9, 1} {
		if e, ok := l.Pop(); !ok || e.Key != want {
			t.Fatalf("pop = %v (%v), want key %d", e.Key, ok, want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		es := make([]LazyEntry, rng.Intn(300))
		for i := range es {
			es[i] = LazyEntry{Key: int32(rng.Intn(100000)), Pri: float64(rng.Intn(8))}
		}
		sorted := append([]LazyEntry(nil), es...)
		sort.Slice(sorted, func(i, j int) bool { return lazyLess(sorted[j], sorted[i]) })
		var built Lazy
		built.Init(es)
		for _, want := range sorted {
			got, ok := built.Pop()
			if !ok || got != want {
				t.Fatalf("trial %d: Init drained %v, sorted order has %v", trial, got, want)
			}
		}
		if built.Len() != 0 {
			t.Fatalf("trial %d: Init kept %d extra entries", trial, built.Len())
		}
	}
}

func TestLazyHeapRandomDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2000
	es := make([]LazyEntry, n)
	for i := range es {
		es[i] = LazyEntry{Key: int32(rng.Intn(500)), Pri: rng.Float64()}
	}
	var l Lazy
	l.Init(es)
	if l.Len() != n {
		t.Fatalf("Len = %d", l.Len())
	}
	prev := LazyEntry{Pri: 2}
	for {
		e, ok := l.Pop()
		if !ok {
			break
		}
		if lazyLess(prev, e) {
			t.Fatalf("out of order: %v then %v", prev, e)
		}
		prev = e
	}
}

func TestLazyTop(t *testing.T) {
	var l Lazy
	if _, ok := l.Top(); ok {
		t.Fatal("Top on empty")
	}
	l.Init([]LazyEntry{{Key: 9, Pri: 1}})
	if e, ok := l.Top(); !ok || e.Key != 9 || l.Len() != 1 {
		t.Fatal("Top should not remove")
	}
	if es := l.Entries(); len(es) != 1 || es[0].Key != 9 {
		t.Fatalf("Entries = %v", es)
	}
}
