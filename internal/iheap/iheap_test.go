package iheap

import (
	"math/rand"
	"sort"
	"testing"
)

func TestPushPopOrder(t *testing.T) {
	h := New()
	h.Push(1, 3.0)
	h.Push(2, 5.0)
	h.Push(3, 1.0)
	h.Push(4, 4.0)
	var keys []int
	for h.Len() > 0 {
		k, _, _ := h.PopMax()
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
	h.Push(7, 1.0)
	h.Push(3, 1.0)
	h.Push(5, 1.0)
	k, _, _ := h.PopMax()
	if k != 3 {
		t.Fatalf("tie broke to %d, want smallest key 3", k)
	}
}

func TestRemoveAndUpdate(t *testing.T) {
	h := New()
	for i := 0; i < 10; i++ {
		h.Push(i, float64(i))
	}
	if !h.Remove(9) {
		t.Fatal("Remove(9) failed")
	}
	if h.Remove(9) {
		t.Fatal("double Remove succeeded")
	}
	if k, _, _ := h.Max(); k != 8 {
		t.Fatalf("max = %d, want 8", k)
	}
	if !h.Update(0, 100) {
		t.Fatal("Update failed")
	}
	if k, pri, _ := h.Max(); k != 0 || pri != 100 {
		t.Fatalf("max = %d/%v, want 0/100", k, pri)
	}
	if h.Update(42, 1) {
		t.Fatal("Update of absent key succeeded")
	}
}

func TestUpsert(t *testing.T) {
	h := New()
	h.Upsert(1, 5)
	h.Upsert(1, 2)
	if pri, ok := h.Priority(1); !ok || pri != 2 {
		t.Fatalf("priority = %v, %v", pri, ok)
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
	h.Push(1, 1)
	h.Push(1, 2)
}

func TestEmptyOps(t *testing.T) {
	h := New()
	if _, _, ok := h.Max(); ok {
		t.Error("Max on empty")
	}
	if _, _, ok := h.PopMax(); ok {
		t.Error("PopMax on empty")
	}
	if !h.Empty() {
		t.Error("Empty false")
	}
}

// TestHeapInvariantRandomOps runs a randomized workload against a reference
// map and verifies pop order and membership at every step.
func TestHeapInvariantRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := New()
	ref := make(map[int]float64)
	for op := 0; op < 5000; op++ {
		switch rng.Intn(4) {
		case 0: // push
			k := rng.Intn(200)
			if _, ok := ref[k]; !ok {
				p := rng.Float64()
				h.Push(k, p)
				ref[k] = p
			}
		case 1: // remove
			k := rng.Intn(200)
			_, ok := ref[k]
			if h.Remove(k) != ok {
				t.Fatal("Remove disagrees with reference")
			}
			delete(ref, k)
		case 2: // update
			k := rng.Intn(200)
			_, ok := ref[k]
			p := rng.Float64()
			if h.Update(k, p) != ok {
				t.Fatal("Update disagrees with reference")
			}
			if ok {
				ref[k] = p
			}
		case 3: // verify max
			if len(ref) == 0 {
				if _, _, ok := h.Max(); ok {
					t.Fatal("Max on logically empty heap")
				}
				continue
			}
			bestK, bestP := -1, -1.0
			for k, p := range ref {
				if p > bestP || (p == bestP && k < bestK) {
					bestK, bestP = k, p
				}
			}
			k, p, ok := h.Max()
			if !ok || k != bestK || p != bestP {
				t.Fatalf("Max = (%d,%v), want (%d,%v)", k, p, bestK, bestP)
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("Len = %d, ref %d", h.Len(), len(ref))
		}
	}
	// Drain and confirm sorted non-increasing priorities.
	var pris []float64
	for h.Len() > 0 {
		_, p, _ := h.PopMax()
		pris = append(pris, p)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(pris))) {
		t.Fatal("drain order not non-increasing")
	}
}

func TestKeys(t *testing.T) {
	h := New()
	for i := 0; i < 5; i++ {
		h.Push(i, float64(i))
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
	New().Push(-1, 1)
}

// TestDenseIndexSparseKeys pushes keys spread far apart (the position index
// is a slice addressed by key), then re-pushes removed and popped keys.
func TestDenseIndexSparseKeys(t *testing.T) {
	h := NewWithCapacity(4)
	keys := []int{1 << 20, 3, 70000, 0, 999999}
	for i, k := range keys {
		h.Push(k, float64(i))
	}
	for _, k := range []int{-5, 1, 4, 1<<20 - 1, 1 << 21} {
		if h.Has(k) || h.Remove(k) || h.Update(k, 1) {
			t.Fatalf("absent key %d reported present", k)
		}
	}
	if k, _, _ := h.Max(); k != 999999 {
		t.Fatalf("max = %d, want 999999", k)
	}
	if !h.Remove(1 << 20) {
		t.Fatal("Remove(1<<20) failed")
	}
	if h.Has(1 << 20) {
		t.Fatal("removed key still present")
	}
	h.Push(1<<20, 10)
	if k, pri, _ := h.PopMax(); k != 1<<20 || pri != 10 {
		t.Fatalf("max = %d/%v, want re-pushed %d/10", k, pri, 1<<20)
	}
	h.Push(1<<20, -1)
	if pri, ok := h.Priority(1 << 20); !ok || pri != -1 {
		t.Fatalf("priority after second re-push = %v, %v", pri, ok)
	}
	var got []int
	for h.Len() > 0 {
		k, _, _ := h.PopMax()
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
	l.Push(LazyEntry{Key: 1, Pri: 2})
	l.Push(LazyEntry{Key: 2, Pri: 5})
	l.Push(LazyEntry{Key: 3, Pri: 5}) // tie: smaller key first
	l.Push(LazyEntry{Key: 4, Pri: 1})
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
// order: Init must drain exactly as pushes would, ties toward smaller key.
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
		var pushed Lazy
		for i := range es {
			es[i] = LazyEntry{Key: int32(rng.Intn(100000)), Pri: float64(rng.Intn(8))}
			pushed.Push(es[i])
		}
		var built Lazy
		built.Init(es)
		for pushed.Len() > 0 {
			a, _ := pushed.Pop()
			b, ok := built.Pop()
			if !ok || a != b {
				t.Fatalf("trial %d: Init drained %v, pushes %v", trial, b, a)
			}
		}
		if built.Len() != 0 {
			t.Fatalf("trial %d: Init kept %d extra entries", trial, built.Len())
		}
	}
}

func TestLazyHeapRandomDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var l Lazy
	n := 2000
	for i := 0; i < n; i++ {
		l.Push(LazyEntry{Key: int32(rng.Intn(500)), Pri: rng.Float64()})
	}
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
	l.Push(LazyEntry{Key: 9, Pri: 1})
	if e, ok := l.Top(); !ok || e.Key != 9 || l.Len() != 1 {
		t.Fatal("Top should not remove")
	}
}
