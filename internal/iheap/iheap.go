// Package iheap implements the heaps that ROCK's clustering algorithm
// (Figure 3 of the paper) relies on. The global heap Q needs, beyond the
// usual push/pop-max, deletion and priority update of an arbitrary element
// identified by a cluster id — operations container/heap does not expose
// directly — so Heap is implemented from scratch with an id→position index.
// Each of Q's entries also carries the partner of the cluster's best merge,
// which breaks priority ties. The per-cluster local heaps q[i] never gain
// entries once built and only lose dead ones, so they use the lighter
// lazy-deletion Lazy, heapified once by Init.
package iheap

import "fmt"

type entry struct {
	key, partner int
	pri          float64
}

// Heap is a max-heap of (key, priority, partner) triples supporting
// O(log n) push, pop-max, remove-by-key and update-by-key. Keys must be
// unique within a heap and non-negative: the position index is a dense
// slice addressed by key, sized to the largest key pushed, which suits keys
// drawn from a compact id space such as ROCK's cluster ids (< 2n). The
// partner is an arbitrary int the caller attaches to the key. Ties in
// priority are broken by smaller partner, then by smaller key, which makes
// every consumer of the heap deterministic.
type Heap struct {
	es  []entry
	pos []int32 // key -> 1 + index in es; 0 = absent
}

// New returns an empty heap.
func New() *Heap {
	return &Heap{}
}

// NewWithCapacity returns an empty heap with preallocated space for n items
// with keys below n.
func NewWithCapacity(n int) *Heap {
	return &Heap{es: make([]entry, 0, n), pos: make([]int32, n)}
}

// Len returns the number of elements in the heap.
func (h *Heap) Len() int { return len(h.es) }

// Empty reports whether the heap has no elements.
func (h *Heap) Empty() bool { return len(h.es) == 0 }

// index returns the position of key in es, or -1 when absent.
func (h *Heap) index(key int) int {
	if key < 0 || key >= len(h.pos) {
		return -1
	}
	return int(h.pos[key]) - 1
}

// Has reports whether key is present.
func (h *Heap) Has(key int) bool { return h.index(key) >= 0 }

// Priority returns the priority and partner of key and whether it is
// present.
func (h *Heap) Priority(key int) (pri float64, partner int, ok bool) {
	i := h.index(key)
	if i < 0 {
		return 0, 0, false
	}
	return h.es[i].pri, h.es[i].partner, true
}

// Push inserts key with the given priority and partner. It panics if key is
// negative or already in the heap; use Update to change an existing entry.
func (h *Heap) Push(key int, pri float64, partner int) {
	if key < 0 {
		panic(fmt.Sprintf("iheap: negative key %d", key))
	}
	if h.index(key) >= 0 {
		panic(fmt.Sprintf("iheap: duplicate key %d", key))
	}
	if key >= len(h.pos) {
		h.pos = append(h.pos, make([]int32, key+1-len(h.pos))...)
	}
	h.es = append(h.es, entry{key, partner, pri})
	h.pos[key] = int32(len(h.es))
	h.up(len(h.es) - 1)
}

// Max returns the key, priority and partner of the maximum element without
// removing it. ok is false when the heap is empty.
func (h *Heap) Max() (key int, pri float64, partner int, ok bool) {
	if len(h.es) == 0 {
		return 0, 0, 0, false
	}
	e := h.es[0]
	return e.key, e.pri, e.partner, true
}

// PopMax removes and returns the maximum element. ok is false when empty.
func (h *Heap) PopMax() (key int, pri float64, partner int, ok bool) {
	if len(h.es) == 0 {
		return 0, 0, 0, false
	}
	e := h.es[0]
	h.removeAt(0)
	return e.key, e.pri, e.partner, true
}

// Remove deletes key from the heap, reporting whether it was present.
func (h *Heap) Remove(key int) bool {
	i := h.index(key)
	if i < 0 {
		return false
	}
	h.removeAt(i)
	return true
}

// Update changes the priority and partner of key, reporting whether it was
// present.
func (h *Heap) Update(key int, pri float64, partner int) bool {
	i := h.index(key)
	if i < 0 {
		return false
	}
	old := h.es[i]
	h.es[i].pri, h.es[i].partner = pri, partner
	if h.less(old, h.es[i]) {
		h.up(i)
	} else {
		h.down(i)
	}
	return true
}

// Upsert sets the priority and partner of key, inserting it if absent.
func (h *Heap) Upsert(key int, pri float64, partner int) {
	if !h.Update(key, pri, partner) {
		h.Push(key, pri, partner)
	}
}

// Keys returns the keys currently in the heap, in unspecified order.
func (h *Heap) Keys() []int {
	out := make([]int, len(h.es))
	for i, e := range h.es {
		out[i] = e.key
	}
	return out
}

// less reports whether a has strictly lower heap priority than b
// (max-heap on pri, ties broken toward smaller partner, then smaller key).
func (h *Heap) less(a, b entry) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if a.partner != b.partner {
		return a.partner > b.partner
	}
	return a.key > b.key
}

func (h *Heap) removeAt(i int) {
	last := len(h.es) - 1
	h.pos[h.es[i].key] = 0
	if i != last {
		h.es[i] = h.es[last]
		h.pos[h.es[i].key] = int32(i + 1)
	}
	h.es = h.es[:last]
	if i < len(h.es) {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h *Heap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.pos[h.es[i].key] = int32(i + 1)
	h.pos[h.es[j].key] = int32(j + 1)
}

func (h *Heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.es[p], h.es[i]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts element i toward the leaves, reporting whether it moved.
func (h *Heap) down(i int) bool {
	moved := false
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && h.less(h.es[l], h.es[r]) {
			c = r
		}
		if !h.less(h.es[i], h.es[c]) {
			break
		}
		h.swap(i, c)
		i = c
		moved = true
	}
	return moved
}
