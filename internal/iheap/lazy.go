package iheap

// Lazy is a max-heap with lazy deletion, used for ROCK's local heaps. It is
// built once by Init and afterwards only shrinks. Instead of removing
// entries in place (which requires a key→position index), consumers filter
// stale entries at the top: ROCK's merged clusters receive new ids and dead
// ids never revive, so staleness is a cheap liveness test on the consumer
// side.
//
// Ordering is deterministic: priority descending, then key ascending.
type Lazy struct {
	es []LazyEntry
}

// LazyEntry is one heap element: a target key and its priority.
type LazyEntry struct {
	Key int32
	Pri float64
}

func lazyLess(a, b LazyEntry) bool {
	if a.Pri != b.Pri {
		return a.Pri < b.Pri
	}
	return a.Key > b.Key
}

// Len returns the number of entries, including stale ones.
func (l *Lazy) Len() int { return len(l.es) }

// Init replaces the heap's contents with es, which the heap takes ownership
// of, and orders them in O(len(es)).
func (l *Lazy) Init(es []LazyEntry) {
	l.es = es
	for i := len(es)/2 - 1; i >= 0; i-- {
		l.down(i)
	}
}

// Entries returns the heap's entries, stale ones included, in heap order.
// The slice is the heap's own and must not be modified.
func (l *Lazy) Entries() []LazyEntry { return l.es }

// Top returns the maximum entry without removing it.
func (l *Lazy) Top() (LazyEntry, bool) {
	if len(l.es) == 0 {
		return LazyEntry{}, false
	}
	return l.es[0], true
}

// Pop removes and returns the maximum entry.
func (l *Lazy) Pop() (LazyEntry, bool) {
	if len(l.es) == 0 {
		return LazyEntry{}, false
	}
	top := l.es[0]
	last := len(l.es) - 1
	l.es[0] = l.es[last]
	l.es = l.es[:last]
	l.down(0)
	return top, true
}

// down sifts entry i toward the leaves.
func (l *Lazy) down(i int) {
	n := len(l.es)
	for {
		lc, rc := 2*i+1, 2*i+2
		if lc >= n {
			return
		}
		c := lc
		if rc < n && lazyLess(l.es[lc], l.es[rc]) {
			c = rc
		}
		if !lazyLess(l.es[i], l.es[c]) {
			return
		}
		l.es[i], l.es[c] = l.es[c], l.es[i]
		i = c
	}
}
