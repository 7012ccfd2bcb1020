package engine

// segLRU is the byte-budgeted segmented LRU behind the bitmap, partial
// and result cache layers. Entries live in one of two segments:
//
//   - probation: every new key enters here, at the most-recently-used
//     end. Its bytes are capped at 1/8 of the budget; over the cap its
//     least-recently-used entries are evicted. (An entry larger than the
//     cap is still admitted, alone.)
//   - protected: a key's first hit moves it here, and later hits move it
//     to the front again. The segment holds the rest of the budget; over
//     it, its least-recently-used entries are demoted back to the front of
//     probation, not evicted.
//
// A query stream in which most keys are never asked for again (distinct
// predicates, one-off ranges) therefore churns through probation only
// and cannot push out entries that have been hit. Admission never evicts a
// protected entry: when a new entry does not fit next to the protected
// segment, probation is emptied, the new entry included. Re-storing a
// resident key replaces its value and size in place and keeps its
// segment. The total never exceeds the budget.
//
// segLRU is not safe for concurrent use; the owning cache's mutex guards
// it. The zero value is an empty cache with a zero budget that stores
// nothing.
type segLRU[K comparable, V any] struct {
	entries   map[K]*slruEntry[K, V]
	probation slruList[K, V]
	protected slruList[K, V]
	maxBytes  int
	evictions uint64 // entries dropped for lack of room
}

type slruEntry[K comparable, V any] struct {
	key        K
	val        V
	bytes      int
	protected  bool
	prev, next *slruEntry[K, V] // prev is more recently used
}

// slruList is one segment: a doubly linked list from most (head) to least
// (tail) recently used, with its byte total.
type slruList[K comparable, V any] struct {
	head, tail *slruEntry[K, V]
	len, bytes int
}

func (l *slruList[K, V]) pushFront(e *slruEntry[K, V]) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	} else {
		l.tail = e
	}
	l.head = e
	l.len++
	l.bytes += e.bytes
}

func (l *slruList[K, V]) unlink(e *slruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.len--
	l.bytes -= e.bytes
}

func (c *segLRU[K, V]) segment(e *slruEntry[K, V]) *slruList[K, V] {
	if e.protected {
		return &c.protected
	}
	return &c.probation
}

// probationCap is the probation segment's byte cap: 1/8 of the budget.
func (c *segLRU[K, V]) probationCap() int { return c.maxBytes / 8 }

// bytes is the total charge of the resident entries, both segments.
func (c *segLRU[K, V]) bytes() int { return c.probation.bytes + c.protected.bytes }

// get returns the value stored under k without counting it as a hit, so
// the caller can check it is still valid first (and then call hit or
// remove).
func (c *segLRU[K, V]) get(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// hit records a use of k: a probation entry is promoted to the protected
// segment, a protected one moves to its front.
func (c *segLRU[K, V]) hit(k K) {
	e, ok := c.entries[k]
	if !ok {
		return
	}
	c.segment(e).unlink(e)
	e.protected = true
	c.protected.pushFront(e)
	c.trim()
}

// put stores v under k with the given byte charge. An entry over the
// whole budget is not stored (and replaces nothing: a resident value for k
// is removed).
func (c *segLRU[K, V]) put(k K, v V, nbytes int) {
	if nbytes > c.maxBytes {
		c.remove(k)
		return
	}
	if c.entries == nil {
		c.entries = make(map[K]*slruEntry[K, V])
	}
	if e, ok := c.entries[k]; ok {
		seg := c.segment(e)
		seg.unlink(e)
		e.val, e.bytes = v, nbytes
		seg.pushFront(e)
	} else {
		e := &slruEntry[K, V]{key: k, val: v, bytes: nbytes}
		c.entries[k] = e
		c.probation.pushFront(e)
	}
	c.trim()
}

// remove drops k if it is resident. It is not counted as an eviction.
func (c *segLRU[K, V]) remove(k K) {
	if e, ok := c.entries[k]; ok {
		c.segment(e).unlink(e)
		delete(c.entries, k)
	}
}

// setMaxBytes changes the budget and evicts down to it; 0 empties the
// cache and keeps it empty.
func (c *segLRU[K, V]) setMaxBytes(n int) {
	c.maxBytes = n
	c.trim()
}

// clear drops every entry without counting evictions.
func (c *segLRU[K, V]) clear() {
	c.entries = nil
	c.probation = slruList[K, V]{}
	c.protected = slruList[K, V]{}
}

// trim restores the segment bounds: protected overflow is demoted to the
// front of probation, probation overflow is evicted from its tail, and if
// the total is still over budget (a lone entry larger than its segment's
// share), probation is evicted further.
func (c *segLRU[K, V]) trim() {
	for c.protected.bytes > c.maxBytes-c.probationCap() && c.protected.len > 1 {
		e := c.protected.tail
		c.protected.unlink(e)
		e.protected = false
		c.probation.pushFront(e)
	}
	for c.probation.bytes > c.probationCap() && c.probation.len > 1 {
		c.evict(c.probation.tail)
	}
	for c.bytes() > c.maxBytes && c.probation.len > 0 {
		c.evict(c.probation.tail)
	}
	for c.protected.bytes > c.maxBytes && c.protected.len > 0 {
		c.evict(c.protected.tail) // a lone entry the budget shrank below
	}
}

func (c *segLRU[K, V]) evict(e *slruEntry[K, V]) {
	c.segment(e).unlink(e)
	delete(c.entries, e.key)
	c.evictions++
}
