package bind

// lru is a bounded map that evicts its least recently used entry: the one
// cache discipline behind Cache's routes, destEngine's and ShardTable's
// distance fields, and SummaryOracle's summary distances. Eviction order
// never changes what a lookup returns, only whether it is recomputed.
type lru[K comparable, V any] struct {
	cap        int
	m          map[K]*lruEntry[K, V]
	head, tail *lruEntry[K, V] // most / least recently used
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{cap: capacity, m: make(map[K]*lruEntry[K, V])}
}

// get returns the value under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	e, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// put inserts k (which must be absent) as the most recently used entry,
// evicting the least recently used one when over capacity.
func (c *lru[K, V]) put(k K, v V) {
	e := &lruEntry[K, V]{key: k, val: v}
	c.m[k] = e
	c.pushFront(e)
	if len(c.m) > c.cap {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.key)
	}
}

func (c *lru[K, V]) len() int { return len(c.m) }

// clear drops every entry.
func (c *lru[K, V]) clear() {
	c.m = make(map[K]*lruEntry[K, V])
	c.head, c.tail = nil, nil
}

func (c *lru[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lru[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
