// Package lru is the repo's one bounded least-recently-used map. The
// model's encode cache, the replica's SQL→plans cache and the fleet
// router's affinity memo all sit on it.
package lru

import "sync"

// Cache is a mutex-guarded LRU map holding at most a fixed number of
// entries. All methods are safe for concurrent use. Values are stored
// as given: a pointer value is shared with every Get that returns it.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	root  node[K, V] // recency ring sentinel: root.next is the most recently used
	items map[K]*node[K, V]
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty cache that holds up to capacity entries.
// capacity must be positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		panic("lru: capacity must be positive")
	}
	c := &Cache[K, V]{cap: capacity, items: make(map[K]*node[K, V], capacity)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(n)
	return n.val, true
}

// Add caches v under k as the most recently used entry, replacing any
// value already there, and evicts the least recently used entry when
// the cache is over capacity.
func (c *Cache[K, V]) Add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[k]; ok {
		n.val = v
		c.moveToFront(n)
		return
	}
	n := &node[K, V]{key: k, val: v}
	c.items[k] = n
	c.link(n)
	if len(c.items) > c.cap {
		lru := c.root.prev
		c.unlink(lru)
		delete(c.items, lru.key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Values returns a snapshot of the cached values, most recently used
// first, without changing the recency order.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.items))
	for n := c.root.next; n != &c.root; n = n.next {
		out = append(out, n.val)
	}
	return out
}

// link inserts n at the front of the recency ring.
func (c *Cache[K, V]) link(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	c.root.next.prev = n
	c.root.next = n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(n *node[K, V]) {
	if c.root.next == n {
		return
	}
	c.unlink(n)
	c.link(n)
}
