package remoteexec

import (
	"container/list"
	"crypto/sha256"
)

// Key names a broadcast input by content: the SHA-256 of its bytes. The
// zero Key marks an input that travels inline on every request.
type Key [sha256.Size]byte

// KeyOf returns b's content key.
func KeyOf(b []byte) Key { return sha256.Sum256(b) }

// cacheBytes caps the broadcast bytes one connection's cache holds. A
// broadcast input larger than the cap is never cached and travels inline
// with every tile.
const cacheBytes = 256 << 20

// bcastCache is a byte-capped LRU of broadcast inputs, one per connection.
// The worker's cache holds the bytes; the client's is its mirror and holds
// sizes only (nil buffers). Requests serialize on the connection and both
// sides apply the same get/put sequence in input order, so the mirror
// holds exactly the keys the worker does.
type bcastCache struct {
	max   int64
	used  int64
	order *list.List // of *cacheEntry, most recently used first
	byKey map[Key]*list.Element
}

type cacheEntry struct {
	key  Key
	size int64
	buf  []byte
}

func newBcastCache(max int64) *bcastCache {
	return &bcastCache{max: max, order: list.New(), byKey: make(map[Key]*list.Element)}
}

// get returns the entry for k and marks it most recently used.
func (c *bcastCache) get(k Key) (*cacheEntry, bool) {
	el, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores k as the most recently used entry, evicting the least
// recently used ones until it fits. An entry larger than the cap is not
// kept.
func (c *bcastCache) put(k Key, size int64, buf []byte) {
	if el, ok := c.byKey[k]; ok {
		c.order.Remove(el)
		c.used -= el.Value.(*cacheEntry).size
		delete(c.byKey, k)
	}
	if size > c.max {
		return
	}
	for c.used+size > c.max {
		old := c.order.Remove(c.order.Back()).(*cacheEntry)
		c.used -= old.size
		delete(c.byKey, old.key)
	}
	c.byKey[k] = c.order.PushFront(&cacheEntry{key: k, size: size, buf: buf})
	c.used += size
}

// reset empties the cache.
func (c *bcastCache) reset() {
	c.order.Init()
	clear(c.byKey)
	c.used = 0
}
