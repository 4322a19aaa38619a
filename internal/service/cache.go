package service

import (
	"container/list"
	"sync"

	"stems/internal/store"
)

// The content address of a run's result is stems.RunKey — one hashing
// contract shared by this cache, the disk store beneath it, and the
// cluster client's shard routing.

// flight is one in-progress computation of a cache key. Followers wait on
// done; a failed flight leaves err set and followers recompute for
// themselves (errors are never cached).
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// resultCache is a bounded LRU of canonical result bytes keyed by
// stems.RunKey, with single-flight de-duplication: concurrent jobs
// computing the same key run one simulation, the rest wait and share the
// bytes. With a disk store attached it becomes the memory tier of a
// two-tier cache: stored results are written through to disk, and a
// memory miss consults the store before conceding — so a restarted
// daemon (cold memory, warm disk) answers repeat jobs without
// recomputing, byte-identically.
type resultCache struct {
	mu      sync.Mutex
	bound   int
	disk    *store.Store             // nil = memory-only
	entries map[string]*list.Element // key → ll element holding *cacheEntry
	ll      *list.List               // front = most recently used
	flights map[string]*flight
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key  string
	data []byte
}

func newResultCache(bound int, disk *store.Store) *resultCache {
	if bound <= 0 {
		bound = 1
	}
	return &resultCache{
		bound:   bound,
		disk:    disk,
		entries: make(map[string]*list.Element),
		ll:      list.New(),
		flights: make(map[string]*flight),
	}
}

// get returns the cached bytes for key, counting a hit or miss. A
// memory miss falls through to the disk store (when attached); a disk
// hit re-installs the bytes in the memory tier. The disk read runs
// outside c.mu, so lookups of other keys never wait on disk IO.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*cacheEntry).data, true
	}
	c.mu.Unlock()
	var data []byte
	ok := false
	if c.disk != nil {
		data, ok = c.disk.Get(key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.installLocked(key, data)
	return data, true
}

// claim returns the flight for key and whether the caller is its leader.
// The leader must call resolve exactly once; followers wait on
// flight.done.
func (c *resultCache) claim(key string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.flights[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return fl, true
}

// resolve completes a flight: a successful result is written through to
// the disk store (when attached) and stored in the LRU, a failure only
// wakes the followers (they recompute independently — e.g. the leader's
// job was cancelled, which says nothing about the followers' jobs). The
// disk write runs outside c.mu while the flight is still registered, so
// other keys' lookups never wait on it and this key's followers keep
// waiting instead of recomputing.
func (c *resultCache) resolve(key string, fl *flight, data []byte, err error) {
	if err == nil && c.disk != nil {
		// Best-effort: a full or failing disk degrades the daemon to its
		// pre-store behaviour (memory-only), it does not fail the job.
		// The store counts the failure (stemsd_store_put_errors_total).
		_ = c.disk.Put(key, data)
	}
	c.mu.Lock()
	fl.data, fl.err = data, err
	delete(c.flights, key)
	if err == nil {
		c.installLocked(key, data)
	}
	c.mu.Unlock()
	close(fl.done)
}

// installLocked places bytes in the memory tier only: disk hits need no
// write-back, and resolve writes computed results to disk itself.
func (c *resultCache) installLocked(key string, data []byte) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).data = data
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
	for c.ll.Len() > c.bound {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// counters returns cumulative hit/miss counts and the current size.
func (c *resultCache) counters() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// sharedHit records a hit that bypassed get: a follower served by a
// leader's flight avoided a recomputation just like an LRU hit, and the
// /metrics cache-hit counter should say so. The earlier miss the follower
// was charged on its failed get is rolled back so the hit rate reflects
// one miss (the leader's) per computed result.
func (c *resultCache) sharedHit() {
	c.mu.Lock()
	c.hits++
	if c.misses > 0 {
		c.misses--
	}
	c.mu.Unlock()
}
