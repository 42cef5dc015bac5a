package jobs

import (
	"container/list"

	"matchsim/api"
)

// ResultCache is a small LRU keyed by the content address of a submission
// (see Key). Identical resubmissions are answered from it with zero new
// cost-function evaluations; the Manager and the cluster coordinator each
// keep one. It is not internally synchronised — owners call it under
// their own lock.
type ResultCache struct {
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	key    string
	result api.JobResult
}

// NewResultCache builds a cache holding up to cap entries; cap <= 0
// disables caching entirely.
func NewResultCache(cap int) *ResultCache {
	return &ResultCache{
		cap:     cap,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the result cached under key, marking it most recently used.
func (c *ResultCache) Get(key string) (api.JobResult, bool) {
	el, ok := c.entries[key]
	if !ok {
		return api.JobResult{}, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	// Copy the mapping so callers can't mutate the cached slice.
	res := e.result
	res.Mapping = append([]int(nil), e.result.Mapping...)
	return res, true
}

// Put caches res under key, evicting the least recently used entry when
// the cache is full.
func (c *ResultCache) Put(key string, res api.JobResult) {
	if c.cap <= 0 {
		return
	}
	res.Mapping = append([]int(nil), res.Mapping...)
	res.CacheHit = false
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).result = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, result: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int { return c.order.Len() }
