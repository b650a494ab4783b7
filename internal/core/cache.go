package core

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"

	"optassign/internal/assign"
)

// Cache memoizes measured performance by canonical assignment form. The
// paper's symmetry argument (§3.2) is what makes this sound: performance
// depends only on which tasks share a pipe, a core and the chip — the
// equivalence class rendered by assign.CanonicalKey — never on the
// physical context indices. Random sampling over the full assignment
// population draws many structural duplicates (the population is V!/(V−N)!
// assignments but far fewer canonical classes), and every duplicate served
// from the cache is a testbed run saved.
//
// The cache is safe for concurrent use by PoolRunner workers and
// single-flight: when several workers draw the same canonical class at
// once, one leader measures while the rest wait for its result instead of
// re-measuring. Only successful measurements are stored — errors and
// quarantines always propagate to every caller and are re-tried by the
// next draw, which keeps fault handling (and journal bytes) identical with
// the cache on or off. Entries are LRU-bounded.
//
// One Cache may back runners for different testbeds and topologies: every
// key carries the owning runner's identity string and topology shape, so a
// hit can never cross testbeds.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flights map[string]*flight
	store   CacheStore // optional persistent L2 tier; see diskcache.go
	m       *CacheMetrics
}

type cacheEntry struct {
	key  string
	perf float64
}

// flight is one in-progress measurement other callers of the same key can
// wait on. perf/err are written before done is closed and read only after.
type flight struct {
	done chan struct{}
	perf float64
	err  error
}

// DefaultCacheSize bounds a cache built with size <= 0. At ~100 bytes per
// entry this caps memory in the tens of megabytes while comfortably
// holding every class of the case-study samples (a few thousand draws).
const DefaultCacheSize = 1 << 18

// NewCache builds a measurement cache holding at most size entries
// (DefaultCacheSize if size <= 0). The metrics bundle may be nil.
func NewCache(size int, m *CacheMetrics) *Cache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Cache{
		cap:     size,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		flights: make(map[string]*flight),
		m:       m,
	}
}

// Len reports the number of memoized entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// do returns the memoized value for key, joining an in-flight measurement
// when one exists and otherwise leading one via measure.
//
// Metric discipline: the hit, miss and coalesced counters are bumped in
// the same critical section as the map state they describe, so a /metrics
// scrape can never observe hits+misses smaller than the lookups already
// answered (the counters may run ahead of returns, never behind the
// cache's visible state).
func (c *Cache) do(ctx context.Context, key string, measure func() (float64, error)) (float64, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			perf := el.Value.(*cacheEntry).perf
			c.m.hits().Inc()
			c.mu.Unlock()
			return perf, nil
		}
		if f, ok := c.flights[key]; ok {
			c.m.coalesced().Inc()
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			if f.err == nil {
				c.m.hits().Inc()
				return f.perf, nil
			}
			// The leader failed. Its error belongs to its own draw; this
			// caller re-enters the loop and measures for itself (becoming
			// the next leader), unless its context is gone.
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		// Leading. The persistent tier answers before the testbed does: a
		// class measured by any prior process sharing the store resolves
		// the whole flight without a simulation.
		if perf, ok := c.storeGet(key); ok {
			f.perf, f.err = perf, nil
			c.mu.Lock()
			delete(c.flights, key)
			c.storeLocked(key, perf) // promote into L1
			c.m.hits().Inc()
			c.mu.Unlock()
			close(f.done)
			return perf, nil
		}

		c.m.inflight().Inc()
		perf, err := measure()
		c.m.inflight().Dec()
		f.perf, f.err = perf, err

		c.mu.Lock()
		delete(c.flights, key)
		if err == nil {
			c.storeLocked(key, perf)
		}
		c.m.misses().Inc()
		c.mu.Unlock()
		close(f.done)
		if err == nil {
			c.storePut(key, perf)
		}
		return perf, err
	}
}

// lookup probes both cache tiers for key without joining or leading a
// flight; a disk hit is promoted into L1. It is the batch path's probe:
// the batched collector separates hits from misses up front, then
// measures all misses in one core-sharded pass.
func (c *Cache) lookup(key string) (float64, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		perf := el.Value.(*cacheEntry).perf
		c.m.hits().Inc()
		c.mu.Unlock()
		return perf, true
	}
	c.mu.Unlock()
	if perf, ok := c.storeGet(key); ok {
		c.mu.Lock()
		c.storeLocked(key, perf)
		c.m.hits().Inc()
		c.mu.Unlock()
		return perf, true
	}
	return 0, false
}

// insert records a successful batch measurement in both tiers.
func (c *Cache) insert(key string, perf float64) {
	c.mu.Lock()
	c.storeLocked(key, perf)
	c.m.misses().Inc()
	c.mu.Unlock()
	c.storePut(key, perf)
}

// storeLocked inserts key into the LRU, evicting the coldest entry when
// over capacity. Caller holds c.mu.
func (c *Cache) storeLocked(key string, perf float64) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, perf: perf})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.m.evictions().Inc()
	}
	c.m.size().Set(float64(c.order.Len()))
}

// CachedRunner wraps a measurement runner with canonical-form memoization
// against a Cache. It implements both Runner and ContextRunner, so it
// slots anywhere in the middleware stack; the intended position is
// directly around the real testbed (inside retries and journaling), so
// every layer above still sees one measurement per draw.
//
// Memoization assumes the wrapped runner is class-deterministic:
// symmetric assignments measure identically (true for the simulated
// testbeds, whose noise is keyed on the canonical form, and for noise-free
// models). For a noisy physical testbed where independent samples of one
// class are wanted, disable the cache.
type CachedRunner struct {
	inner  ContextRunner
	cache  *Cache
	prefix string // identity + topology shape, precomputed
}

// NewCachedRunner wraps a legacy Runner. identity names the measured
// system (testbed, app, seed — see netdps.Testbed.Identity); it becomes
// part of every key so distinct testbeds sharing one Cache never serve
// each other's results.
func NewCachedRunner(inner Runner, cache *Cache, identity string) *CachedRunner {
	return NewCachedContextRunner(AsContextRunner(inner), cache, identity)
}

// NewCachedContextRunner wraps a ContextRunner; see NewCachedRunner.
func NewCachedContextRunner(inner ContextRunner, cache *Cache, identity string) *CachedRunner {
	return &CachedRunner{inner: inner, cache: cache, prefix: identity + "\x1f"}
}

// Measure implements Runner.
func (r *CachedRunner) Measure(a assign.Assignment) (float64, error) {
	return r.MeasureContext(context.Background(), a)
}

// MeasureContext implements ContextRunner: a hit returns the memoized
// performance without touching the wrapped runner; a miss measures (at
// most once per key machine-wide, thanks to single-flight) and memoizes on
// success.
func (r *CachedRunner) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	if r.cache == nil {
		return r.inner.MeasureContext(ctx, a)
	}
	return r.cache.do(ctx, r.key(a), func() (float64, error) {
		return r.inner.MeasureContext(ctx, a)
	})
}

// key renders the full cache key: identity, topology shape, canonical
// form. The shape is required because CanonicalKey's output alone does not
// pin the topology (the same task grouping can arise on machines with
// different pipe/core structure).
func (r *CachedRunner) key(a assign.Assignment) string {
	ck := a.CanonicalKey()
	var b strings.Builder
	b.Grow(len(r.prefix) + len(ck) + 16)
	b.WriteString(r.prefix)
	b.WriteString(strconv.Itoa(a.Topo.Cores))
	b.WriteByte('x')
	b.WriteString(strconv.Itoa(a.Topo.PipesPerCore))
	b.WriteByte('x')
	b.WriteString(strconv.Itoa(a.Topo.ContextsPerPipe))
	b.WriteByte(0x1f)
	b.WriteString(ck)
	return b.String()
}

var _ Runner = (*CachedRunner)(nil)
var _ ContextRunner = (*CachedRunner)(nil)
