package core

import (
	"container/list"
	"context"
	"strconv"
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
// (DefaultCacheSize if size <= 0). A nil metrics bundle disables the
// cache's metrics.
func NewCache(size int, m *CacheMetrics) *Cache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	if m == nil {
		m = &CacheMetrics{} // nil instruments: every record is a no-op
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

// do returns the memoized value for key kb, joining an in-flight measurement
// when one exists and otherwise leading one via measure. The L1 and
// flight probes index the maps with string(kb), which copies nothing;
// the key string is allocated only by a leader, which stores it.
//
// Metric discipline: the hit, miss and coalesced counters are bumped in
// the same critical section as the map state they describe, so a /metrics
// scrape can never observe hits+misses smaller than the lookups already
// answered (the counters may run ahead of returns, never behind the
// cache's visible state).
func (c *Cache) do(ctx context.Context, kb []byte, measure func() (float64, error)) (float64, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[string(kb)]; ok {
			perf := c.hitLocked(el)
			c.mu.Unlock()
			return perf, nil
		}
		if f, ok := c.flights[string(kb)]; ok {
			c.m.Coalesced.Inc()
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			if f.err == nil {
				c.m.Hits.Inc()
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
		key := string(kb)
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
			c.m.Hits.Inc()
			c.mu.Unlock()
			close(f.done)
			return perf, nil
		}

		c.m.Inflight.Inc()
		perf, err := measure()
		c.m.Inflight.Dec()
		f.perf, f.err = perf, err

		c.mu.Lock()
		delete(c.flights, key)
		if err == nil {
			c.storeLocked(key, perf)
		}
		c.m.Misses.Inc()
		c.mu.Unlock()
		close(f.done)
		if err == nil {
			c.storePut(key, perf)
		}
		return perf, err
	}
}

// hitLocked serves an L1 entry: it becomes the most recently used and
// counts a hit. Caller holds c.mu.
func (c *Cache) hitLocked(el *list.Element) float64 {
	c.order.MoveToFront(el)
	c.m.Hits.Inc()
	return el.Value.(*cacheEntry).perf
}

// probe serves key from L1 alone, without allocating: string(key) in the
// map index copies nothing. It is the batch path's first probe, which
// most draws end at; a miss goes on to lookupStore with the key string.
func (c *Cache) probe(key []byte) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		return c.hitLocked(el), true
	}
	return 0, false
}

// lookup probes both cache tiers for key without joining or leading a
// flight; a disk hit is promoted into L1. The batched collector
// separates hits from misses up front (probe, then lookupStore), then
// measures all misses in one core-sharded pass and settles their
// duplicates with lookup.
func (c *Cache) lookup(key string) (float64, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		perf := c.hitLocked(el)
		c.mu.Unlock()
		return perf, true
	}
	c.mu.Unlock()
	return c.lookupStore(key)
}

// lookupStore is lookup's L2 half, for a key L1 just missed.
func (c *Cache) lookupStore(key string) (float64, bool) {
	if perf, ok := c.storeGet(key); ok {
		c.mu.Lock()
		c.storeLocked(key, perf)
		c.m.Hits.Inc()
		c.mu.Unlock()
		return perf, true
	}
	return 0, false
}

// insert records a chunk's successful batch measurements in both tiers:
// L1 one entry at a time, L2 in one write (storePutBatch).
func (c *Cache) insert(keys []string, perfs []float64) {
	c.mu.Lock()
	for i, key := range keys {
		c.storeLocked(key, perfs[i])
		c.m.Misses.Inc()
	}
	c.mu.Unlock()
	c.storePutBatch(keys, perfs)
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
		c.m.Evictions.Inc()
	}
	c.m.Size.Set(float64(c.order.Len()))
}

// CachedRunner wraps a measurement runner with canonical-form memoization
// against a Cache. It is a ContextRunner, so it slots anywhere in the
// middleware stack, and a Runner, so it can back a remote.Server. The
// intended position is directly around the real testbed (inside retries
// and journaling), so every layer above still sees one measurement per
// draw.
//
// Memoization assumes the wrapped runner is class-deterministic:
// symmetric assignments measure identically (true for the simulated
// testbeds, whose noise is keyed on the canonical form, and for noise-free
// models). For a noisy physical testbed where independent samples of one
// class are wanted, disable the cache.
type CachedRunner struct {
	inner  ContextRunner
	cache  *Cache
	prefix string // identity + "\x1f"
}

// keyBytes sizes the stack buffer a cache key renders into: a testbed
// identity, the shape and a full T2's canonical form fit, and longer keys
// move to the heap.
const keyBytes = 320

// NewCachedContextRunner wraps inner. identity names the measured system
// (testbed, app, seed — see netdps.Testbed.Identity); it becomes part of
// every key so distinct testbeds sharing one Cache never serve each
// other's results.
func NewCachedContextRunner(inner ContextRunner, cache *Cache, identity string) *CachedRunner {
	return &CachedRunner{inner: inner, cache: cache, prefix: identity + "\x1f"}
}

// Measure implements Runner with a background context, so a CachedRunner
// can back a remote.Server.
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
	var buf [keyBytes]byte
	return r.cache.do(ctx, r.appendKey(buf[:0], a), func() (float64, error) {
		return r.inner.MeasureContext(ctx, a)
	})
}

// appendKey appends the full cache key to dst: identity, topology shape,
// canonical form. The shape is required because CanonicalKey's output
// alone does not pin the topology (the same task grouping can arise on
// machines with different pipe/core structure).
func (r *CachedRunner) appendKey(dst []byte, a assign.Assignment) []byte {
	dst = append(dst, r.prefix...)
	dst = strconv.AppendInt(dst, int64(a.Topo.Cores), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(a.Topo.PipesPerCore), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(a.Topo.ContextsPerPipe), 10)
	dst = append(dst, 0x1f)
	return a.AppendCanonicalKey(dst)
}

var _ Runner = (*CachedRunner)(nil)
var _ ContextRunner = (*CachedRunner)(nil)
