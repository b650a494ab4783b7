package core

// This file layers a persistent second tier under the in-memory LRU
// measurement cache. The LRU (L1) answers within a process; a CacheStore
// (L2, in practice internal/cas.Store) answers across processes and across
// campaign lifetimes: a canonical class measured by any prior run sharing
// the store directory is promoted into L1 and served without touching the
// testbed.
//
// Tier protocol, per lookup key:
//
//  1. L1 hit  → serve (optassign_cache_hits_total).
//  2. In-flight leader exists → join it (coalesced).
//  3. Lead a flight; probe L2. A disk hit resolves the flight without
//     measuring: promote into L1, count a cache hit plus a disk hit.
//  4. Disk miss → measure. Success populates L1 and writes through to L2.
//
// L2 failures are never fatal to a measurement: a store that cannot be
// read or written degrades the cache to L1-only for that lookup, counted
// on optassign_diskcache_errors_total. Only successful measurements are
// written through — errors and quarantines stay un-memoized at both
// tiers, exactly as for L1, so journal bytes are identical with the disk
// tier on or off.

// A CacheStore is a persistent key→performance map used as the L2 tier of
// a Cache. Implementations must be safe for concurrent use; cas.Store is
// the canonical one. Get reports whether the key is present; Put persists
// a value durably (it may be a no-op for keys already present); Bytes
// reports the store's on-disk footprint for the
// optassign_diskcache_bytes gauge.
type CacheStore interface {
	Get(key string) (float64, bool)
	Put(key string, perf float64) error
	Bytes() int64
}

// BatchCacheStore is the optional capability of a CacheStore to persist
// several values in one group commit whose fsync runs beside the caller.
// The batch path type-asserts for it, as it probes a source for
// BatchMeasurer, so a chunk's misses share one append and chunks share
// fsyncs; a store without it gets one Put per value. PutBatch appends
// and may return before the values are durable; Sync blocks until every
// value appended before the call is durable and returns the first
// failure since the previous Sync. The measurer calls Sync before a
// chunk's outcomes reach a commit func and before a batched sample,
// campaign or MeasureBatchContext returns. cas.Store has it.
type BatchCacheStore interface {
	PutBatch(keys []string, perfs []float64) error
	Sync() error
}

// AttachStore layers store under the LRU as a persistent L2 tier. Pass
// nil to detach. Attach before the cache is in use; the store pointer is
// read without synchronization on hot paths.
func (c *Cache) AttachStore(store CacheStore) {
	c.store = store
}

// storeGet probes the L2 tier. It reports (0, false) when no store is
// attached; disk hits and misses are counted only when a store exists, so
// L1-only configurations publish no diskcache series movement.
func (c *Cache) storeGet(key string) (float64, bool) {
	if c.store == nil {
		return 0, false
	}
	perf, ok := c.store.Get(key)
	if ok {
		c.m.DiskHits.Inc()
	} else {
		c.m.DiskMisses.Inc()
	}
	return perf, ok
}

// storePut writes a successful measurement through to the L2 tier. Store
// errors are counted, not propagated: the measurement already succeeded,
// and a broken disk cache must not fail the campaign.
func (c *Cache) storePut(key string, perf float64) {
	if c.store == nil {
		return
	}
	if err := c.store.Put(key, perf); err != nil {
		c.m.DiskErrors.Inc()
		return
	}
	c.m.DiskBytes.Set(float64(c.store.Bytes()))
}

// storePutBatch writes a chunk's successful measurements through to the
// L2 tier: in one PutBatch, which storeSync makes durable, when the
// store is a BatchCacheStore, one Put per value otherwise. As in
// storePut, each failed write is counted, not propagated.
func (c *Cache) storePutBatch(keys []string, perfs []float64) {
	if c.store == nil || len(keys) == 0 {
		return
	}
	bs, ok := c.store.(BatchCacheStore)
	if !ok {
		for i, key := range keys {
			c.storePut(key, perfs[i])
		}
		return
	}
	if err := bs.PutBatch(keys, perfs); err != nil {
		c.m.DiskErrors.Inc()
		return
	}
	c.m.DiskBytes.Set(float64(c.store.Bytes()))
}

// storeSync waits until every value storePutBatch wrote is durable. A
// failed sync is counted once, not propagated: the values it lost were
// measured, and L1 keeps serving them.
func (c *Cache) storeSync() {
	bs, ok := c.store.(BatchCacheStore)
	if !ok {
		return
	}
	if err := bs.Sync(); err != nil {
		c.m.DiskErrors.Inc()
	}
}
