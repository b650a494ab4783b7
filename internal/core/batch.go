package core

import (
	"context"
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/t2"
)

// This file is the batched measurement path: instead of resolving one
// draw at a time, a whole chunk of draws is probed against the cache at
// once and the unique cache-missing classes are handed to the measurement
// source as a single batch, which the analytic testbed evaluates
// core-sharded (netdps.Testbed.MeasureBatch). Chunks are dispatched and
// settled by the one measurer (PoolRunner.measure), so outcomes commit
// strictly in draw order and journals are byte-identical whether a
// round is measured serially, fanned out, batched, or batched on
// several workers.

// BatchMeasurer is the capability a measurement source exposes to have
// cache misses coalesced into one core-sharded pass instead of being
// measured one by one. Values and errors are index-aligned with as; a
// per-assignment error must not affect its batchmates. netdps.Testbed
// satisfies it structurally. Middleware that adds semantics (retry,
// journaling) deliberately does not: batching through it would change
// how faults present.
type BatchMeasurer interface {
	MeasureBatch(as []assign.Assignment) ([]float64, []error)
}

// DefaultBatchSize is CollectSampleBatched's chunk size when
// BatchOptions.Size is unset: large enough to amortize batch setup and
// keep every core busy, small enough that journal commits stay
// frequent.
const DefaultBatchSize = 64

// BatchOptions sets how the measurer cuts a round into chunks.
type BatchOptions struct {
	// Size, when > 0, is the number of draws a worker takes at a time;
	// a worker that reaches a batch-capable source resolves its chunk
	// in one cache-deduped, core-sharded batch. Unset, every draw is
	// its own chunk and is measured on its own (CollectSampleBatched
	// defaults it to DefaultBatchSize instead). On one worker, chunks
	// are commit units: every outcome of a chunk is journaled before
	// the next chunk starts measuring.
	Size int
	// Metrics observes batch counts and sizes; nil disables.
	Metrics *BatchMetrics
}

// MeasureBatchContext resolves a chunk of assignments through the cache
// tiers and the wrapped source's batch path:
//
//  1. every draw is probed against the LRU and the persistent store;
//  2. the unique canonical classes still missing are measured in ONE
//     batch (core-sharded when the source implements BatchMeasurer,
//     serially otherwise), and successes populate both cache tiers, the
//     persistent one in a single write when the store is a
//     BatchCacheStore, durable before the call returns;
//  3. duplicates of a failed class re-measure individually — exactly the
//     single-flight rule that a leader's error belongs to its own draw
//     while followers measure for themselves.
//
// Results are index-aligned with as and identical, value for value, to
// measuring each assignment with MeasureContext in order.
func (r *CachedRunner) MeasureBatchContext(ctx context.Context, as []assign.Assignment) ([]float64, []error) {
	perfs, errs := r.measureBatch(ctx, as, classKeys{}, nil)
	r.syncStore()
	return perfs, errs
}

// syncStore waits until every value the batch path wrote to r's
// persistent store is durable.
func (r *CachedRunner) syncStore() {
	if r.cache != nil {
		r.cache.storeSync()
	}
}

// measureBatch is MeasureBatchContext recording each batch it measures
// into bm (nil disables). keys, when it holds any, are as's cache keys,
// rendered by the draw stage; otherwise each probe renders its own.
func (r *CachedRunner) measureBatch(ctx context.Context, as []assign.Assignment, keys classKeys, bm *BatchMetrics) ([]float64, []error) {
	perfs := make([]float64, len(as))
	errs := make([]error, len(as))
	if len(as) == 0 {
		return perfs, errs
	}
	src, hasBatch := r.inner.(BatchMeasurer)
	if r.cache == nil {
		// Uncached: no class identity to dedup on, measure everything.
		bm.observe(len(as))
		if hasBatch {
			return src.MeasureBatch(as)
		}
		for i, a := range as {
			perfs[i], errs[i] = r.inner.MeasureContext(ctx, a)
		}
		return perfs, errs
	}

	// Every draw's key renders into one buffer, unless the draw stage
	// rendered it already, and most draws end at its L1 probe; only an L1
	// miss keeps its key as a string, for the L2 probe, the dedup, the
	// insert and the duplicates' lookup. The lists and the map below stay
	// nil until a draw misses both tiers.
	var buf [keyBytes]byte
	kb := buf[:0]
	var uniq, dups []batchMiss // each class's first miss, the rest; in draw order
	var seen map[string]struct{}
	for i, a := range as {
		if keys.offs != nil {
			kb = keys.at(i)
		} else {
			kb = r.appendKey(kb[:0], a)
		}
		if perf, ok := r.cache.probe(kb); ok {
			perfs[i] = perf
			continue
		}
		key := string(kb)
		if perf, ok := r.cache.lookupStore(key); ok {
			perfs[i] = perf
			continue
		}
		if seen == nil {
			seen = make(map[string]struct{})
		}
		if _, dup := seen[key]; dup {
			dups = append(dups, batchMiss{draw: i, key: key})
			continue
		}
		seen[key] = struct{}{}
		uniq = append(uniq, batchMiss{draw: i, key: key})
	}
	if len(uniq) == 0 {
		return perfs, errs
	}

	bm.observe(len(uniq))
	ua := make([]assign.Assignment, len(uniq))
	for j, m := range uniq {
		ua[j] = as[m.draw]
	}
	var uperfs []float64
	var uerrs []error
	if hasBatch {
		uperfs, uerrs = src.MeasureBatch(ua)
	} else {
		uperfs, uerrs = make([]float64, len(ua)), make([]error, len(ua))
		for j, a := range ua {
			uperfs[j], uerrs[j] = r.inner.MeasureContext(ctx, a)
		}
	}
	// The successes go to both tiers in one insert, which appends them to
	// L2 as one batch; the measurer waits for the batch's fsync before
	// any of this chunk's outcomes is committed (round.resolve), so a
	// crash can lose only cache entries of uncommitted draws, which
	// re-measure bit for bit. The insert precedes the duplicates'
	// lookups, which may reach L2 and there wait for that fsync.
	okKeys := make([]string, 0, len(uniq))
	okPerfs := make([]float64, 0, len(uniq))
	for j, m := range uniq {
		perfs[m.draw], errs[m.draw] = uperfs[j], uerrs[j]
		if uerrs[j] == nil {
			okKeys = append(okKeys, m.key)
			okPerfs = append(okPerfs, uperfs[j])
		}
	}
	r.cache.insert(okKeys, okPerfs)

	for _, m := range dups {
		// A duplicate whose class leader ran in this batch: a success is
		// in the cache now; a failure means this draw measures for itself.
		if perf, ok := r.cache.lookup(m.key); ok {
			perfs[m.draw] = perf
			continue
		}
		perfs[m.draw], errs[m.draw] = r.MeasureContext(ctx, as[m.draw])
	}
	return perfs, errs
}

// batchMiss is a draw of a chunk that missed both cache tiers.
type batchMiss struct {
	draw int
	key  string
}

// CollectSampleBatched is CollectSampleContext measured on runner in
// cache-deduped, core-sharded chunks of opts.Size draws (DefaultBatchSize
// if unset), with commit (optional) observing every success and
// quarantine in draw order. Draws, results, skipped and commits are
// exactly a serial run's.
func CollectSampleBatched(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, runner *CachedRunner, opts BatchOptions, commit CommitFunc) (results []SampleResult, skipped []Skipped, err error) {
	if runner == nil {
		return nil, nil, fmt.Errorf("core: nil runner")
	}
	return collectSample(ctx, rng, topo, tasks, n, onePool(runner), opts.withDefaultSize(), commit)
}

func (o BatchOptions) withDefaultSize() BatchOptions {
	if o.Size <= 0 {
		o.Size = DefaultBatchSize
	}
	return o
}
