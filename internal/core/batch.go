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
// satisfies it structurally.
type BatchMeasurer interface {
	MeasureBatch(as []assign.Assignment) ([]float64, []error)
}

// DefaultBatchSize is IterateBatched's and CollectSampleBatched's chunk
// size when BatchOptions.Size is unset: large enough to amortize batch
// setup and keep every core busy, small enough that journal commits stay
// frequent.
const DefaultBatchSize = 64

// BatchOptions sets how the measurer cuts a round into chunks.
type BatchOptions struct {
	// Size, when > 0, is the number of draws a worker takes at a time;
	// a worker that reaches a batch-capable source resolves its chunk
	// in one cache-deduped, core-sharded batch. Unset, every draw is
	// its own chunk and is measured on its own (IterateBatched and
	// CollectSampleBatched default it to DefaultBatchSize instead). On
	// one worker, chunks are commit units: every outcome of a chunk is
	// journaled before the next chunk starts measuring.
	Size int
	// Metrics observes batch counts and sizes; nil disables.
	Metrics *BatchMetrics
}

// batchMeasurerOf extracts the batch capability from a runner stack,
// looking through the package's own interface adapters. Middleware that
// adds semantics (retry, journaling) deliberately hides the capability:
// batching through it would change how faults present.
func batchMeasurerOf(r any) (BatchMeasurer, bool) {
	for {
		if bm, ok := r.(BatchMeasurer); ok {
			return bm, true
		}
		switch v := r.(type) {
		case legacyRunner:
			r = v.r
		case contextOnlyRunner:
			r = v.cr
		default:
			return nil, false
		}
	}
}

// MeasureBatchContext resolves a chunk of assignments through the cache
// tiers and the wrapped source's batch path:
//
//  1. every draw is probed against the LRU and the persistent store;
//  2. the unique canonical classes still missing are measured in ONE
//     batch (core-sharded when the source implements BatchMeasurer,
//     serially otherwise), and successes populate both cache tiers;
//  3. duplicates of a failed class re-measure individually — exactly the
//     single-flight rule that a leader's error belongs to its own draw
//     while followers measure for themselves.
//
// Results are index-aligned with as and identical, value for value, to
// measuring each assignment with MeasureContext in order.
func (r *CachedRunner) MeasureBatchContext(ctx context.Context, as []assign.Assignment) ([]float64, []error) {
	return r.measureBatch(ctx, as, nil)
}

// measureBatch is MeasureBatchContext recording each batch it measures
// into bm (nil disables).
func (r *CachedRunner) measureBatch(ctx context.Context, as []assign.Assignment, bm *BatchMetrics) ([]float64, []error) {
	perfs := make([]float64, len(as))
	errs := make([]error, len(as))
	if len(as) == 0 {
		return perfs, errs
	}
	src, hasBatch := batchMeasurerOf(r.inner)
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

	keys := make([]string, len(as))
	resolved := make([]bool, len(as))
	seen := make(map[string]struct{}, len(as))
	var uniq []int // first unresolved occurrence per class, in draw order
	for i, a := range as {
		keys[i] = r.key(a)
		if perf, ok := r.cache.lookup(keys[i]); ok {
			perfs[i], resolved[i] = perf, true
			continue
		}
		if _, dup := seen[keys[i]]; !dup {
			seen[keys[i]] = struct{}{}
			uniq = append(uniq, i)
		}
	}

	if len(uniq) > 0 {
		bm.observe(len(uniq))
		ua := make([]assign.Assignment, len(uniq))
		for j, i := range uniq {
			ua[j] = as[i]
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
		for j, i := range uniq {
			if uerrs[j] == nil {
				r.cache.insert(keys[i], uperfs[j])
			}
			perfs[i], errs[i], resolved[i] = uperfs[j], uerrs[j], true
		}
	}

	for i := range as {
		if resolved[i] {
			continue
		}
		// A duplicate whose class leader ran in this batch: a success is
		// in the cache now; a failure means this draw measures for itself.
		if perf, ok := r.cache.lookup(keys[i]); ok {
			perfs[i] = perf
			continue
		}
		perfs[i], errs[i] = r.MeasureContext(ctx, as[i])
	}
	return perfs, errs
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

// IterateBatched is IteratePool on runner alone, in chunks of opts.Size
// draws (DefaultBatchSize if unset): the identical draws, result and
// commit stream as IterateContext, with only the measurement
// wall-clock changed.
func IterateBatched(ctx context.Context, cfg IterConfig, runner *CachedRunner, opts BatchOptions, commit CommitFunc) (IterResult, error) {
	if runner == nil {
		return IterResult{}, fmt.Errorf("core: nil runner")
	}
	return IteratePool(ctx, cfg, onePool(runner), opts.withDefaultSize(), commit)
}

func (o BatchOptions) withDefaultSize() BatchOptions {
	if o.Size <= 0 {
		o.Size = DefaultBatchSize
	}
	return o
}
