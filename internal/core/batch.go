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
// source as a single batch, which it may evaluate core-sharded
// (netdps.Testbed.MeasureBatch, cycle.BatchSim). Outcomes still commit
// strictly in draw order with the same semantics as the serial and
// parallel collectors, so journals are byte-identical across all three.

// BatchMeasurer is the capability a measurement source exposes to have
// cache misses coalesced into one core-sharded pass instead of being
// measured one by one. Values and errors are index-aligned with as; a
// per-assignment error must not affect its batchmates. netdps.Testbed
// satisfies it structurally.
type BatchMeasurer interface {
	MeasureBatch(as []assign.Assignment) ([]float64, []error)
}

// DefaultBatchSize is the draws-per-chunk used when BatchOptions.Size is
// unset: large enough to amortize batch setup and keep every core busy,
// small enough that journal commits stay frequent.
const DefaultBatchSize = 64

// BatchOptions tunes IterateBatched.
type BatchOptions struct {
	// Size is the number of draws probed and measured per chunk
	// (DefaultBatchSize if <= 0). Chunks are commit units: every outcome
	// of a chunk is journaled before the next chunk starts measuring.
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

// InstrumentBatch attaches batch-path metrics to the runner; nil detaches.
func (r *CachedRunner) InstrumentBatch(m *BatchMetrics) { r.bm = m }

func (r *CachedRunner) observeBatch(measured int) {
	r.bm.batches().Inc()
	r.bm.batchSize().Observe(float64(measured))
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
	perfs := make([]float64, len(as))
	errs := make([]error, len(as))
	if len(as) == 0 {
		return perfs, errs
	}
	bm, hasBatch := batchMeasurerOf(r.inner)
	if r.cache == nil {
		// Uncached: no class identity to dedup on, measure everything.
		r.observeBatch(len(as))
		if hasBatch {
			return bm.MeasureBatch(as)
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
		r.observeBatch(len(uniq))
		ua := make([]assign.Assignment, len(uniq))
		for j, i := range uniq {
			ua[j] = as[i]
		}
		var uperfs []float64
		var uerrs []error
		if hasBatch {
			uperfs, uerrs = bm.MeasureBatch(ua)
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

// measureBatched is the measurer behind IterateBatched: it slices the
// round into chunks of at most size draws, resolves each chunk through
// runner.MeasureBatchContext, and walks the outcomes in draw order with
// the collectors' shared semantics — successes and quarantines commit and
// extend the outcome stream, the first fatal error aborts with everything
// before it intact and the rest of the round discarded.
func measureBatched(ctx context.Context, runner *CachedRunner, as []assign.Assignment, size int, commit CommitFunc) ([]outcome, error) {
	outs := make([]outcome, 0, len(as))
	for start := 0; start < len(as); start += size {
		if err := ctx.Err(); err != nil {
			return outs, err
		}
		end := start + size
		if end > len(as) {
			end = len(as)
		}
		chunk := as[start:end]
		perfs, errs := runner.MeasureBatchContext(ctx, chunk)
		for i, a := range chunk {
			var err error
			if outs, err = settle(outs, a, perfs[i], errs[i], commit); err != nil {
				return outs, err
			}
		}
	}
	return outs, nil
}

// CollectSampleBatched is CollectSampleContext with chunk-batched
// measurement: it draws the identical n iid assignments from rng (same
// RNG consumption, so -resume fast-forwarding is unaffected), resolves
// them in batches through the cache and the source's core-sharded batch
// path, and returns results, skipped and commits exactly as a serial run
// with the same seed produces them.
func CollectSampleBatched(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, runner *CachedRunner, opts BatchOptions, commit CommitFunc) (results []SampleResult, skipped []Skipped, err error) {
	if runner == nil {
		return nil, nil, fmt.Errorf("core: nil runner")
	}
	as, err := assign.Sample(rng, topo, tasks, n)
	if err != nil {
		return nil, nil, err
	}
	size := opts.Size
	if size <= 0 {
		size = DefaultBatchSize
	}
	runner.InstrumentBatch(opts.Metrics)
	outs, err := measureBatched(ctx, runner, as, size, commit)
	results, skipped = splitOutcomes(as, outs)
	return results, skipped, err
}

// IterateBatched runs the §5.3 iterative algorithm with every sampling
// round measured in cache-deduped, core-sharded batches. Given the same
// IterConfig (seed included) and a deterministic measurement source, it
// visits the identical assignment sequence and produces the identical
// result and commit stream as IterateContext and IterateParallel — only
// the measurement wall-clock changes.
func IterateBatched(ctx context.Context, cfg IterConfig, runner *CachedRunner, opts BatchOptions, commit CommitFunc) (IterResult, error) {
	if runner == nil {
		return IterResult{}, fmt.Errorf("core: nil runner")
	}
	size := opts.Size
	if size <= 0 {
		size = DefaultBatchSize
	}
	runner.InstrumentBatch(opts.Metrics)
	return iterate(ctx, cfg, func(ctx context.Context, as []assign.Assignment) ([]outcome, error) {
		return measureBatched(ctx, runner, as, size, commit)
	})
}
