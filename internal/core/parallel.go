package core

import (
	"context"
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/t2"
)

// CommitFunc observes completed measurements in draw order: err is nil for
// a success, wraps ErrQuarantined for an abandoned draw. A parallel
// campaign completes measurements out of order, but commits them strictly
// in draw order — this is where journaling and recording hook in, so the
// journal of a parallel run is byte-identical to a serial run's and stays
// a well-formed prefix for -resume no matter when the process dies. A
// non-nil return aborts the campaign (a journal that cannot be written is
// as fatal as a testbed that cannot measure).
type CommitFunc func(a assign.Assignment, perf float64, err error) error

// ChainCommits composes commit observers; each runs in order for every
// committed draw and the first error wins.
func ChainCommits(fs ...CommitFunc) CommitFunc {
	return func(a assign.Assignment, perf float64, err error) error {
		for _, f := range fs {
			if f == nil {
				continue
			}
			if cerr := f(a, perf, err); cerr != nil {
				return cerr
			}
		}
		return nil
	}
}

// CollectSampleParallel is CollectSampleContext on pool, with commit
// (optional) observing every success and quarantine in draw order. It
// draws the identical n iid assignments from rng, and results, skipped
// and the commit sequence are exactly a serial run's, provided each
// measurement is a deterministic function of its assignment and attempt
// number.
func CollectSampleParallel(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, pool *PoolRunner, commit CommitFunc) (results []SampleResult, skipped []Skipped, err error) {
	if pool == nil {
		return nil, nil, fmt.Errorf("core: nil pool")
	}
	return collectSample(ctx, rng, topo, tasks, n, pool, BatchOptions{}, commit)
}

// IterateParallel is IteratePool with one-draw chunks: the identical
// draws, history, result and commit stream as IterateContext, with the
// wall-clock time divided by the pool size.
func IterateParallel(ctx context.Context, cfg IterConfig, pool *PoolRunner, commit CommitFunc) (IterResult, error) {
	return IteratePool(ctx, cfg, pool, BatchOptions{}, commit)
}
