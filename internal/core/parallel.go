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

// CollectSampleParallel is CollectSampleContext fanned out across a worker
// pool. It draws the identical n iid assignments from rng (the RNG
// consumption is the same as the serial collector's, so -resume
// fast-forwarding is unaffected), measures them concurrently, and
// reassembles the outcomes in draw order: results, skipped and the commit
// sequence are exactly what a serial run with the same seed produces,
// provided each measurement is a deterministic function of its assignment
// and attempt number.
//
// Semantics mirror the serial collector draw by draw: a success extends
// results, a quarantine extends skipped, and the first fatal error —
// walking in draw order — aborts with everything before it intact; draws
// after a fatal error are discarded even if their measurements completed,
// and in-flight work is cancelled. commit (optional) is invoked in draw
// order for every success and quarantine before it is returned.
func CollectSampleParallel(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, pool *PoolRunner, commit CommitFunc) (results []SampleResult, skipped []Skipped, err error) {
	if pool == nil {
		return nil, nil, fmt.Errorf("core: nil pool")
	}
	as, err := assign.Sample(rng, topo, tasks, n)
	if err != nil {
		return nil, nil, err
	}
	outs, err := measureParallel(ctx, pool, as, commit)
	results, skipped = splitOutcomes(as, outs)
	return results, skipped, err
}

// measureParallel fans the batch out across the pool and reassembles the
// outcomes in draw order (see CollectSampleParallel for the semantics).
func measureParallel(ctx context.Context, pool *PoolRunner, as []assign.Assignment, commit CommitFunc) ([]outcome, error) {
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Reorder buffer: completions arrive in any order, draws commit in
	// index order as soon as their prefix is complete.
	pending := make(map[int]Outcome, pool.Workers())
	commitNext := 0
	var finalErr error
	m := pool.metrics

	outs := make([]outcome, 0, len(as))
	for c := range pool.stream(poolCtx, as) {
		if finalErr != nil {
			continue // drain only; the campaign is already aborted
		}
		if m != nil {
			// How far ahead of the commit point this completion landed:
			// 0 means it commits immediately, larger values mean a slow
			// earlier draw is holding the buffer open.
			m.CommitLag.Observe(float64(c.i - commitNext))
		}
		pending[c.i] = c.o
		for {
			o, ok := pending[commitNext]
			if !ok {
				break
			}
			delete(pending, commitNext)
			a := as[commitNext]
			commitNext++
			if o.Started {
				outs, finalErr = settle(outs, a, o.Perf, o.Err, commit)
			} else {
				// Never dispatched: the serial loop's pre-measurement ctx
				// check, which returns the bare context error.
				finalErr = o.Err
			}
			if m != nil && finalErr == nil {
				m.Committed.Inc()
			}
			if finalErr != nil {
				cancel() // stop burning testbed time on discarded draws
				break
			}
		}
		if m != nil {
			m.ReorderDepth.Set(float64(len(pending)))
		}
	}
	return outs, finalErr
}

// IterateParallel runs the §5.3 iterative algorithm with every sampling
// round fanned out across pool. Given the same IterConfig (seed included),
// a deterministic measurement source and any worker count, it visits the
// identical assignment sequence, produces the identical IterStep history
// and result as IterateContext, and commit sees the identical in-order
// measurement stream — only the wall-clock time divides by the pool size.
func IterateParallel(ctx context.Context, cfg IterConfig, pool *PoolRunner, commit CommitFunc) (IterResult, error) {
	if pool == nil {
		return IterResult{}, fmt.Errorf("core: nil pool")
	}
	return iterate(ctx, cfg, func(ctx context.Context, as []assign.Assignment) ([]outcome, error) {
		return measureParallel(ctx, pool, as, commit)
	})
}
