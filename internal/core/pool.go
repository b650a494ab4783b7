package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"optassign/internal/assign"
)

// Outcome is the result of measuring one assignment of a batch.
type Outcome struct {
	Perf float64
	Err  error
	// Started reports that the measurement was actually dispatched to a
	// worker. A false Started means the batch was cancelled before this
	// assignment's turn came: Err carries the context error and no testbed
	// time was spent — exactly the draws a serial loop would never have
	// reached.
	Started bool
}

// PoolRunner fans a batch of measurements out across a fixed pool of
// workers. The samples of a campaign are iid by construction (§3.1), so
// they are embarrassingly parallel: with N independent testbeds (or one
// concurrency-safe simulator) the §5.4 wall-clock cost of a campaign
// divides by N. Dispatch is work-stealing — each worker pulls the next
// undone chunk of draws as it frees up — so one slow measurement never
// stalls the rest of the batch.
//
// The pool is also the campaign's one measurer (see measure): every
// round, serial, fanned out or batched, is executed by a pool and
// settled in draw order, which is what makes a parallel or batched
// campaign byte-identical to a serial one.
type PoolRunner struct {
	workers []ContextRunner
	metrics *PoolMetrics
}

// NewPoolRunner builds a pool with one goroutine per worker runner (one
// worker measures in the caller's goroutine instead). Each
// worker measures on its own runner, so runners that are not safe for
// concurrent use (a remote.Client, a stateful harness) get exactly one
// in-flight measurement each. Wrap each worker in its own ResilientRunner
// for per-worker retry/quarantine.
func NewPoolRunner(workers ...ContextRunner) (*PoolRunner, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("core: pool needs at least one worker")
	}
	for i, w := range workers {
		if w == nil {
			return nil, fmt.Errorf("core: pool worker %d is nil", i)
		}
	}
	return &PoolRunner{workers: append([]ContextRunner(nil), workers...)}, nil
}

// NewReplicatedPool builds an n-worker pool whose workers share one
// runner. The runner must be safe for concurrent use — the simulated
// testbed (a pure function of the assignment), a ResilientRunner, or a
// remote.ClientPool all qualify.
func NewReplicatedPool(runner ContextRunner, n int) (*PoolRunner, error) {
	if runner == nil {
		return nil, fmt.Errorf("core: nil runner")
	}
	if n < 1 {
		return nil, fmt.Errorf("core: pool needs at least one worker, got %d", n)
	}
	workers := make([]ContextRunner, n)
	for i := range workers {
		workers[i] = runner
	}
	return NewPoolRunner(workers...)
}

// onePool is the one-worker pool the serial entry points measure on.
func onePool(runner ContextRunner) *PoolRunner {
	return &PoolRunner{workers: []ContextRunner{runner}}
}

// Workers returns the pool's concurrency.
func (p *PoolRunner) Workers() int { return len(p.workers) }

// Instrument attaches a metrics bundle (typically NewPoolMetrics with
// this pool's worker count). Instrumentation only observes — dispatch
// order, RNG consumption and commit order are untouched, so the
// deterministic-equivalence guarantee holds with it on. A nil bundle
// leaves the pool uninstrumented. Call before the first measurement.
func (p *PoolRunner) Instrument(m *PoolMetrics) { p.metrics = m }

// measure is the one measurer: it executes a round of already-drawn
// assignments on the pool and settles their outcomes in draw order. A
// success or a quarantine (whose Perf is zeroed) is committed (commit
// may be nil) and extends the returned outcomes; the first fatal error —
// any other measurement error, a failed commit, or a draw left unstarted
// because ctx is done, which returns ctx's bare error — aborts the round
// with everything before it intact and nothing after it.
//
// Draws go to the workers in chunks of opts.Size draws (one draw when
// unset). A one-worker pool runs its chunks inline, lock-step in the
// caller's goroutine: that is the serial loop, and it measures nothing
// after a fatal outcome or once ctx is done. A larger pool streams
// chunks through its workers and reorders the completions; a fatal
// outcome cancels the work still in flight.
//
// keys, when it holds any, are the draws' cache keys, rendered by the
// draw stage for the one worker's batch path (keyRunner); the zero value
// leaves each probe to render its own.
func (p *PoolRunner) measure(ctx context.Context, as []assign.Assignment, keys classKeys, opts BatchOptions, commit CommitFunc) ([]Outcome, error) {
	r := p.round(as, opts)
	r.keys = keys
	r.syncChunks = commit != nil
	m := p.metrics
	outs := make([]Outcome, 0, len(as))
	var err error
	// settleAt applies draw i's outcome and reports whether the round
	// goes on. An unstarted draw is the serial loop's pre-measurement
	// ctx check: it ends the round with the bare context error.
	settleAt := func(i int, o Outcome) bool {
		switch {
		case !o.Started:
			err = o.Err
		case o.Err != nil && !errors.Is(o.Err, ErrQuarantined):
			err = fmt.Errorf("core: measuring assignment: %w", o.Err)
		default:
			if o.Err != nil {
				o.Perf = 0
			}
			if commit != nil {
				if cerr := commit(as[i], o.Perf, o.Err); cerr != nil {
					err = fmt.Errorf("core: measuring assignment: %w", cerr)
					return false
				}
			}
			outs = append(outs, o)
			if m != nil {
				m.Committed.Inc()
			}
		}
		return err == nil
	}
	if len(p.workers) == 1 {
		for lo := 0; lo < len(as) && err == nil; lo += r.size {
			r.resolve(ctx, 0, lo, settleAt)
		}
		return outs, err
	}

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Reorder buffer: chunks complete in any order, draws settle in index
	// order as soon as their prefix is complete.
	pending := make(map[int][]Outcome, len(p.workers))
	next := 0
	for c := range r.stream(poolCtx) {
		if err != nil {
			continue // drain only; the round is already aborted
		}
		if m != nil {
			// How far ahead of the commit point this completion landed:
			// 0 means it commits immediately, larger values mean a slow
			// earlier draw is holding the buffer open.
			m.CommitLag.Observe(float64(c.start - next))
		}
		pending[c.start] = c.outs
		for err == nil {
			chunk, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			for i, o := range chunk {
				if !settleAt(next+i, o) {
					cancel() // stop burning testbed time on discarded draws
					break
				}
			}
			next += len(chunk)
		}
		if m != nil {
			m.ReorderDepth.Set(float64(len(pending)))
		}
	}
	return outs, err
}

// round is one measure call's dispatch plan: the draws, the chunk size,
// and each worker's batch path.
type round struct {
	p    *PoolRunner
	as   []assign.Assignment
	size int
	// batch[i] resolves worker i's chunks through the cache and the
	// source's batch path; nil measures them draw by draw.
	batch []*CachedRunner
	// keys are the draws' cache keys when the draw stage rendered them.
	keys classKeys
	// syncChunks makes a batch chunk wait for its store's fsync before
	// its outcomes are emitted; measure sets it when they reach a commit
	// func.
	syncChunks bool
	bm         *BatchMetrics
}

// round plans as on p. With opts.Size set, a worker that is a
// CachedRunner over a batch-capable source resolves each chunk through
// the cache and the source's batch path; a bare batch-capable source
// gets the same path through a cacheless CachedRunner.
func (p *PoolRunner) round(as []assign.Assignment, opts BatchOptions) round {
	r := round{p: p, as: as, size: max(1, opts.Size), batch: make([]*CachedRunner, len(p.workers)), bm: opts.Metrics}
	if opts.Size <= 0 {
		return r
	}
	for i, w := range p.workers {
		cr, ok := w.(*CachedRunner)
		if !ok {
			cr = NewCachedContextRunner(w, nil, "")
		}
		if _, ok := cr.inner.(BatchMeasurer); ok {
			r.batch[i] = cr
		}
	}
	return r
}

// keyRunner returns the runner whose cache keys the draw stage renders
// ahead of the probe: the one worker of a one-worker pool, when its
// chunks go through a cache on the batch path. Otherwise it returns nil,
// and each probe renders its own key.
func (p *PoolRunner) keyRunner(opts BatchOptions) *CachedRunner {
	if len(p.workers) != 1 {
		return nil
	}
	if b := p.round(nil, opts).batch[0]; b != nil && b.cache != nil {
		return b
	}
	return nil
}

// syncStores waits until every value the batch path of a round planned
// with opts wrote to a persistent store is durable: a batched sample or
// campaign calls it before it returns.
func (p *PoolRunner) syncStores(opts BatchOptions) {
	for _, b := range p.round(nil, opts).batch {
		if b != nil {
			b.syncStore()
		}
	}
}

// resolve measures the chunk starting at draw lo on worker wi, handing
// each draw's outcome to emit in draw order until emit returns false. A
// batch chunk is measured in one call after one ctx check; otherwise
// every draw is preceded by its own ctx check. A done ctx yields one
// unstarted outcome carrying ctx's error and ends the chunk.
func (r round) resolve(ctx context.Context, wi, lo int, emit func(i int, o Outcome) bool) {
	hi := min(lo+r.size, len(r.as))
	chunk := r.as[lo:hi]
	m := r.p.metrics
	if b := r.batch[wi]; b != nil {
		if err := ctx.Err(); err != nil {
			emit(lo, Outcome{Err: err})
			return
		}
		t0 := m.dispatch(len(chunk))
		perfs, errs := b.measureBatch(ctx, chunk, r.keys.slice(lo, hi), r.bm)
		if r.syncChunks {
			b.syncStore()
		}
		m.complete(wi, len(chunk), t0)
		for i := range chunk {
			if !emit(lo+i, Outcome{Perf: perfs[i], Err: errs[i], Started: true}) {
				return
			}
		}
		return
	}
	w := r.p.workers[wi]
	for i, a := range chunk {
		if err := ctx.Err(); err != nil {
			emit(lo+i, Outcome{Err: err})
			return
		}
		t0 := m.dispatch(1)
		perf, err := w.MeasureContext(ctx, a)
		m.complete(wi, 1, t0)
		if !emit(lo+i, Outcome{Perf: perf, Err: err, Started: true}) {
			return
		}
	}
}

// completion is one chunk's outcomes, starting at draw index start. A
// chunk cut short ends at a terminal outcome.
type completion struct {
	start int
	outs  []Outcome
}

// stream runs the round's chunks on the pool's workers and delivers
// completions as they happen, in completion order; every chunk is
// delivered exactly once, and the channel closes after the last worker
// exits. Each worker pulls the next undone chunk as it frees up.
// Cancellation does not abandon in-flight measurements: each worker
// finishes (or is interrupted by) its current one, and every chunk
// pulled after that is delivered as one unstarted draw carrying ctx's
// error.
func (r round) stream(ctx context.Context) <-chan completion {
	// One slot per worker: each can hand over a chunk while the consumer
	// is still settling an earlier one.
	out := make(chan completion, len(r.p.workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := range r.p.workers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(r.size))) - r.size
				if lo >= len(r.as) {
					return
				}
				var outs []Outcome
				r.resolve(ctx, wi, lo, func(_ int, o Outcome) bool {
					outs = append(outs, o)
					// Stop at the first outcome that ends the round.
					return o.Started && (o.Err == nil || errors.Is(o.Err, ErrQuarantined))
				})
				out <- completion{lo, outs}
			}
		}(wi)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// MeasureBatch measures every assignment across the pool and returns the
// outcomes indexed like the input. It never fails as a whole: per-draw
// errors (including cancellation) live in each Outcome.
func (p *PoolRunner) MeasureBatch(ctx context.Context, as []assign.Assignment) []Outcome {
	out := make([]Outcome, len(as))
	for c := range p.round(as, BatchOptions{}).stream(ctx) {
		copy(out[c.start:], c.outs)
	}
	return out
}
