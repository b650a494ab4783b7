// Package faulty deterministically injects the failure modes a real
// measurement campaign meets — transient errors, permanent errors, hangs,
// latency spikes and dropped connections — so the fault-tolerance stack
// (core.ResilientRunner, the reconnecting remote.Client, the campaign
// journal) can be exercised in tests without a flaky testbed. Every fault
// sequence is driven by a seeded PRNG: same seed, same faults.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/keyrand"
)

// ErrInjected is the transient fault the Runner raises; retrying the same
// measurement can succeed.
var ErrInjected = errors.New("faulty: injected transient fault")

// ErrInjectedPermanent is the permanent fault (marked with
// core.Permanent when returned), modelling e.g. an assignment the testbed
// can never execute.
var ErrInjectedPermanent = errors.New("faulty: injected permanent fault")

// Config sets per-measurement fault probabilities. Rates are evaluated in
// order — permanent, transient, hang, spike — from a single uniform draw,
// so their sum must stay ≤ 1.
type Config struct {
	// Seed drives the fault PRNG; 0 means seed 1.
	Seed int64
	// PermanentRate is the probability a measurement fails permanently.
	PermanentRate float64
	// TransientRate is the probability a measurement fails transiently
	// (succeeds when retried, unless the PRNG strikes again).
	TransientRate float64
	// HangRate is the probability a measurement blocks until its context
	// is cancelled — the "hung testbed" scenario a per-attempt timeout
	// must cut short. Without a cancellable context the hang falls back
	// to failing transiently rather than deadlocking the caller.
	HangRate float64
	// SpikeRate and Spike inject latency: with probability SpikeRate the
	// measurement sleeps Spike (honoring ctx) before executing.
	SpikeRate float64
	Spike     time.Duration
	// KeyByAssignment makes each fault a pure function of (Seed, the
	// assignment, the attempt number stamped by core.WithAttempt) instead
	// of a draw from the shared sequential PRNG. The injected fault
	// sequence then no longer depends on the order measurements happen to
	// interleave in, so a parallel campaign meets the exact same faults as
	// a serial one — the mode the parallel-equivalence tests rely on.
	// Identical assignments drawn twice meet identical faults.
	KeyByAssignment bool
}

// Stats counts what the runner injected and executed.
type Stats struct {
	Calls      int // measurement attempts seen
	Measured   int // attempts that reached the inner runner and succeeded
	Transients int
	Permanents int
	Hangs      int
	Spikes     int
}

// Runner wraps a measurement runner with deterministic fault injection.
// It implements core.ContextRunner and is safe for concurrent use
// (though concurrent callers race for the PRNG sequence; deterministic
// concurrent tests should set Config.KeyByAssignment, which
// makes every fault independent of interleaving).
type Runner struct {
	cfg   Config
	inner core.ContextRunner

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// NewRunner wraps inner with the fault policy in cfg.
func NewRunner(inner core.ContextRunner, cfg Config) *Runner {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Runner{
		cfg:   cfg,
		inner: inner,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats returns a snapshot of the injection counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

type fault int

const (
	faultNone fault = iota
	faultPermanent
	faultTransient
	faultHang
	faultSpike
)

// roll draws the fault for one attempt and updates the counters. In
// KeyByAssignment mode the uniform variate comes from a PRNG seeded by
// hashing (Seed, assignment, attempt) — order-independent — instead of
// from the shared sequential PRNG.
func (r *Runner) roll(ctx context.Context, a assign.Assignment) fault {
	var u float64
	keyed := r.cfg.KeyByAssignment
	if keyed {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%v|%d", r.cfg.Seed, a.Ctx, core.Attempt(ctx))
		u = keyrand.Float64(int64(h.Sum64()))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Calls++
	if !keyed {
		u = r.rng.Float64()
	}
	switch {
	case u < r.cfg.PermanentRate:
		r.stats.Permanents++
		return faultPermanent
	case u < r.cfg.PermanentRate+r.cfg.TransientRate:
		r.stats.Transients++
		return faultTransient
	case u < r.cfg.PermanentRate+r.cfg.TransientRate+r.cfg.HangRate:
		r.stats.Hangs++
		return faultHang
	case u < r.cfg.PermanentRate+r.cfg.TransientRate+r.cfg.HangRate+r.cfg.SpikeRate:
		r.stats.Spikes++
		return faultSpike
	default:
		return faultNone
	}
}

// MeasureContext implements core.ContextRunner.
func (r *Runner) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	switch r.roll(ctx, a) {
	case faultPermanent:
		return 0, core.Permanent(ErrInjectedPermanent)
	case faultTransient:
		if r.cfg.KeyByAssignment {
			// The global call counter is order-dependent; keyed mode must
			// produce identical error text regardless of interleaving.
			return 0, fmt.Errorf("%w (attempt %d)", ErrInjected, core.Attempt(ctx))
		}
		return 0, fmt.Errorf("%w (call %d)", ErrInjected, r.Stats().Calls)
	case faultHang:
		if ctx.Done() == nil {
			return 0, fmt.Errorf("%w (hang without cancellable context)", ErrInjected)
		}
		<-ctx.Done()
		return 0, ctx.Err()
	case faultSpike:
		t := time.NewTimer(r.cfg.Spike)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	perf, err := r.inner.MeasureContext(ctx, a)
	if err == nil {
		r.mu.Lock()
		r.stats.Measured++
		r.mu.Unlock()
	}
	return perf, err
}
