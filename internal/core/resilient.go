package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"optassign/internal/assign"
	"optassign/internal/obs"
)

// ErrQuarantined marks a measurement that was abandoned after exhausting
// its retry budget (or failing permanently). The campaign-level sampling
// loops treat it as "skip this assignment and keep going" rather than
// aborting the whole study: on a real testbed (~1.5 s per measurement,
// §5.4) one bad assignment must not throw away hours of collected data.
var ErrQuarantined = errors.New("core: measurement quarantined")

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// Permanent marks err as permanent: retrying the same measurement will
// fail the same way (invalid assignment, topology mismatch, server-side
// validation), so the resilient runner quarantines it immediately instead
// of burning retry budget. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

// ResilientConfig parameterizes ResilientRunner. The zero value is usable:
// 3 attempts, 100 ms base backoff doubling to 5 s, 20% jitter, no
// per-attempt timeout.
type ResilientConfig struct {
	// MaxAttempts is the total number of tries per measurement (first
	// attempt included). Default 3.
	MaxAttempts int
	// Timeout bounds each attempt; 0 disables it. Attempts against
	// runners that honor ctx are cancelled cleanly; a runner that
	// ignores ctx mid-measurement is abandoned on its goroutine (it keeps
	// running until it returns).
	Timeout time.Duration
	// BaseDelay is the backoff before the first retry; it doubles each
	// retry up to MaxDelay. Defaults 100 ms and 5 s.
	BaseDelay, MaxDelay time.Duration
	// Jitter spreads each delay uniformly over ±Jitter·delay to avoid
	// retry lockstep. Default 0.2; negative disables.
	Jitter float64
	// Seed makes the jitter sequence reproducible. 0 means seed 1.
	Seed int64
	// Classify overrides error classification: return true if the error
	// is transient (retryable). The default treats everything as
	// transient except errors marked with Permanent.
	Classify func(error) bool
	// OnRetry, if set, observes every failed attempt that will be
	// retried (for logging).
	OnRetry func(a assign.Assignment, attempt int, err error)
	// Events receives the runner's lifecycle as structured events:
	// "retry", "quarantine", "attempt_abandoned" and — when an abandoned
	// attempt's goroutine eventually returns — "attempt_late_result"
	// with the outcome that would otherwise vanish. nil disables.
	Events obs.EventSink
	// Metrics counts attempts, retries, backoff time, quarantines and
	// abandoned attempts. nil disables.
	Metrics *ResilientMetrics
	// sleep is a test seam; nil means a ctx-aware time.Sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 100 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Classify == nil {
		c.Classify = func(err error) bool { return !IsPermanent(err) }
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FailedMeasurement records one quarantined assignment: what was supposed
// to run, how many attempts it got, and the final error.
type FailedMeasurement struct {
	Assignment assign.Assignment
	Attempts   int
	Err        error
}

// ResilientRunner wraps a measurement runner with retries, exponential
// backoff with jitter, per-attempt timeouts and graceful degradation: a
// measurement that keeps failing is quarantined (recorded in Failed and
// reported as ErrQuarantined) instead of killing the campaign. It is a
// ContextRunner and is safe for concurrent use.
type ResilientRunner struct {
	cfg    ResilientConfig
	runner ContextRunner

	mu     sync.Mutex
	rng    *rand.Rand
	failed []FailedMeasurement
}

// NewResilientRunner wraps runner with the given policy.
func NewResilientRunner(runner ContextRunner, cfg ResilientConfig) *ResilientRunner {
	cfg = cfg.withDefaults()
	return &ResilientRunner{
		cfg:    cfg,
		runner: runner,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Failed returns a copy of the quarantined-measurement list, in the order
// the quarantines happened.
func (r *ResilientRunner) Failed() []FailedMeasurement {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]FailedMeasurement(nil), r.failed...)
}

// MeasureContext implements ContextRunner: try up to MaxAttempts times,
// backing off between attempts, then quarantine. Cancellation of ctx
// aborts immediately with ctx's error (never a quarantine): the caller
// asked the campaign to stop, the assignment did not fail.
func (r *ResilientRunner) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	var lastErr error
	for attempt := 1; attempt <= r.cfg.MaxAttempts; attempt++ {
		r.cfg.Metrics.attempts().Inc()
		perf, err := r.attempt(WithAttempt(ctx, attempt), a)
		if err == nil {
			return perf, nil
		}
		if ctx.Err() != nil {
			// The campaign itself was cancelled; don't classify, don't
			// quarantine.
			return 0, ctx.Err()
		}
		lastErr = err
		if !r.cfg.Classify(err) {
			return 0, r.quarantine(a, attempt, err)
		}
		if attempt == r.cfg.MaxAttempts {
			break
		}
		if r.cfg.OnRetry != nil {
			r.cfg.OnRetry(a, attempt, err)
		}
		r.cfg.Metrics.retries().Inc()
		if r.cfg.Events != nil {
			r.cfg.Events.Emit(obs.Event{Name: "retry", Fields: []obs.Field{
				{Key: "assignment", Value: a.String()},
				{Key: "attempt", Value: attempt},
				{Key: "error", Value: err.Error()},
			}})
		}
		delay := r.backoff(attempt)
		r.cfg.Metrics.backoffSeconds().Add(delay.Seconds())
		if err := r.cfg.sleep(ctx, delay); err != nil {
			return 0, err
		}
	}
	return 0, r.quarantine(a, r.cfg.MaxAttempts, lastErr)
}

// attempt runs one measurement under the per-attempt timeout. The runner
// executes on its own goroutine so that even a ctx-ignoring runner cannot
// wedge the campaign past the deadline.
func (r *ResilientRunner) attempt(ctx context.Context, a assign.Assignment) (float64, error) {
	if r.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Timeout)
		defer cancel()
	} else if ctx.Done() == nil {
		// No deadline and nothing to cancel: measure inline.
		return r.runner.MeasureContext(ctx, a)
	}
	type outcome struct {
		perf float64
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		perf, err := r.runner.MeasureContext(ctx, a)
		ch <- outcome{perf, err}
	}()
	select {
	case o := <-ch:
		return o.perf, o.err
	case <-ctx.Done():
		// The attempt is abandoned on its goroutine. Its eventual outcome
		// used to vanish silently — the assignment could be quarantined
		// even though a measurement later succeeded, and the operator had
		// no evidence Timeout was set too tight. Record the abandonment
		// and, when observability is on, keep a watcher around to report
		// the late outcome once the goroutine returns.
		r.cfg.Metrics.abandoned().Inc()
		if r.cfg.Events != nil {
			r.cfg.Events.Emit(obs.Event{Name: "attempt_abandoned", Fields: []obs.Field{
				{Key: "assignment", Value: a.String()},
				{Key: "attempt", Value: Attempt(ctx)},
				{Key: "cause", Value: ctx.Err().Error()},
			}})
		}
		if r.cfg.Events != nil || r.cfg.Metrics != nil {
			abandonedAt := time.Now()
			attempt := Attempt(ctx)
			go func() {
				o := <-ch
				r.cfg.Metrics.lateOutcome(o.err == nil).Inc()
				if r.cfg.Events != nil {
					fields := []obs.Field{
						{Key: "assignment", Value: a.String()},
						{Key: "attempt", Value: attempt},
						{Key: "late_by_seconds", Value: time.Since(abandonedAt).Seconds()},
					}
					if o.err == nil {
						fields = append(fields, obs.Field{Key: "perf", Value: o.perf})
					} else {
						fields = append(fields, obs.Field{Key: "error", Value: o.err.Error()})
					}
					r.cfg.Events.Emit(obs.Event{Name: "attempt_late_result", Fields: fields})
				}
			}()
		}
		return 0, fmt.Errorf("core: measurement attempt: %w", ctx.Err())
	}
}

// backoff returns the delay before retry number `attempt` (1-based):
// BaseDelay·2^(attempt−1) capped at MaxDelay, jittered by ±Jitter.
func (r *ResilientRunner) backoff(attempt int) time.Duration {
	d := r.cfg.BaseDelay << (attempt - 1)
	if d > r.cfg.MaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = r.cfg.MaxDelay
	}
	if r.cfg.Jitter > 0 {
		r.mu.Lock()
		u := r.rng.Float64()
		r.mu.Unlock()
		d = time.Duration(float64(d) * (1 + r.cfg.Jitter*(2*u-1)))
	}
	return d
}

func (r *ResilientRunner) quarantine(a assign.Assignment, attempts int, cause error) error {
	r.mu.Lock()
	r.failed = append(r.failed, FailedMeasurement{Assignment: a.Clone(), Attempts: attempts, Err: cause})
	r.mu.Unlock()
	r.cfg.Metrics.quarantines().Inc()
	if r.cfg.Events != nil {
		r.cfg.Events.Emit(obs.Event{Name: "quarantine", Fields: []obs.Field{
			{Key: "assignment", Value: a.String()},
			{Key: "attempts", Value: attempts},
			{Key: "error", Value: cause.Error()},
		}})
	}
	return fmt.Errorf("%w after %d attempt(s): %w", ErrQuarantined, attempts, cause)
}
