package core

import (
	"context"

	"optassign/internal/assign"
)

// ContextRunner is the context-aware measurement contract: an
// implementation executes one assignment and reports its performance,
// honoring ctx for cancellation and per-measurement deadlines. Long
// campaigns (hours of testbed time, §5.4) need both: a hung measurement
// must not wedge the whole study, and an operator interrupt must stop the
// loop at a measurement boundary with everything measured so far intact.
type ContextRunner interface {
	MeasureContext(ctx context.Context, a assign.Assignment) (float64, error)
}

// ContextRunnerFunc adapts a plain function to the ContextRunner interface.
type ContextRunnerFunc func(ctx context.Context, a assign.Assignment) (float64, error)

// MeasureContext implements ContextRunner.
func (f ContextRunnerFunc) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	return f(ctx, a)
}

// attemptKey carries the 1-based attempt number of the measurement a
// context belongs to (see WithAttempt).
type attemptKey struct{}

// WithAttempt annotates ctx with the 1-based attempt number of the
// measurement about to run. ResilientRunner stamps every attempt, so a
// runner downstream (a deterministic fault injector, a logging wrapper)
// can tell a retry from a fresh measurement without shared state — which
// keeps its behavior independent of the order concurrent measurements
// interleave in.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// Attempt returns the attempt number stamped by WithAttempt, or 1 for a
// context without one (a measurement outside any retry loop is its own
// first attempt).
func Attempt(ctx context.Context) int {
	if n, ok := ctx.Value(attemptKey{}).(int); ok {
		return n
	}
	return 1
}

// AsContextRunner upgrades a Runner to a ContextRunner. A runner that
// already implements MeasureContext is returned as-is; any other is
// wrapped in a shim that checks ctx before starting a measurement but
// cannot interrupt one in flight — pair such runners with
// ResilientRunner's per-attempt timeout if they can hang.
func AsContextRunner(r Runner) ContextRunner {
	if cr, ok := r.(ContextRunner); ok {
		return cr
	}
	return legacyRunner{r}
}

type legacyRunner struct{ r Runner }

func (l legacyRunner) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return l.r.Measure(a)
}
