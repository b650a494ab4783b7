package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/t2"
)

func testAssignment(t *testing.T) assign.Assignment {
	t.Helper()
	a := assign.Assignment{Topo: t2.UltraSPARCT2(), Ctx: []int{0, 1, 2}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// flaky fails the first `failures` calls with errs (cycled), then succeeds.
type flaky struct {
	mu       sync.Mutex
	failures int
	err      error
	calls    int
}

func (f *flaky) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failures {
		return 0, f.err
	}
	return 42, nil
}

func noSleep(recorded *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		if recorded != nil {
			*recorded = append(*recorded, d)
		}
		return nil
	}
}

func TestResilientRetriesTransient(t *testing.T) {
	f := &flaky{failures: 2, err: errors.New("transient glitch")}
	var delays []time.Duration
	r := NewResilientRunner(f, ResilientConfig{MaxAttempts: 3, sleep: noSleep(&delays)})
	perf, err := r.MeasureContext(context.Background(), testAssignment(t))
	if err != nil || perf != 42 {
		t.Fatalf("perf=%v err=%v", perf, err)
	}
	if f.calls != 3 {
		t.Errorf("calls = %d, want 3", f.calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
	// Backoff doubles: second delay ∈ 2·base·(1±jitter), first ∈ base·(1±jitter).
	base := 100 * time.Millisecond
	for i, d := range delays {
		want := base << i
		lo := time.Duration(float64(want) * 0.8)
		hi := time.Duration(float64(want) * 1.2)
		if d < lo || d > hi {
			t.Errorf("delay %d = %v, want within [%v, %v]", i, d, lo, hi)
		}
	}
	if len(r.Failed()) != 0 {
		t.Errorf("unexpected quarantines: %v", r.Failed())
	}
}

func TestResilientQuarantinesAfterBudget(t *testing.T) {
	f := &flaky{failures: 100, err: errors.New("still down")}
	r := NewResilientRunner(f, ResilientConfig{MaxAttempts: 4, sleep: noSleep(nil)})
	a := testAssignment(t)
	_, err := r.MeasureContext(context.Background(), a)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
	if f.calls != 4 {
		t.Errorf("calls = %d, want 4", f.calls)
	}
	failed := r.Failed()
	if len(failed) != 1 || failed[0].Attempts != 4 {
		t.Fatalf("failed = %+v", failed)
	}
	if got := failed[0].Assignment.Ctx; len(got) != len(a.Ctx) {
		t.Errorf("quarantined assignment = %v", got)
	}
}

func TestResilientPermanentFailsFast(t *testing.T) {
	f := &flaky{failures: 100, err: Permanent(errors.New("invalid assignment"))}
	r := NewResilientRunner(f, ResilientConfig{MaxAttempts: 5, sleep: noSleep(nil)})
	_, err := r.MeasureContext(context.Background(), testAssignment(t))
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
	if f.calls != 1 {
		t.Errorf("calls = %d, want 1 (no retries of a permanent error)", f.calls)
	}
}

func TestResilientTimeoutCutsHang(t *testing.T) {
	// The abandoned first attempt keeps running on its own goroutine
	// concurrently with the retry, so the counter must be atomic.
	var calls atomic.Int32
	hung := ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // hang until the per-attempt timeout fires
			return 0, ctx.Err()
		}
		return 7, nil
	})
	r := NewResilientRunner(hung, ResilientConfig{
		MaxAttempts: 2,
		Timeout:     20 * time.Millisecond,
		sleep:       noSleep(nil),
	})
	start := time.Now()
	perf, err := r.MeasureContext(context.Background(), testAssignment(t))
	if err != nil || perf != 7 {
		t.Fatalf("perf=%v err=%v", perf, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("hang was not cut short: %v", elapsed)
	}
}

func TestResilientCancelAbortsWithoutQuarantine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &flaky{failures: 100, err: errors.New("down")}
	r := NewResilientRunner(f, ResilientConfig{MaxAttempts: 3, sleep: noSleep(nil)})
	_, err := r.MeasureContext(ctx, testAssignment(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrQuarantined) || len(r.Failed()) != 0 {
		t.Error("cancellation must not quarantine the assignment")
	}
}

func TestPermanentMarking(t *testing.T) {
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
	base := errors.New("boom")
	p := Permanent(base)
	if !IsPermanent(p) || IsPermanent(base) {
		t.Error("classification broken")
	}
	if !errors.Is(p, base) {
		t.Error("Permanent must preserve the error chain")
	}
	if !IsPermanent(fmt.Errorf("wrapped: %w", p)) {
		t.Error("marking must survive wrapping")
	}
}

func TestCollectSampleContextSkipsQuarantined(t *testing.T) {
	topo := t2.UltraSPARCT2()
	// Quarantine every third measurement.
	calls := 0
	runner := ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		calls++
		if calls%3 == 0 {
			return 0, fmt.Errorf("%w: injected", ErrQuarantined)
		}
		return float64(calls), nil
	})
	rng := rand.New(rand.NewSource(1))
	results, skipped, err := CollectSampleContext(context.Background(), rng, topo, 6, 30, runner)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 || len(skipped) != 10 {
		t.Fatalf("results=%d skipped=%d, want 20/10", len(results), len(skipped))
	}
	// The drawn assignment sequence must be identical to a fault-free
	// run's: quarantines skip measurements, not draws.
	rng2 := rand.New(rand.NewSource(1))
	as, err := assign.Sample(rng2, topo, 6, 30)
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	for i, a := range as {
		var got []int
		if (i+1)%3 == 0 {
			got = skipped[i/3].Assignment.Ctx
		} else {
			got = results[merged].Assignment.Ctx
			merged++
		}
		for j := range got {
			if got[j] != a.Ctx[j] {
				t.Fatalf("draw %d diverged: %v vs %v", i, got, a.Ctx)
			}
		}
	}
}

func TestCollectSampleContextAbortsOnOtherErrors(t *testing.T) {
	topo := t2.UltraSPARCT2()
	runner := ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		return 0, errors.New("hard failure")
	})
	_, _, err := CollectSampleContext(context.Background(), rand.New(rand.NewSource(1)), topo, 6, 5, runner)
	if err == nil {
		t.Fatal("hard failure did not abort the sample")
	}
}

func TestIterateResumeContinuesDrawSequence(t *testing.T) {
	topo := t2.UltraSPARCT2()
	perfOf := func(a assign.Assignment) float64 {
		// A deterministic, assignment-dependent pseudo-performance with a
		// bounded tail so the estimator converges.
		s := 0.0
		for i, c := range a.Ctx {
			s += float64((c*31+i*7)%97) / 97
		}
		return 1000 + 100*s/float64(len(a.Ctx))
	}
	var full, resumedLog []assign.Assignment
	mkRunner := func(log *[]assign.Assignment) ContextRunner {
		return ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) {
			*log = append(*log, a.Clone())
			return perfOf(a), nil
		})
	}
	cfg := IterConfig{Topo: topo, Tasks: 8, AcceptLossPct: 0.5, Ninit: 300, Ndelta: 100, MaxSamples: 600, Seed: 5}

	fullRes, fullErr := IterateContext(context.Background(), cfg, mkRunner(&full))

	// "Crash" after 150 measurements: resume from their draw log.
	k := 150
	resumeCfg := cfg
	resumeCfg.ResumeLog = make([]ResumeDraw, k)
	for i, a := range full[:k] {
		resumeCfg.ResumeLog[i] = ResumeDraw{Assignment: a, Perf: perfOf(a)}
	}
	resumedRes, resumedErr := IterateContext(context.Background(), resumeCfg, mkRunner(&resumedLog))

	if (fullErr == nil) != (resumedErr == nil) {
		t.Fatalf("errs differ: %v vs %v", fullErr, resumedErr)
	}
	// Zero re-measurements of the resumed prefix, and the continued draw
	// sequence is exactly the uninterrupted run's.
	if want := len(full) - k; len(resumedLog) != want {
		t.Fatalf("resumed run measured %d, want %d", len(resumedLog), want)
	}
	for i, a := range resumedLog {
		for j := range a.Ctx {
			if a.Ctx[j] != full[k+i].Ctx[j] {
				t.Fatalf("resumed draw %d diverged", i)
			}
		}
	}
	if resumedRes.Samples != fullRes.Samples {
		t.Errorf("samples: %d vs %d", resumedRes.Samples, fullRes.Samples)
	}
	if resumedRes.Best.Perf != fullRes.Best.Perf {
		t.Errorf("best: %v vs %v", resumedRes.Best.Perf, fullRes.Best.Perf)
	}
}

func TestIterateAllQuarantinedTerminates(t *testing.T) {
	topo := t2.UltraSPARCT2()
	runner := ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		return 0, fmt.Errorf("%w: testbed unreachable", ErrQuarantined)
	})
	cfg := IterConfig{Topo: topo, Tasks: 6, AcceptLossPct: 1, Ninit: 50, Ndelta: 10, MaxSamples: 100}
	_, err := IterateContext(context.Background(), cfg, runner)
	if err == nil {
		t.Fatal("fully-quarantined campaign reported success")
	}
}

func TestIterResultCaptureProbCountsMeasuredOnly(t *testing.T) {
	res := IterResult{Samples: 100, Quarantined: make([]Skipped, 50)}
	got, err := res.CaptureProb(1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := CaptureProbability(100, 1)
	if got != want {
		t.Errorf("capture prob %v, want %v (measured-only accounting)", got, want)
	}
}
