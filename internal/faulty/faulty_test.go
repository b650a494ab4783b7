package faulty

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/t2"
)

func constRunner(perf float64) core.ContextRunner {
	return core.ContextRunnerFunc(func(context.Context, assign.Assignment) (float64, error) { return perf, nil })
}

func someAssignment() assign.Assignment {
	return assign.Assignment{Topo: t2.UltraSPARCT2(), Ctx: []int{0, 1, 2}}
}

func TestFaultSequenceIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, TransientRate: 0.3, PermanentRate: 0.05}
	run := func() []error {
		r := NewRunner(constRunner(1), cfg)
		var errs []error
		for i := 0; i < 200; i++ {
			_, err := r.MeasureContext(context.Background(), someAssignment())
			errs = append(errs, err)
		}
		return errs
	}
	a, b := run(), run()
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("call %d differs between identically seeded runs", i)
		}
		if a[i] != nil && a[i].Error() != b[i].Error() {
			t.Fatalf("call %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFaultRatesRoughlyHonored(t *testing.T) {
	cfg := Config{Seed: 3, TransientRate: 0.2, PermanentRate: 0.1}
	r := NewRunner(constRunner(1), cfg)
	n := 5000
	for i := 0; i < n; i++ {
		r.MeasureContext(context.Background(), someAssignment())
	}
	st := r.Stats()
	if got := float64(st.Transients) / float64(n); math.Abs(got-0.2) > 0.03 {
		t.Errorf("transient rate %.3f, want ≈0.20", got)
	}
	if got := float64(st.Permanents) / float64(n); math.Abs(got-0.1) > 0.02 {
		t.Errorf("permanent rate %.3f, want ≈0.10", got)
	}
	if st.Measured != n-st.Transients-st.Permanents {
		t.Errorf("stats don't add up: %+v", st)
	}
}

func TestFaultClassification(t *testing.T) {
	r := NewRunner(constRunner(1), Config{PermanentRate: 1})
	_, err := r.MeasureContext(context.Background(), someAssignment())
	if !core.IsPermanent(err) || !errors.Is(err, ErrInjectedPermanent) {
		t.Errorf("permanent fault misclassified: %v", err)
	}
	r = NewRunner(constRunner(1), Config{TransientRate: 1})
	_, err = r.MeasureContext(context.Background(), someAssignment())
	if core.IsPermanent(err) || !errors.Is(err, ErrInjected) {
		t.Errorf("transient fault misclassified: %v", err)
	}
}

func TestHangHonorsContext(t *testing.T) {
	r := NewRunner(constRunner(1), Config{HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.MeasureContext(ctx, someAssignment())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("hang ignored the context")
	}
	// Without a cancellable context the hang degrades to a transient
	// error instead of deadlocking.
	if _, err := r.MeasureContext(context.Background(), someAssignment()); !errors.Is(err, ErrInjected) {
		t.Errorf("uncancellable hang: err = %v", err)
	}
}

func TestSpikeDelaysButSucceeds(t *testing.T) {
	r := NewRunner(constRunner(9), Config{SpikeRate: 1, Spike: 10 * time.Millisecond})
	start := time.Now()
	perf, err := r.MeasureContext(context.Background(), someAssignment())
	if err != nil || perf != 9 {
		t.Fatalf("perf=%v err=%v", perf, err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("spike did not delay")
	}
}

// TestFaultyCampaignMatchesFaultFree is the acceptance scenario at the
// runner level: a campaign through the fault injector at a 20% transient
// rate, retried by a ResilientRunner, must measure exactly the same
// assignment set as a fault-free campaign.
func TestFaultyCampaignMatchesFaultFree(t *testing.T) {
	topo := t2.UltraSPARCT2()
	perfOf := func(a assign.Assignment) float64 {
		s := 0.0
		for i, c := range a.Ctx {
			s += float64((c*13+i*5)%89) / 89
		}
		return 500 + 50*s
	}
	base := core.ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) { return perfOf(a), nil })

	clean, _, err := core.CollectSampleContext(context.Background(),
		rand.New(rand.NewSource(11)), topo, 10, 400, base)
	if err != nil {
		t.Fatal(err)
	}

	faultyRunner := NewRunner(base, Config{Seed: 23, TransientRate: 0.2})
	resilient := core.NewResilientRunner(faultyRunner, core.ResilientConfig{
		MaxAttempts: 8,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Millisecond,
	})
	faulted, skipped, err := core.CollectSampleContext(context.Background(),
		rand.New(rand.NewSource(11)), topo, 10, 400, resilient)
	if err != nil {
		t.Fatal(err)
	}
	// 0.2^8 residual failure probability per measurement ⇒ quarantines
	// are possible but vanishingly rare; tolerate none for this seed.
	if len(skipped) != 0 {
		t.Fatalf("unexpected quarantines: %d", len(skipped))
	}
	if len(faulted) != len(clean) {
		t.Fatalf("measured %d, want %d", len(faulted), len(clean))
	}
	for i := range clean {
		if clean[i].Perf != faulted[i].Perf {
			t.Fatalf("measurement %d differs", i)
		}
		for j := range clean[i].Assignment.Ctx {
			if clean[i].Assignment.Ctx[j] != faulted[i].Assignment.Ctx[j] {
				t.Fatalf("assignment %d differs", i)
			}
		}
	}
	if st := faultyRunner.Stats(); st.Transients == 0 {
		t.Error("fault injector never fired; the test proves nothing")
	}
}
