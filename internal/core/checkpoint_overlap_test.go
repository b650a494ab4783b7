package core_test

// Checkpoint-overlap contract: IteratePool runs each refit's OnRefit
// hook on a second goroutine beside the next round's measurements and
// commits. These tests pin what that may and may not change. The hook
// really runs beside the next round; at most one is in flight, in refit
// order, with the states the loop refitted; its error stops the campaign
// one round later, or at once when its refit ended the campaign; and no
// hook outlives the call. Run them under -race: the hook's state is a
// snapshot the loop never touches again, and the detector checks it.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/evt"
)

var errCheckpoint = errors.New("checkpoint write failed")

// countingRunner measures hashPerf. Before the n-th measurement (from 1,
// counted across workers) it calls at(n), if set; a non-nil result fails
// that measurement.
func countingRunner(at func(n int) error) core.ContextRunner {
	var calls atomic.Int64
	return core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		n := int(calls.Add(1))
		if at != nil {
			if err := at(n); err != nil {
				return 0, err
			}
		}
		return hashPerf(a), nil
	})
}

// overlapWorkers are the pool sizes every contract is checked on.
var overlapWorkers = []int{1, 3}

func runOverlap(t *testing.T, ctx context.Context, workers int, cfg core.IterConfig, runner core.ContextRunner, commit core.CommitFunc) (core.IterResult, error) {
	t.Helper()
	pool, err := core.NewReplicatedPool(runner, workers)
	if err != nil {
		t.Fatal(err)
	}
	return core.IteratePool(ctx, cfg, pool, core.BatchOptions{}, commit)
}

// TestCheckpointOverlapHookBesideNextRound: the first refit's hook
// waits until the next round's first measurement has started. Run
// inline, it would wait for itself and time out.
func TestCheckpointOverlapHookBesideNextRound(t *testing.T) {
	for _, workers := range overlapWorkers {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := drawAheadConfig(0.1)
			measuring := make(chan struct{})
			runner := countingRunner(func(n int) error {
				if n == cfg.Ninit+1 {
					close(measuring)
				}
				return nil
			})
			var calls atomic.Int32
			cfg.OnRefit = func(evt.StreamState) error {
				if calls.Add(1) > 1 {
					return nil
				}
				select {
				case <-measuring:
					return nil
				case <-time.After(5 * time.Second):
					return errors.New("the next round never started: the hook ran inline")
				}
			}
			if _, err := runOverlap(t, context.Background(), workers, cfg, runner, nil); !errors.Is(err, core.ErrBudgetExhausted) {
				t.Fatalf("err = %v, want the budget exhausted", err)
			}
		})
	}
}

// TestCheckpointOverlapOrderAndStates: hooks that take longer than a
// round still run one at a time, in refit order, and receive exactly the
// states — and leave exactly the result — of a run whose hook returns at
// once.
func TestCheckpointOverlapOrderAndStates(t *testing.T) {
	for _, loss := range []float64{1, 0.1} {
		for _, workers := range overlapWorkers {
			t.Run(fmt.Sprintf("loss%v-workers%d", loss, workers), func(t *testing.T) {
				cfg := drawAheadConfig(loss)
				var quick []evt.StreamState
				cfg.OnRefit = func(st evt.StreamState) error { quick = append(quick, st); return nil }
				want, wantErr := runOverlap(t, context.Background(), workers, cfg, countingRunner(nil), nil)

				var slow []evt.StreamState
				var active atomic.Int32
				cfg.OnRefit = func(st evt.StreamState) error {
					if n := active.Add(1); n > 1 {
						t.Errorf("%d hooks in flight", n)
					}
					defer active.Add(-1)
					time.Sleep(2 * time.Millisecond)
					slow = append(slow, st)
					return nil
				}
				got, gotErr := runOverlap(t, context.Background(), workers, cfg, countingRunner(nil), nil)

				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("err = %v, want %v", gotErr, wantErr)
				}
				if len(quick) < 3 {
					t.Fatalf("%d refits; the comparison needs several", len(quick))
				}
				if !reflect.DeepEqual(slow, quick) {
					t.Fatalf("a slow hook saw %d states, not the %d states of a quick one", len(slow), len(quick))
				}
				for i := 1; i < len(slow); i++ {
					if slow[i].RefitCount != slow[i-1].RefitCount+1 || slow[i].N <= slow[i-1].N {
						t.Fatalf("state %d (refit %d, n %d) does not follow refit %d, n %d",
							i, slow[i].RefitCount, slow[i].N, slow[i-1].RefitCount, slow[i-1].N)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("a slow hook changed the campaign's result")
				}
			})
		}
	}
}

// TestCheckpointOverlapErrorAtNextBoundary: a hook that fails at refit r
// stops a campaign that goes on after the next round's collect, with at
// most Ndelta draws committed past refit r and no further hook called.
func TestCheckpointOverlapErrorAtNextBoundary(t *testing.T) {
	cases := []struct {
		loss   float64
		failAt int // the refit whose hook fails, from 1
		n      int // samples at that refit
	}{
		{1, 1, 100},   // would certify at refit 3
		{0.1, 2, 130}, // would run to the budget
		{0.1, 5, 220},
	}
	for _, c := range cases {
		for _, workers := range overlapWorkers {
			t.Run(fmt.Sprintf("loss%v-refit%d-workers%d", c.loss, c.failAt, workers), func(t *testing.T) {
				cfg := drawAheadConfig(c.loss)
				calls := 0
				cfg.OnRefit = func(evt.StreamState) error {
					calls++
					if calls == c.failAt {
						return errCheckpoint
					}
					return nil
				}
				commits := 0
				res, err := runOverlap(t, context.Background(), workers, cfg, countingRunner(nil),
					func(assign.Assignment, float64, error) error { commits++; return nil })
				if !errors.Is(err, errCheckpoint) {
					t.Fatalf("err = %v, want the hook's error", err)
				}
				if want := fmt.Sprintf("core: refit hook at %d samples", c.n); !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %q, want it to name %q", err, want)
				}
				if res.Samples < c.n || res.Samples > c.n+cfg.Ndelta || commits != res.Samples {
					t.Fatalf("stopped at %d samples, %d commits; want one round of at most %d past %d",
						res.Samples, commits, cfg.Ndelta, c.n)
				}
				if calls != c.failAt {
					t.Fatalf("%d hooks called, want %d", calls, c.failAt)
				}
			})
		}
	}
}

// TestCheckpointOverlapFinalHookError: a campaign that stops at the
// refit whose hook fails — certified or out of budget — returns the
// hook's error, not its stop.
func TestCheckpointOverlapFinalHookError(t *testing.T) {
	cases := []struct {
		name string
		loss float64
		n    int // samples at the final refit
	}{
		{"certified-round1", 5, 100},
		{"certified-round3", 1, 160},
		{"budget", 0.1, 250},
	}
	for _, c := range cases {
		for _, workers := range overlapWorkers {
			t.Run(fmt.Sprintf("%s-workers%d", c.name, workers), func(t *testing.T) {
				cfg := drawAheadConfig(c.loss)
				cfg.OnRefit = func(st evt.StreamState) error {
					if st.N == c.n {
						return errCheckpoint
					}
					return nil
				}
				res, err := runOverlap(t, context.Background(), workers, cfg, countingRunner(nil), nil)
				if !errors.Is(err, errCheckpoint) {
					t.Fatalf("err = %v, want the final hook's error", err)
				}
				if want := fmt.Sprintf("at %d samples", c.n); !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %q, want it to name %q", err, want)
				}
				if res.Samples != c.n || res.Satisfied {
					t.Fatalf("%d samples, satisfied %v; want %d, unsatisfied", res.Samples, res.Satisfied, c.n)
				}
			})
		}
	}
}

// TestCheckpointOverlapNoHookOutlivesCall: on every return path no hook
// is running when IteratePool returns, and none starts afterwards. Each
// hook sleeps, and where the path fails mid-round the first hook holds
// until the failing measurement, so a hook is in flight when the
// campaign decides to return.
func TestCheckpointOverlapNoHookOutlivesCall(t *testing.T) {
	errMeasure := errors.New("testbed lost")
	const failAt = 115 // a measurement in the round after the first refit
	cases := []struct {
		name string
		loss float64
		// mod adjusts the config; failing is closed by the failing
		// measurement or commit, if the path has one.
		mod     func(cfg *core.IterConfig)
		runner  func(cancel context.CancelFunc, failing chan struct{}) core.ContextRunner
		commit  func(failing chan struct{}) core.CommitFunc
		wantErr func(error) bool
	}{
		{name: "certified", loss: 5, wantErr: func(err error) bool { return err == nil }},
		{name: "budget", loss: 0.1, wantErr: func(err error) bool { return errors.Is(err, core.ErrBudgetExhausted) }},
		{name: "refit-error", loss: 1, mod: func(cfg *core.IterConfig) {
			cfg.Ninit = 20
			cfg.POT = evt.POTOptions{}
		}, wantErr: func(err error) bool { return errors.Is(err, evt.ErrSampleTooSmall) }},
		{name: "hook-error", loss: 0.1, mod: func(cfg *core.IterConfig) {
			hook := cfg.OnRefit
			cfg.OnRefit = func(st evt.StreamState) error {
				hook(st)
				return errCheckpoint
			}
		}, wantErr: func(err error) bool { return errors.Is(err, errCheckpoint) }},
		{name: "measure-error", loss: 0.1, runner: func(_ context.CancelFunc, failing chan struct{}) core.ContextRunner {
			return countingRunner(func(n int) error {
				if n == failAt {
					close(failing)
					return errMeasure
				}
				return nil
			})
		}, wantErr: func(err error) bool { return errors.Is(err, errMeasure) }},
		{name: "commit-error", loss: 0.1, commit: func(failing chan struct{}) core.CommitFunc {
			n := 0
			return func(assign.Assignment, float64, error) error {
				if n++; n == failAt {
					close(failing)
					return errMeasure
				}
				return nil
			}
		}, wantErr: func(err error) bool { return errors.Is(err, errMeasure) }},
		{name: "cancelled", loss: 0.1, runner: func(cancel context.CancelFunc, failing chan struct{}) core.ContextRunner {
			return countingRunner(func(n int) error {
				if n == failAt {
					cancel()
					close(failing)
				}
				return nil
			})
		}, wantErr: func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, c := range cases {
		for _, workers := range overlapWorkers {
			t.Run(fmt.Sprintf("%s-workers%d", c.name, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				failing := make(chan struct{})
				var active, calls atomic.Int32
				cfg := drawAheadConfig(c.loss)
				cfg.OnRefit = func(evt.StreamState) error {
					active.Add(1)
					defer active.Add(-1)
					if calls.Add(1) == 1 && (c.runner != nil || c.commit != nil) {
						select {
						case <-failing:
						case <-time.After(5 * time.Second):
							t.Error("the failing draw was never reached")
						}
					}
					time.Sleep(time.Millisecond)
					return nil
				}
				if c.mod != nil {
					c.mod(&cfg)
				}
				runner := countingRunner(nil)
				if c.runner != nil {
					runner = c.runner(cancel, failing)
				}
				var commit core.CommitFunc
				if c.commit != nil {
					commit = c.commit(failing)
				}
				_, err := runOverlap(t, ctx, workers, cfg, runner, commit)
				if !c.wantErr(err) {
					t.Fatalf("err = %v", err)
				}
				if n := active.Load(); n != 0 {
					t.Fatalf("%d hooks in flight after return", n)
				}
				n := calls.Load()
				time.Sleep(5 * time.Millisecond)
				if got := calls.Load(); got != n {
					t.Fatalf("%d hooks called after return", got-n)
				}
			})
		}
	}
}
