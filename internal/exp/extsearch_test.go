package exp

import (
	"context"
	"errors"
	"testing"

	"optassign/internal/core"
	"optassign/internal/search"
)

// TestSearchStrategiesHonorLossPromiseOnRealPopulation closes the loop the
// same way capture_test.go does for §3.1: on the exhaustively-enumerated
// 6-thread IPFwd-intadd population the true optimum is known, so the §5.3
// stopping promise is checkable against ground truth per strategy. Every
// tail-safe strategy that stops satisfied must have realized a loss within
// the promised bound — the strategy changes how draws are generated, never
// what the certificate means.
func TestSearchStrategiesHonorLossPromiseOnRealPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates the population and runs a campaign per strategy")
	}
	env := NewEnv(1)
	fig3, err := Figure3(env)
	if err != nil {
		t.Fatal(err)
	}
	trueOpt := fig3.ECDF.Max()

	tb, err := env.Testbed("IPFwd-intadd", Figure1Instances)
	if err != nil {
		t.Fatal(err)
	}
	const promise = 4.0
	for _, name := range search.Names {
		strat, err := search.New(name, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.IterConfig{
			Topo:          tb.Machine.Topo,
			Tasks:         tb.TaskCount(),
			AcceptLossPct: promise,
			Ninit:         600,
			Ndelta:        150,
			MaxSamples:    4000,
			Seed:          env.Seed,
			Strategy:      strat,
		}
		res, err := core.IterateContext(context.Background(), cfg, tb)
		if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
			t.Fatalf("%s: %v", name, err)
		}
		realized := (trueOpt - res.Best.Perf) / trueOpt * 100
		t.Logf("%s: satisfied=%t samples=%d best=%.6g realized loss %.3f%%",
			name, res.Satisfied, res.Samples, res.Best.Perf, realized)
		if res.Satisfied && realized > promise {
			t.Errorf("%s stopped satisfied but realized loss %.3f%% breaks the %.1f%% promise",
				name, realized, promise)
		}
		if !strat.TailSafe() {
			continue
		}
		// Tail-safe strategies must actually converge on this easy
		// population within the budget — a strategy that stalls here is
		// broken, not just unlucky.
		if !res.Satisfied {
			t.Errorf("tail-safe strategy %s exhausted the %d-sample budget without satisfying the promise", name, cfg.MaxSamples)
		}
	}
}
