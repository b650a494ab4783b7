package exp

import (
	"context"
	"errors"
	"strings"
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

// TestPrintSearchStrategyStudyNoEstimate renders a tail-safe cell beside
// one whose strategy is not tail-safe: the latter must print no optimum
// and no loss bound, rather than zeros that read as a certificate.
func TestPrintSearchStrategyStudyNoEstimate(t *testing.T) {
	var b strings.Builder
	PrintSearchStrategyStudy(&b, []SearchStrategyCell{
		{Strategy: "greedy", TailSafe: true, Satisfied: true, Samples: 700, Explore: 180,
			Best: 1.5e6, Estimated: true, Optimal: 1.5007e6, LossBound: 0.05},
		{Strategy: "anneal", Samples: 6000, Explore: 150, Best: 1.49e6},
	})
	lines := strings.Split(b.String(), "\n")
	var greedy, anneal string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "greedy "):
			greedy = l
		case strings.HasPrefix(l, "anneal "):
			anneal = l
		}
	}
	if f := strings.Fields(greedy); len(f) != 8 || f[6] != "1.5007e+06" || f[7] != "0.05" {
		t.Errorf("estimated row = %q, want its optimum and loss bound", greedy)
	}
	if f := strings.Fields(anneal); len(f) != 8 || f[2] != "budget" || f[6] != "none" || f[7] != "none" {
		t.Errorf("no-estimate row = %q, want none under est. opt and loss<=%%", anneal)
	}
	if strings.Contains(b.String(), "advisory") ||
		!strings.Contains(b.String(), "have no estimate and no stopping rule, and run to the budget") {
		t.Errorf("footnote does not say non-tail-safe strategies go without an estimate:\n%s", b.String())
	}
}
