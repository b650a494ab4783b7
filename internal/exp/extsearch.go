package exp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"optassign/internal/core"
	"optassign/internal/search"
)

// SearchStrategyCell is one strategy's outcome on the shared case-study
// campaign: how many measurements it needed to reach (or fail to reach)
// the same §5.3 stopping promise, and what its fit-relevant sample looked
// like.
type SearchStrategyCell struct {
	Strategy  string
	TailSafe  bool
	Satisfied bool
	Samples   int     // measurements consumed
	Explore   int     // adaptive draws excluded from the EVT fit
	Best      float64 // best measured performance
	// Estimated reports whether the campaign produced an estimate at all;
	// without one (a strategy that is not tail-safe, or a tail never
	// bounded) Optimal, Lo, Hi and LossBound are zero and mean nothing.
	Estimated bool
	Optimal   float64 // estimated optimum at stop
	Lo, Hi    float64 // its 0.95 confidence interval
	LossBound float64 // guaranteed loss bound at stop, percent
}

// searchStudyLossPct is the promise every strategy runs under. It is
// deliberately tight (0.1%, not the case study's 2.5%): on IPFwd-L1 the
// first fit already certifies ~0.45% at n=500, so an easy promise makes
// every policy stop immediately and the table says nothing. The tight
// promise is where draw policy matters.
const searchStudyLossPct = 0.1

// SearchStrategyStudy runs the §5.3 campaign once per built-in search
// strategy on the IPFwd-L1 case study (8 instances, 24 threads), identical
// promise, budget and seed, and reports what each draw policy costs: does
// a smarter sampler reach the same guaranteed loss bound with fewer
// testbed runs, and what does it give up? Exploration draws (greedy's
// hill-climbing moves, anneal's walk) are counted separately — they are
// excluded from the EVT fit, so a strategy that explores a lot pays for
// draws that buy it no statistical confidence. Two structural effects
// show up here: stratified collapses to uniform because the 24-task class
// space dwarfs its enumeration cap (rejection mode never rejects), and
// greedy closes the gap from the *best* side — climbing finds assignments
// the i.i.d. policies need thousands of draws to stumble on, while its
// clean i.i.d. subsample keeps the certificate honest. The calibration
// twin of this table (known-optimum populations, hundreds of
// replications) lives in internal/calibrate and gates CI; this study
// shows the same contrast on the realistic testbed.
func SearchStrategyStudy(env *Env) ([]SearchStrategyCell, error) {
	tb, err := env.Testbed("IPFwd-L1", CaseStudyInstances)
	if err != nil {
		return nil, err
	}
	runner := core.ContextRunner(tb)
	if env.Resilience != nil {
		runner = core.NewResilientRunner(runner, *env.Resilience)
	}
	var cells []SearchStrategyCell
	for _, name := range search.Names {
		strat, err := search.New(name, nil, nil)
		if err != nil {
			return nil, err
		}
		explore := 0
		cfg := core.IterConfig{
			Topo:          tb.Machine.Topo,
			Tasks:         tb.TaskCount(),
			AcceptLossPct: searchStudyLossPct,
			Ninit:         500,
			Ndelta:        200,
			MaxSamples:    6000,
			Seed:          env.Seed,
			Strategy:      strat,
			OnRound:       func(r core.Round) { explore += r.Explore },
		}
		res, err := core.IterateContext(context.Background(), cfg, runner)
		if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
			return nil, fmt.Errorf("exp: strategy %s: %w", name, err)
		}
		cells = append(cells, SearchStrategyCell{
			Strategy:  name,
			TailSafe:  strat.TailSafe(),
			Satisfied: res.Satisfied,
			Samples:   res.Samples,
			Explore:   explore,
			Best:      res.Best.Perf,
			Estimated: len(res.History) > 0,
			Optimal:   res.Final.Optimal,
			Lo:        res.Final.Lo,
			Hi:        res.Final.Hi,
			LossBound: res.Final.HeadroomHiPct,
		})
	}
	return cells, nil
}

// PrintSearchStrategyStudy renders the strategy comparison table.
func PrintSearchStrategyStudy(w io.Writer, cells []SearchStrategyCell) {
	fmt.Fprintln(w, "Extension: search strategies on the IPFwd-L1 case study (same promise, budget and seed)")
	fmt.Fprintf(w, "%-12s %-9s %-9s %8s %8s %12s %12s %10s\n",
		"strategy", "tailsafe", "stopped", "samples", "explore", "best PPS", "est. opt", "loss<=%")
	for _, c := range cells {
		stopped := "budget"
		if c.Satisfied {
			stopped = "promise"
		}
		opt, bound := "none", "none"
		if c.Estimated {
			opt, bound = fmt.Sprintf("%.6g", c.Optimal), fmt.Sprintf("%.2f", c.LossBound)
		}
		fmt.Fprintf(w, "%-12s %-9t %-9s %8d %8d %12.6g %12s %10s\n",
			c.Strategy, c.TailSafe, stopped, c.Samples, c.Explore, c.Best, opt, bound)
	}
	fmt.Fprintln(w, "(exploration draws are excluded from the EVT fit; strategies that are not tail-safe have no estimate and no stopping rule, and run to the budget)")
}
