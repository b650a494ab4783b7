package calibrate

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/search"
)

// IterConfig parameterizes the calibration of the §5.3 iterative
// algorithm's stopping rule against a discrete population with a known
// optimum.
type IterConfig struct {
	// Replications is the number of independent campaigns (default 200 —
	// each replication is a full iterative campaign, not a single
	// analysis).
	Replications int
	// AcceptLossPct is the promised X%: the algorithm claims the best
	// observed assignment is within X% of the optimum when it stops
	// satisfied (default 5).
	AcceptLossPct float64
	// Ninit, Ndelta, MaxSamples configure the loop as in core.IterConfig;
	// zero values use calibration-friendly defaults (500/100/3000) rather
	// than the paper's production 1000/100/20000, keeping thousands of
	// campaigns affordable.
	Ninit, Ndelta, MaxSamples int
	// POT configures the estimator inside the loop.
	POT evt.POTOptions
	// Seed derives per-replication campaign seeds.
	Seed int64
	// Workers bounds the fan-out; results are worker-count invariant.
	Workers int
	// Metrics, when non-nil, counts campaigns as they finish.
	Metrics *Metrics
	// NewStrategy constructs the per-replication search strategy
	// (strategies are stateful, so every campaign needs a fresh one).
	// nil runs the paper's uniform baseline. StrategyName labels the
	// result; it defaults to "uniform".
	NewStrategy  func() (search.Strategy, error)
	StrategyName string
}

func (c IterConfig) withDefaults() IterConfig {
	if c.Replications <= 0 {
		c.Replications = 200
	}
	if c.AcceptLossPct <= 0 {
		c.AcceptLossPct = 5
	}
	if c.Ninit <= 0 {
		c.Ninit = 500
	}
	if c.Ndelta <= 0 {
		c.Ndelta = 100
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 3000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// IterResult reports how the stopping rule's promise held up.
type IterResult struct {
	Scenario      string  `json:"scenario"`
	Strategy      string  `json:"strategy,omitempty"`
	TrueOptimum   float64 `json:"true_optimum"`
	Replications  int     `json:"replications"`
	AcceptLossPct float64 `json:"accept_loss_pct"`

	// Satisfied counts campaigns that stopped claiming the requirement
	// met; Exhausted those that ran out of budget; Failed those that ended
	// in an estimation error.
	Satisfied int `json:"satisfied"`
	Exhausted int `json:"exhausted"`
	Failed    int `json:"failed"`

	// Violations counts satisfied campaigns whose *realized* loss
	// (true − best)/true·100 exceeded the promised AcceptLossPct — the
	// guarantee breaking. ViolationRate is Violations/Satisfied. The
	// stopping rule thresholds on the CI's upper bound at confidence
	// 1−α, so the violation rate should be far below α.
	Violations    int     `json:"violations"`
	ViolationRate float64 `json:"violation_rate"`

	// MeanRealizedLossPct and MaxRealizedLossPct summarize the realized
	// loss over satisfied campaigns; MeanSamples the measurement cost.
	MeanRealizedLossPct float64 `json:"mean_realized_loss_pct"`
	MaxRealizedLossPct  float64 `json:"max_realized_loss_pct"`
	MeanSamples         float64 `json:"mean_samples"`
}

type iterOutcome struct {
	status      string // "satisfied", "exhausted", "failed"
	realizedPct float64
	samples     int
}

// RunIterative calibrates the iterative algorithm against pop: every
// replication runs a complete core.IterateContext campaign (fresh seed,
// fresh draws) on the population's landscape and compares the claimed
// loss bound with the realized loss against the known optimum.
func RunIterative(cfg IterConfig, pop AssignPop) (IterResult, error) {
	cfg = cfg.withDefaults()
	truth := pop.TrueOptimum()
	if !(truth > 0) {
		return IterResult{}, fmt.Errorf("calibrate: population optimum must be positive, got %v", truth)
	}
	runner := pop.Runner()

	outcomes := make([]iterOutcome, cfg.Replications)
	fanOut(cfg.Replications, cfg.Workers, func(r int) error {
		outcomes[r] = iterReplicate(cfg, pop, truth, runner, r)
		if m := cfg.Metrics; m != nil {
			m.Replications.Inc()
		}
		return nil
	})

	res := IterResult{
		Scenario:      pop.Name(),
		Strategy:      cfg.StrategyName,
		TrueOptimum:   truth,
		Replications:  cfg.Replications,
		AcceptLossPct: cfg.AcceptLossPct,
	}
	if res.Strategy == "" {
		res.Strategy = "uniform"
	}
	var sumLoss, sumSamples float64
	for _, o := range outcomes {
		sumSamples += float64(o.samples)
		switch o.status {
		case "satisfied":
			res.Satisfied++
			sumLoss += o.realizedPct
			if o.realizedPct > res.MaxRealizedLossPct {
				res.MaxRealizedLossPct = o.realizedPct
			}
			if o.realizedPct > cfg.AcceptLossPct {
				res.Violations++
			}
		case "exhausted":
			res.Exhausted++
		default:
			res.Failed++
		}
	}
	if res.Satisfied > 0 {
		res.ViolationRate = float64(res.Violations) / float64(res.Satisfied)
		res.MeanRealizedLossPct = sumLoss / float64(res.Satisfied)
	}
	if cfg.Replications > 0 {
		res.MeanSamples = sumSamples / float64(cfg.Replications)
	}
	return res, nil
}

// iterReplicate runs one full campaign.
func iterReplicate(cfg IterConfig, pop AssignPop, truth float64, runner core.ContextRunner, r int) iterOutcome {
	var strat search.Strategy
	if cfg.NewStrategy != nil {
		var err error
		strat, err = cfg.NewStrategy()
		if err != nil {
			return iterOutcome{status: "failed"}
		}
	}
	result, err := core.IterateContext(context.Background(), core.IterConfig{
		Topo:          pop.Topo(),
		Tasks:         pop.Tasks(),
		AcceptLossPct: cfg.AcceptLossPct,
		Ninit:         cfg.Ninit,
		Ndelta:        cfg.Ndelta,
		MaxSamples:    cfg.MaxSamples,
		POT:           cfg.POT,
		Seed:          repSeed(cfg.Seed, r),
		Strategy:      strat,
	}, runner)
	o := iterOutcome{samples: result.Samples}
	switch {
	case err == nil && result.Satisfied:
		o.status = "satisfied"
		o.realizedPct = (truth - result.Best.Perf) / truth * 100
	case errors.Is(err, core.ErrBudgetExhausted):
		o.status = "exhausted"
	default:
		o.status = "failed"
	}
	return o
}
