package calibrate

import (
	"fmt"
	"io"

	"optassign/internal/search"
)

// StrategySpec names a strategy factory for the comparison studies.
// Strategies are stateful, so every replication gets a fresh instance.
type StrategySpec struct {
	Name string
	New  func() (search.Strategy, error)
}

// BuiltinStrategies returns the four built-in strategies at their default
// parameters, uniform first (it is the baseline every comparison is
// relative to).
func BuiltinStrategies() []StrategySpec {
	specs := make([]StrategySpec, 0, len(search.Names))
	for _, name := range search.Names {
		name := name
		specs = append(specs, StrategySpec{
			Name: name,
			New:  func() (search.Strategy, error) { return search.New(name, nil, nil) },
		})
	}
	return specs
}

// SearchStudyConfig parameterizes the head-to-head strategy study: every
// built-in strategy runs the full iterative campaign against the same
// known-optimum population, and every tail-safe one additionally runs the
// coverage calibration on a continuous landscape.
type SearchStudyConfig struct {
	// Iter configures the per-strategy efficiency campaigns (the strategy
	// fields are overwritten per entry).
	Iter IterConfig
	// Coverage configures the per-strategy coverage calibration (ditto).
	Coverage SearchCoverageConfig
	// SkipCoverage drops the coverage half (for quick efficiency-only
	// runs).
	SkipCoverage bool
}

// SearchStudyResult reports the head-to-head comparison.
type SearchStudyResult struct {
	Efficiency []IterResult           `json:"efficiency"`
	Coverage   []SearchCoverageResult `json:"coverage,omitempty"`
	// UniformMeanSamples is the baseline cost; BestStrategy/BestSavingsPct
	// name the tail-safe, zero-violation strategy with the largest mean
	// measurement savings over uniform (savings ≤ 0 if none beats it).
	UniformMeanSamples float64 `json:"uniform_mean_samples"`
	BestStrategy       string  `json:"best_strategy"`
	BestSavingsPct     float64 `json:"best_savings_pct"`
}

// RunSearchStudy runs the strategy comparison: efficiency on effPop (the
// enumerated discrete population — the realistic tied landscape) and
// coverage on covPop (a continuous landscape, so coverage is measured
// against the analytic endpoint rather than a tie-dominated finite max).
func RunSearchStudy(cfg SearchStudyConfig, effPop *DiscretePopulation, covPop AssignPop) (SearchStudyResult, error) {
	specs := BuiltinStrategies()
	var res SearchStudyResult
	for _, spec := range specs {
		ic := cfg.Iter
		ic.StrategyName = spec.Name
		if spec.Name != "uniform" {
			ic.NewStrategy = spec.New
		}
		ir, err := RunIterative(ic, effPop)
		if err != nil {
			return SearchStudyResult{}, fmt.Errorf("calibrate: efficiency study, strategy %s: %w", spec.Name, err)
		}
		res.Efficiency = append(res.Efficiency, ir)
		if spec.Name == "uniform" {
			res.UniformMeanSamples = ir.MeanSamples
		}
	}
	for _, ir := range res.Efficiency {
		if ir.Strategy == "uniform" || ir.Violations > 0 || ir.Satisfied == 0 {
			continue
		}
		savings := (1 - ir.MeanSamples/res.UniformMeanSamples) * 100
		if savings > res.BestSavingsPct {
			res.BestSavingsPct = savings
			res.BestStrategy = ir.Strategy
		}
	}
	if !cfg.SkipCoverage {
		for _, spec := range specs {
			strat, err := spec.New()
			if err != nil {
				return SearchStudyResult{}, err
			}
			if !strat.TailSafe() {
				continue // no EVT fit to calibrate
			}
			cc := cfg.Coverage
			cc.StrategyName = spec.Name
			if spec.Name != "uniform" {
				cc.NewStrategy = spec.New
			}
			cr, err := RunSearchCoverage(cc, covPop)
			if err != nil {
				return SearchStudyResult{}, fmt.Errorf("calibrate: coverage study, strategy %s: %w", spec.Name, err)
			}
			res.Coverage = append(res.Coverage, cr)
		}
	}
	return res, nil
}

// PrintSearchStudy renders the head-to-head comparison table.
func PrintSearchStudy(w io.Writer, r SearchStudyResult) {
	fmt.Fprintf(w, "strategy efficiency (same promise, same population):\n")
	fmt.Fprintf(w, "  %-12s %9s %9s %9s %9s %11s %9s\n",
		"strategy", "satisfied", "exhausted", "violations", "samples", "vs uniform", "loss%")
	for _, ir := range r.Efficiency {
		vs := "baseline"
		if ir.Strategy != "uniform" && r.UniformMeanSamples > 0 {
			vs = fmt.Sprintf("%+.1f%%", (ir.MeanSamples/r.UniformMeanSamples-1)*100)
		}
		fmt.Fprintf(w, "  %-12s %9d %9d %9d %9.0f %11s %9.3f\n",
			ir.Strategy, ir.Satisfied, ir.Exhausted, ir.Violations, ir.MeanSamples, vs, ir.MeanRealizedLossPct)
	}
	if r.BestStrategy != "" {
		fmt.Fprintf(w, "  best: %s, %.1f%% fewer measurements than uniform with zero violations\n",
			r.BestStrategy, r.BestSavingsPct)
	} else {
		fmt.Fprintf(w, "  best: none — no tail-safe strategy beat uniform without violations\n")
	}
	if len(r.Coverage) > 0 {
		fmt.Fprintf(w, "strategy coverage (tail-safe strategies, continuous landscape):\n")
		fmt.Fprintf(w, "  %-12s %9s %9s %9s %9s\n", "strategy", "coverage", "SE", "bias%", "draws")
		for _, cr := range r.Coverage {
			fmt.Fprintf(w, "  %-12s %9.4f %9.4f %+9.3f %9.0f\n",
				cr.Strategy, cr.Coverage, cr.CoverageSE, cr.MeanBiasPct, cr.MeanDraws)
		}
	}
}
