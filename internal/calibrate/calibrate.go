package calibrate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"optassign/internal/evt"
)

// Config parameterizes a coverage calibration run.
type Config struct {
	// Replications is the number of independent synthetic campaigns
	// (default 1000).
	Replications int
	// N is the sample size per replication (default 1000, the paper's
	// initial sample size).
	N int
	// Seed derives every replication's RNG stream.
	Seed int64
	// POT configures the pipeline under test; the zero value is the
	// production default (RuleAuto, 5% cap, 95% confidence).
	POT evt.POTOptions
	// Workers bounds the replication fan-out (default GOMAXPROCS). The
	// result is byte-identical for every worker count: replication r always
	// uses repSeed(Seed, r) and reductions run serially in replication
	// order.
	Workers int
	// Metrics, when non-nil, publishes live progress counters. It never
	// influences results.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Replications <= 0 {
		c.Replications = 1000
	}
	if c.N <= 0 {
		c.N = 1000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Result aggregates one scenario's calibration outcome.
type Result struct {
	Scenario    string  `json:"scenario"`
	TrueOptimum float64 `json:"true_optimum"`
	// Replications is the number attempted; Analyzed the number on which
	// evt.Analyze produced a report (the rest are tallied in Rejections).
	Replications int `json:"replications"`
	Analyzed     int `json:"analyzed"`
	N            int `json:"n"`

	// Nominal is the configured confidence level; Covered counts analyzed
	// replications whose interval contained the true optimum, and Coverage
	// is the empirical rate Covered/Analyzed with binomial standard error
	// CoverageSE.
	Nominal    float64 `json:"nominal"`
	Covered    int     `json:"covered"`
	Coverage   float64 `json:"coverage"`
	CoverageSE float64 `json:"coverage_se"`

	// MeanBiasPct is the mean signed error of the UPB point estimate,
	// (point − true)/true·100; MeanAbsErrPct the mean absolute error. Both
	// are over analyzed replications.
	MeanBiasPct   float64 `json:"mean_bias_pct"`
	MeanAbsErrPct float64 `json:"mean_abs_err_pct"`

	// MeanWidthPct is the mean CI width as a percentage of the true
	// optimum, over replications with a finite upper bound; UnboundedHi
	// counts intervals whose upper bound was +Inf (the ξ→0 degradation).
	// Unbounded intervals trivially cover from above, so both numbers are
	// reported rather than folded together.
	MeanWidthPct float64 `json:"mean_width_pct"`
	UnboundedHi  int     `json:"unbounded_hi"`

	// Rejections tallies failed replications by cause.
	Rejections map[string]int `json:"rejections,omitempty"`

	// Estimators reports cross-estimator agreement on the analyzed
	// replications.
	Estimators []EstimatorAgreement `json:"estimators,omitempty"`
}

// EstimatorAgreement summarizes one alternative estimator (PWM or moments)
// against the MLE that drives the pipeline.
type EstimatorAgreement struct {
	Method string `json:"method"`
	// Accepted counts replications where the estimator produced a fit;
	// Rejected counts typed refusals (degenerate tail, moments validity
	// wall, ...).
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// MeanAbsXiDiff is the mean |ξ̂_method − ξ̂_mle| over accepted
	// replications; MeanAbsUPBDiffPct the mean UPB disagreement as a
	// percentage of the true optimum (bounded fits only).
	MeanAbsXiDiff     float64 `json:"mean_abs_xi_diff"`
	MeanAbsUPBDiffPct float64 `json:"mean_abs_upb_diff_pct"`
}

// repOutcome is one replication's raw record, reduced serially after the
// fan-out so float accumulation order never depends on scheduling.
type repOutcome struct {
	ok        bool
	rejection string
	covered   bool
	point     float64
	lo, hi    float64
	est       []evt.EstimatorDiag
}

// Run executes the coverage calibration of pop under cfg: for each
// replication it draws an n-sample with that replication's derived seed,
// runs the full evt.Analyze pipeline, and checks the Wilks interval
// against the analytically known optimum.
func Run(cfg Config, pop Population) (Result, error) {
	cfg = cfg.withDefaults()
	truth := pop.TrueOptimum()
	if math.IsNaN(truth) || math.IsInf(truth, 0) {
		return Result{}, fmt.Errorf("calibrate: population %s has non-finite optimum %v", pop.Name(), truth)
	}
	alpha := cfg.POT.Alpha
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}

	outcomes := make([]repOutcome, cfg.Replications)
	fanOut(cfg.Replications, cfg.Workers, func(r int) error {
		outcomes[r] = replicate(cfg, pop, truth, r)
		if m := cfg.Metrics; m != nil {
			m.Replications.Inc()
			if outcomes[r].covered {
				m.Covered.Inc()
			}
			if !outcomes[r].ok {
				m.Rejected.Inc()
			}
		}
		return nil
	})

	res := Result{
		Scenario:     pop.Name(),
		TrueOptimum:  truth,
		Replications: cfg.Replications,
		N:            cfg.N,
		Nominal:      1 - alpha,
		Rejections:   make(map[string]int),
	}
	agree := map[string]*EstimatorAgreement{
		"pwm":     {Method: "pwm"},
		"moments": {Method: "moments"},
	}
	var sumBias, sumAbs, sumWidth float64
	finiteWidths := 0
	for _, o := range outcomes {
		if !o.ok {
			res.Rejections[o.rejection]++
			continue
		}
		res.Analyzed++
		if o.covered {
			res.Covered++
		}
		sumBias += (o.point - truth) / truth * 100
		sumAbs += math.Abs(o.point-truth) / truth * 100
		if math.IsInf(o.hi, 1) {
			res.UnboundedHi++
		} else {
			sumWidth += (o.hi - o.lo) / truth * 100
			finiteWidths++
		}
		var mle *evt.EstimatorDiag
		for i := range o.est {
			if o.est[i].Method == "mle" {
				mle = &o.est[i]
			}
		}
		for i := range o.est {
			d := o.est[i]
			a := agree[d.Method]
			if a == nil {
				continue
			}
			if d.Rejected {
				a.Rejected++
				continue
			}
			a.Accepted++
			if mle != nil {
				a.MeanAbsXiDiff += math.Abs(d.Xi - mle.Xi)
				if d.Bounded && mle.Bounded {
					a.MeanAbsUPBDiffPct += math.Abs(d.UPB-mle.UPB) / truth * 100
				}
			}
		}
	}
	if res.Analyzed > 0 {
		res.Coverage = float64(res.Covered) / float64(res.Analyzed)
		res.CoverageSE = math.Sqrt(res.Coverage * (1 - res.Coverage) / float64(res.Analyzed))
		res.MeanBiasPct = sumBias / float64(res.Analyzed)
		res.MeanAbsErrPct = sumAbs / float64(res.Analyzed)
	}
	if finiteWidths > 0 {
		res.MeanWidthPct = sumWidth / float64(finiteWidths)
	}
	for _, method := range []string{"pwm", "moments"} {
		a := agree[method]
		if a.Accepted > 0 {
			a.MeanAbsXiDiff /= float64(a.Accepted)
			a.MeanAbsUPBDiffPct /= float64(a.Accepted)
		}
		res.Estimators = append(res.Estimators, *a)
	}
	if m := cfg.Metrics; m != nil && res.Analyzed > 0 {
		m.Coverage.Set(res.Coverage)
	}
	return res, nil
}

// fanOut runs fn for every replication r in [0, n) on at most workers
// goroutines and returns the error of the lowest failing replication.
// Each replication writes only its own outcome slot, and every reduction
// runs serially afterwards in replication order, so results never depend
// on scheduling or on the worker count.
func fanOut(n, workers int, fn func(r int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for r := 0; r < n; r++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replicate runs one synthetic campaign.
func replicate(cfg Config, pop Population, truth float64, r int) repOutcome {
	gen := rand.New(rand.NewSource(repSeed(cfg.Seed, r)))
	xs := pop.Sample(gen, cfg.N)
	rep, err := evt.Analyze(xs, cfg.POT)
	if err != nil {
		return repOutcome{rejection: rejectionCategory(err)}
	}
	return repOutcome{
		ok:      true,
		covered: rep.UPB.Lo <= truth && truth <= rep.UPB.Hi,
		point:   rep.UPB.Point,
		lo:      rep.UPB.Lo,
		hi:      rep.UPB.Hi,
		est:     rep.Estimators,
	}
}

// rejectionCategory buckets an Analyze error for the Rejections tally.
func rejectionCategory(err error) string {
	switch {
	case errors.Is(err, evt.ErrDegenerateTail):
		return "degenerate_tail"
	case errors.Is(err, evt.ErrSampleTooSmall):
		return "sample_too_small"
	case errors.Is(err, evt.ErrUnboundedTail):
		return "unbounded_tail"
	default:
		return "other"
	}
}

// Sensitivity reruns the coverage study across threshold caps: one Result
// per MaxExceedFraction in fractions, everything else held fixed. It
// quantifies §3.3.2 Step 2's judgment call — how much the guarantee moves
// when the threshold keeps more or less of the tail.
func Sensitivity(cfg Config, pop Population, fractions []float64) ([]Result, error) {
	out := make([]Result, 0, len(fractions))
	for _, f := range fractions {
		c := cfg
		c.POT.Threshold.MaxExceedFraction = f
		res, err := Run(c, pop)
		if err != nil {
			return nil, fmt.Errorf("calibrate: sensitivity at fraction %g: %w", f, err)
		}
		res.Scenario = fmt.Sprintf("%s @cap=%g", pop.Name(), f)
		out = append(out, res)
	}
	return out, nil
}
