package core

import (
	"fmt"
	"math"
)

// Planner answers campaign-planning questions from a finished estimate:
// the fitted tail model says how the best observed assignment would grow if
// the campaign continued, so the operator can decide whether more testbed
// hours are worth it *before* spending them. This generalizes the paper's
// empirical Figure 10 ("1000 → 5000 barely improves the best") into a
// predictive tool.
type Planner struct {
	est Estimate
	// exceedProb is the empirical probability that one random assignment
	// lands above the POT threshold.
	exceedProb float64
}

// NewPlanner builds a planner from an estimate produced by EstimateOptimal.
func NewPlanner(est Estimate) (*Planner, error) {
	if est.Report.N == 0 || est.Report.Fit.Exceedances == 0 {
		return nil, fmt.Errorf("core: estimate carries no sample metadata")
	}
	return &Planner{
		est:        est,
		exceedProb: float64(est.Report.Fit.Exceedances) / float64(est.Report.N),
	}, nil
}

// BestOfNQuantile returns the q-quantile (0 < q < 1) of the best
// performance among n future iid random assignments, under the fitted tail
// model: P(best ≤ x) = F(x)ⁿ with the tail of F modelled by the GPD above
// the threshold. It reports an error when the requested quantile falls
// below the POT threshold, where the tail model has no authority.
func (p *Planner) BestOfNQuantile(n int, q float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: n must be >= 1, got %d", n)
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("core: quantile must be in (0,1), got %v", q)
	}
	// F(x)^n = q  ⇒  1 − F(x) = 1 − q^{1/n}.
	tailProb := -math.Expm1(math.Log(q) / float64(n))
	if tailProb > p.exceedProb {
		return 0, fmt.Errorf("core: the q=%v best-of-%d lies below the POT threshold (tail prob %.4f > exceedance prob %.4f); sample more or ask about larger n",
			q, n, tailProb, p.exceedProb)
	}
	// Within the tail: 1 − F(x) = p_u · (1 − G(x − u)).
	g := 1 - tailProb/p.exceedProb
	y := p.est.Report.Fit.GPD.Quantile(g)
	return p.est.Report.Threshold.U + y, nil
}

// MedianBestOfN is BestOfNQuantile at q = 0.5.
func (p *Planner) MedianBestOfN(n int) (float64, error) { return p.BestOfNQuantile(n, 0.5) }

// ProbImprove returns the probability that n further random assignments
// contain one better than the current best observation.
func (p *Planner) ProbImprove(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: n must be >= 1, got %d", n)
	}
	best := p.est.BestObserved
	u := p.est.Report.Threshold.U
	var tail float64 // P(one sample > best)
	if best <= u {
		tail = p.exceedProb
	} else {
		tail = p.exceedProb * (1 - p.est.Report.Fit.GPD.CDF(best-u))
	}
	if tail <= 0 {
		return 0, nil
	}
	// 1 − (1 − tail)^n, computed stably.
	return -math.Expm1(float64(n) * math.Log1p(-tail)), nil
}
