// Package evt implements the Extreme Value Theory machinery of the paper:
// the Generalized Pareto Distribution (GPD), the Peak-Over-Threshold (POT)
// method with sample mean-excess threshold diagnostics, maximum-likelihood
// parameter estimation (the likelihood the authors maximized with Matlab's
// fminsearch, maximized exactly by Newton's method on its one-dimensional
// profile), the Upper Performance Bound (UPB) point estimate u − σ/ξ, and
// its profile-likelihood confidence interval via Wilks' theorem (paper
// §3.3).
package evt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// GPD is a Generalized Pareto Distribution over exceedances y >= 0 with
// shape Xi (ξ) and scale Sigma (σ):
//
//	G(y) = 1 − (1 + ξ·y/σ)^(−1/ξ)   for ξ ≠ 0
//	G(y) = 1 − e^(−y/σ)             for ξ = 0
//
// For ξ < 0 the support is the finite interval [0, −σ/ξ]; that finite right
// endpoint is what makes the GPD the right model for estimating the optimal
// (best possible) performance of a finite physical system.
type GPD struct {
	Xi    float64 // shape ξ
	Sigma float64 // scale σ > 0
}

// ErrInvalidScale reports a non-positive σ.
var ErrInvalidScale = errors.New("evt: GPD scale must be positive")

// Validate checks that the parameters define a proper distribution.
func (g GPD) Validate() error {
	if !(g.Sigma > 0) || math.IsInf(g.Sigma, 0) || math.IsNaN(g.Xi) {
		return ErrInvalidScale
	}
	return nil
}

// RightEndpoint returns the upper bound of the support: −σ/ξ for ξ < 0 and
// +Inf otherwise.
func (g GPD) RightEndpoint() float64 {
	if g.Xi < 0 {
		return -g.Sigma / g.Xi
	}
	return math.Inf(1)
}

// CDF returns G(y).
func (g GPD) CDF(y float64) float64 {
	if y <= 0 {
		return 0
	}
	if g.Xi == 0 {
		return 1 - math.Exp(-y/g.Sigma)
	}
	t := 1 + g.Xi*y/g.Sigma
	if t <= 0 {
		// Beyond the right endpoint for ξ<0.
		if g.Xi < 0 {
			return 1
		}
		return 0
	}
	return 1 - math.Pow(t, -1/g.Xi)
}

// PDF returns the density g(y) = (1/σ)(1 + ξy/σ)^(−1/ξ−1).
func (g GPD) PDF(y float64) float64 {
	if y < 0 {
		return 0
	}
	if g.Xi == 0 {
		return math.Exp(-y/g.Sigma) / g.Sigma
	}
	t := 1 + g.Xi*y/g.Sigma
	if t <= 0 {
		return 0
	}
	return math.Pow(t, -1/g.Xi-1) / g.Sigma
}

// LogPDF returns log g(y), or −Inf outside the support.
func (g GPD) LogPDF(y float64) float64 {
	if y < 0 {
		return math.Inf(-1)
	}
	if g.Xi == 0 {
		return -y/g.Sigma - math.Log(g.Sigma)
	}
	t := 1 + g.Xi*y/g.Sigma
	if t <= 0 {
		return math.Inf(-1)
	}
	return -math.Log(g.Sigma) - (1/g.Xi+1)*math.Log(t)
}

// Quantile returns the p-quantile G⁻¹(p) for p in [0, 1).
func (g GPD) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return g.RightEndpoint()
	}
	if g.Xi == 0 {
		return -g.Sigma * math.Log(1-p)
	}
	return g.Sigma / g.Xi * (math.Pow(1-p, -g.Xi) - 1)
}

// Mean returns the expectation σ/(1−ξ), defined for ξ < 1.
func (g GPD) Mean() float64 {
	if g.Xi >= 1 {
		return math.Inf(1)
	}
	return g.Sigma / (1 - g.Xi)
}

// Variance returns σ²/((1−ξ)²(1−2ξ)), defined for ξ < 1/2.
func (g GPD) Variance() float64 {
	if g.Xi >= 0.5 {
		return math.Inf(1)
	}
	d := 1 - g.Xi
	return g.Sigma * g.Sigma / (d * d * (1 - 2*g.Xi))
}

// Rand draws a variate by inverse-transform sampling.
func (g GPD) Rand(rng *rand.Rand) float64 {
	return g.Quantile(rng.Float64())
}

// Sample draws n iid variates.
func (g GPD) Sample(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Rand(rng)
	}
	return out
}

// LogLikelihood returns Σ log g(y_i) for the exceedances ys, −Inf if any
// observation falls outside the support.
//
// It is the inner loop of every maximum-likelihood fit, so log σ and the
// exponent 1/ξ+1 are computed once per call rather than once per term.
// Each term is the same expression LogPDF evaluates, summed in the same
// order, so the result is bitwise-equal to summing LogPDF over ys.
func (g GPD) LogLikelihood(ys []float64) float64 {
	logSigma := math.Log(g.Sigma)
	var sum float64
	if g.Xi == 0 {
		for _, y := range ys {
			if y < 0 {
				return math.Inf(-1)
			}
			lp := -y/g.Sigma - logSigma
			if math.IsInf(lp, -1) {
				return math.Inf(-1)
			}
			sum += lp
		}
		return sum
	}
	a := 1/g.Xi + 1
	for _, y := range ys {
		t := 1 + g.Xi*y/g.Sigma
		if y < 0 || t <= 0 {
			return math.Inf(-1)
		}
		lp := -logSigma - a*math.Log(t)
		if math.IsInf(lp, -1) {
			return math.Inf(-1)
		}
		sum += lp
	}
	return sum
}

// String implements fmt.Stringer.
func (g GPD) String() string {
	return fmt.Sprintf("GPD(ξ=%.4g, σ=%.4g)", g.Xi, g.Sigma)
}
