package evt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"optassign/internal/optimize"
	"optassign/internal/stats"
)

// Fit is the outcome of estimating GPD parameters from exceedances.
type Fit struct {
	GPD           GPD
	LogLikelihood float64
	Exceedances   int
	Method        string // "mle" or "moments"
}

// xiFloor bounds the shape parameter away from −1. Below ξ = −1 the GPD
// likelihood is unbounded (the density diverges at the right endpoint), so —
// as is standard practice for POT estimation — the search is restricted to
// ξ > −1, where the interior local maximum lives. Wilks-based intervals
// additionally assume ξ > −1/2 for full asymptotic regularity; diagnostics
// flag fits outside that region.
const xiFloor = -0.999

// ErrDegenerateTail reports an exceedance set with fewer than 3 distinct
// values — all ties, or nearly so. No two-parameter tail model is
// identifiable from such data (the likelihood degenerates toward a point
// mass), so every estimator rejects it up front instead of producing
// NaN/±Inf parameters. It wraps ErrSampleTooSmall: callers that already
// treat "not enough tail data" as a keep-sampling signal handle this case
// for free.
var ErrDegenerateTail = fmt.Errorf("%w: degenerate exceedances (fewer than 3 distinct values)", ErrSampleTooSmall)

// ErrMomentsUndefined reports a method-of-moments estimate pressed against
// the ξ = 1/2 validity wall. The estimator's formula ξ̂ = (1 − m²/v)/2 can
// never emit ξ̂ >= 1/2, but its *asymptotic variance* requires the sampled
// tail to have ξ < 1/2 (finite population variance): samples whose implied
// shape sits against the wall (v >> m², i.e. ξ̂ within 0.05 of 1/2) are the
// fingerprint of exactly that infinite-variance regime, where the estimate
// is noise. Rejecting with a typed error replaces the old silent clamp
// that handed callers a garbage fit.
var ErrMomentsUndefined = errors.New("evt: moment estimator undefined: implied shape is in the ξ >= 1/2 infinite-variance regime")

// momentShapeWall is the rejection bound for FitGPDMoments: implied shapes
// at or above it (equivalently v >= 10·m²) are treated as the ξ >= 1/2
// regime the moment estimator cannot see.
const momentShapeWall = 0.45

// ascending returns ys itself when it is already sorted ascending, as
// exceedance sets are, and a sorted copy otherwise. Callers only read the
// result.
func ascending(ys []float64) []float64 {
	if sort.Float64sAreSorted(ys) {
		return ys
	}
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	return sorted
}

// distinctValues counts the distinct values of ys (exactly, not within a
// tolerance — ties from quantized measurements are exactly equal floats).
func distinctValues(ys []float64) int {
	if len(ys) == 0 {
		return 0
	}
	sorted := ascending(ys)
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	return distinct
}

// MomentsEstimate returns the method-of-moments GPD estimate from
// exceedances ys, using
//
//	ξ̂ = (1 − m²/v)/2,  σ̂ = m(1 − ξ̂)
//
// where m and v are the sample mean and variance. It is both a cheap
// estimator in its own right (the ablation baseline) and the starting point
// of the maximum-likelihood search.
func MomentsEstimate(ys []float64) (GPD, error) {
	if len(ys) < 2 {
		return GPD{}, ErrSampleTooSmall
	}
	m := stats.Mean(ys)
	v := stats.Variance(ys)
	if !(m > 0) {
		return GPD{}, errors.New("evt: exceedances must be positive")
	}
	if !(v > 0) {
		return GPD{}, ErrDegenerateTail
	}
	xi := (1 - m*m/v) / 2
	if xi < xiFloor {
		xi = xiFloor + 0.01
	}
	if xi > 0.9 {
		xi = 0.9
	}
	sigma := m * (1 - xi)
	if sigma <= 0 {
		sigma = m
	}
	g := GPD{Xi: xi, Sigma: sigma}
	// The moments estimate can place the implied endpoint below the sample
	// maximum when ξ̂ < 0; nudge σ up so every observation is in-support,
	// otherwise the fit would assign zero likelihood to its own data.
	if g.Xi < 0 {
		maxY := stats.MustMax(ys)
		if need := -g.Xi * maxY * 1.0001; g.Sigma < need {
			g.Sigma = need
		}
	}
	return g, nil
}

// FitGPD computes the maximum-likelihood GPD fit to the exceedances ys
// (observations already reduced by the threshold, all >= 0) by minimizing
// the negative log-likelihood with Nelder-Mead, exactly as the paper does
// with Matlab's fminsearch (§3.3.2 Step 3). The scale is searched in log
// space so positivity is structural, and support violations return +Inf.
func FitGPD(ys []float64) (Fit, error) {
	if len(ys) < 5 {
		return Fit{}, fmt.Errorf("%w: need at least 5 exceedances, have %d", ErrSampleTooSmall, len(ys))
	}
	if distinctValues(ys) < 3 {
		return Fit{}, ErrDegenerateTail
	}
	start, err := MomentsEstimate(ys)
	if err != nil {
		return Fit{}, err
	}

	negLL := func(p []float64) float64 {
		xi, sigma := p[0], math.Exp(p[1])
		if xi <= xiFloor || xi > 10 || !(sigma > 0) || math.IsInf(sigma, 1) {
			return math.Inf(1)
		}
		ll := (GPD{Xi: xi, Sigma: sigma}).LogLikelihood(ys)
		return -ll
	}

	res, err := optimize.NelderMead(negLL, []float64{start.Xi, math.Log(start.Sigma)}, &optimize.NelderMeadOptions{MaxIter: 2000})
	if err != nil {
		return Fit{}, err
	}
	if math.IsInf(res.F, 1) {
		return Fit{}, errors.New("evt: likelihood maximization failed to find a feasible point")
	}
	g := GPD{Xi: res.X[0], Sigma: math.Exp(res.X[1])}
	if err := g.Validate(); err != nil {
		return Fit{}, err
	}
	return Fit{GPD: g, LogLikelihood: -res.F, Exceedances: len(ys), Method: "mle"}, nil
}

// FitGPDMoments packages the method-of-moments estimate in the same Fit
// shape as FitGPD, for the estimator ablation and for production use as a
// cheap first-pass estimator. Unlike MomentsEstimate — which stays
// permissive because it only seeds the likelihood search — FitGPDMoments
// enforces the estimator's own validity region: an implied shape at the
// ξ >= 1/2 wall returns ErrMomentsUndefined instead of a clamped garbage
// fit, and a degenerate exceedance set returns ErrDegenerateTail.
func FitGPDMoments(ys []float64) (Fit, error) {
	if len(ys) < 2 {
		return Fit{}, ErrSampleTooSmall
	}
	if distinctValues(ys) < 3 {
		return Fit{}, ErrDegenerateTail
	}
	m := stats.Mean(ys)
	v := stats.Variance(ys)
	if m > 0 && v > 0 {
		if implied := (1 - m*m/v) / 2; implied >= momentShapeWall {
			return Fit{}, fmt.Errorf("%w (implied ξ̂ = %.4g)", ErrMomentsUndefined, implied)
		}
	}
	g, err := MomentsEstimate(ys)
	if err != nil {
		return Fit{}, err
	}
	return Fit{GPD: g, LogLikelihood: g.LogLikelihood(ys), Exceedances: len(ys), Method: "moments"}, nil
}
