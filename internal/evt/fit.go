package evt

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
// where m and v are the sample mean and variance: a cheap estimator in its
// own right, and the ablation baseline behind FitGPDMoments.
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
// (observations already reduced by the threshold, all >= 0). It maximizes
// the same likelihood the paper maximizes with Matlab's fminsearch
// (§3.3.2 Step 3), over the same region ξ ∈ (xiFloor, 10], but exactly:
// the two-parameter search is reduced to Grimshaw's one-dimensional
// profile in θ = ξ/σ (see profile), scanned on a coarse grid for the
// right basin and then climbed by safeguarded Newton.
func FitGPD(ys []float64) (Fit, error) {
	if len(ys) < 5 {
		return Fit{}, fmt.Errorf("%w: need at least 5 exceedances, have %d", ErrSampleTooSmall, len(ys))
	}
	if distinctValues(ys) < 3 {
		return Fit{}, ErrDegenerateTail
	}
	g, _, err := fitProfile(ys)
	if err != nil {
		return Fit{}, err
	}
	ll := g.LogLikelihood(ys)
	if math.IsInf(ll, -1) {
		return Fit{}, errNoFeasibleFit
	}
	return Fit{GPD: g, LogLikelihood: ll, Exceedances: len(ys), Method: "mle"}, nil
}

// errNoFeasibleFit reports exceedances no GPD in the search region can
// assign a finite likelihood, such as a negative exceedance.
var errNoFeasibleFit = errors.New("evt: likelihood maximization failed to find a feasible point")

// xiCeil is the largest shape the fit accepts.
const xiCeil = 10

// profile is the GPD log-likelihood of the exceedances reduced to one
// dimension (Grimshaw, 1993). For θ = ξ/σ and fixed θ the likelihood
//
//	ℓ(ξ, θ) = −m·log(ξ/θ) − (1 + 1/ξ)·Σ log(1+θy)
//
// is unimodal in ξ with its maximum at ξ̂(θ) = mean(log(1+θy)), so the fit
// is a search over θ ∈ (−1/max(y), ∞) for the maximum of
//
//	ℓ*(θ) = −m·log(ξ̂/θ) − m·ξ̂ − m.
//
// Where ξ̂(θ) <= xiFloor the constrained maximum over ξ sits on the floor,
// so there the profile is ℓ(ξ_floor, θ), with ξ_floor the smallest float
// above xiFloor; that branch is concave in θ and meets ℓ* with equal value
// and slope. Where ξ̂(θ) > xiCeil the profile is −Inf. With
// T1 = Σ y/(1+θy) and T2 = Σ (y/(1+θy))² its derivatives are
//
//	ℓ'  = m/θ − (1 + 1/ξ)·T1
//	ℓ'' = −m/θ² + (1 + 1/ξ)·T2 + T1²/(m·ξ²)   (last term off the floor only)
//
// At θ = 0 the model is the exponential tail, ξ = 0 and σ = ȳ.
type profile struct {
	ys     []float64
	m      float64
	passes int // passes over ys so far
}

// profilePoint is the profile at theta: its value f, the shape xi that
// attains it, and, when asked for, the derivatives d1 and d2.
type profilePoint struct {
	theta, xi, f, d1, d2 float64
}

// at evaluates the profile at theta in one pass over the exceedances.
// d1 and d2 are computed only when derivs is set; d2 is NaN at θ = 0.
func (p *profile) at(theta float64, derivs bool) profilePoint {
	p.passes++
	pt := profilePoint{theta: theta}
	if theta == 0 {
		var s1, s2 float64
		for _, y := range p.ys {
			s1 += y
			s2 += y * y
		}
		mean := s1 / p.m
		pt.f = -p.m*math.Log(mean) - p.m
		pt.d1, pt.d2 = s2/(2*mean)-s1, math.NaN()
		return pt
	}
	var s, t1, t2 float64
	if derivs {
		for _, y := range p.ys {
			d := 1 + theta*y
			s += math.Log(d)
			q := y / d
			t1 += q
			t2 += q * q
		}
	} else {
		for _, y := range p.ys {
			s += math.Log(1 + theta*y)
		}
	}
	xi := s / p.m
	if !(xi <= xiCeil) || math.IsInf(xi, -1) {
		pt.f = math.Inf(-1)
		return pt
	}
	onFloor := xi <= xiFloor
	if onFloor {
		xi = math.Nextafter(xiFloor, 0)
	}
	c := 1 + 1/xi
	pt.xi = xi
	pt.f = -p.m*math.Log(xi/theta) - c*s
	if derivs {
		pt.d1 = p.m/theta - c*t1
		pt.d2 = -p.m/(theta*theta) + c*t2
		if !onFloor {
			pt.d2 += t1 * t1 / (p.m * xi * xi)
		}
	}
	return pt
}

// gpd returns the distribution the profile point stands for.
func (pt profilePoint) gpd(mean float64) GPD {
	if pt.theta == 0 {
		return GPD{Xi: 0, Sigma: mean}
	}
	return GPD{Xi: pt.xi, Sigma: pt.xi / pt.theta}
}

// fitProfile maximizes the profile likelihood of ys and returns the
// fitted GPD and the number of passes over ys it took. A fixed grid of θ
// finds the basins of the profile, and Newton's method climbs each grid
// point that is higher than its neighbours, inside the bracket they form.
// The highest summit wins, so the fit never ends below the grid's best
// point or on a lower local maximum the grid can tell apart.
func fitProfile(ys []float64) (GPD, int, error) {
	ymin, ymax, sum := ys[0], ys[0], 0.0
	for _, y := range ys {
		ymin, ymax, sum = min(ymin, y), max(ymax, y), sum+y
	}
	if ymin < 0 {
		return GPD{}, 0, errNoFeasibleFit
	}
	p := &profile{ys: ys, m: float64(len(ys))}
	mean := sum / p.m

	// The grid: θ = −1/(max(y)·(1+r)) below zero, which puts the implied
	// endpoint r·max(y) beyond the sample maximum, densest where the ξ > −1
	// floor and interior maxima compete; and θ = k/ȳ above zero.
	pole := -1 / ymax
	var grid []float64
	for _, r := range [...]float64{1e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 100} {
		grid = append(grid, pole/(1+r))
	}
	for _, k := range [...]float64{1e-3, 0.1, 1, 10} {
		grid = append(grid, k/mean)
	}
	vals := make([]float64, len(grid))
	for i, t := range grid {
		vals[i] = p.at(t, false).f
	}
	// A profile still rising at the top of the grid is followed up in
	// fourfold steps until it turns down or leaves the shape range.
	for n := len(grid); vals[n-1] > vals[n-2]; n++ {
		t := 4 * grid[n-1]
		grid, vals = append(grid, t), append(vals, p.at(t, false).f)
	}

	best := profilePoint{f: math.Inf(-1)}
	for i, v := range vals {
		lo, hi := pole, grid[i]
		left, right := math.Inf(-1), math.Inf(-1)
		if i > 0 {
			lo, left = grid[i-1], vals[i-1]
		}
		if i < len(grid)-1 {
			hi, right = grid[i+1], vals[i+1]
		}
		if math.IsInf(v, -1) || v < left || v <= right {
			continue
		}
		if top := p.climb(grid[i], lo, hi); top.f > best.f {
			best = top
		}
	}
	if math.IsInf(best.f, -1) {
		return GPD{}, p.passes, errNoFeasibleFit
	}
	g := best.gpd(mean)
	if err := g.Validate(); err != nil {
		return GPD{}, p.passes, err
	}
	return g, p.passes, nil
}

// climb runs safeguarded Newton from theta toward the profile maximum in
// (lo, hi), where theta is higher than both ends. A step that leaves the
// bracket, or a point where the profile is not concave, bisects toward
// the ascent instead; a step that lowers the profile is not taken and
// shrinks the bracket. The point returned is the highest one visited.
func (p *profile) climb(theta, lo, hi float64) profilePoint {
	cur := p.at(theta, true)
	for iter := 0; iter < 100 && cur.d1 != 0; iter++ {
		t := cur.theta - cur.d1/cur.d2
		if !(cur.d2 < 0) || !(t > lo && t < hi) {
			if cur.d1 > 0 {
				t = cur.theta + (hi-cur.theta)/2
			} else {
				t = cur.theta - (cur.theta-lo)/2
			}
		}
		if math.Abs(t-cur.theta) <= 1e-10*math.Abs(cur.theta) {
			break
		}
		next := p.at(t, true)
		switch {
		case next.f >= cur.f && t > cur.theta:
			lo, cur = cur.theta, next
		case next.f >= cur.f:
			hi, cur = cur.theta, next
		case t > cur.theta:
			hi = t
		default:
			lo = t
		}
	}
	return cur
}

// FitGPDMoments packages the method-of-moments estimate in the same Fit
// shape as FitGPD, for the estimator ablation and for production use as a
// cheap first-pass estimator. Unlike MomentsEstimate — which stays
// permissive, clamping the shape and widening the scale to cover the
// data — FitGPDMoments enforces the estimator's own validity region: an
// implied shape at the ξ >= 1/2 wall returns ErrMomentsUndefined instead
// of a clamped garbage fit, and a degenerate exceedance set returns
// ErrDegenerateTail.
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
