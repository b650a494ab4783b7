package evt

import (
	"errors"
	"fmt"
	"math"

	"optassign/internal/optimize"
	"optassign/internal/stats"
)

// ErrUnboundedTail reports a fitted shape ξ >= 0, for which the GPD has no
// finite right endpoint and the optimal performance cannot be bounded. On a
// real (finite) system the paper observes ξ̂ < 0 always; hitting this error
// usually means the threshold kept too few or too unstructured exceedances.
var ErrUnboundedTail = errors.New("evt: fitted shape ξ >= 0, upper bound undefined")

// UPBPoint returns the point estimate of the Upper Performance Bound
// (the paper's ÛPB = u − σ̂/ξ̂) for a threshold u and a fitted GPD with
// ξ < 0.
func UPBPoint(u float64, g GPD) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if g.Xi >= 0 {
		return 0, ErrUnboundedTail
	}
	return u + g.RightEndpoint(), nil
}

// UPBInterval is an estimated optimal system performance with its
// likelihood-ratio confidence interval.
type UPBInterval struct {
	Point      float64 // ÛPB = u − σ̂/ξ̂
	Lo, Hi     float64 // confidence interval bounds (Hi may be +Inf)
	Confidence float64 // e.g. 0.95
}

// ProfileLogLikelihood returns L*(UPB) = max_ξ L(ξ, UPB | y), the profile
// log-likelihood of the reparameterized GPD
//
//	L(ξ, UPB|y) = −m·log(−ξ(UPB−u)) − (1 + 1/ξ)·Σ log(1 − y_i/(UPB−u))
//
// (§3.3.2 Step 4), together with the maximizing ξ. UPB must exceed
// u + max(y); otherwise the data would be outside the support and −Inf is
// returned.
//
// The inner maximization is solved exactly: with S = Σ log(1 − y_i/(UPB−u))
// (strictly negative) the profile score −m/ξ + S/ξ² has its unique zero at
// ξ* = S/m, so no numerical search is needed. Crucially this keeps the
// ξ → 0⁻ boundary honest: for UPB far beyond the sample, ξ* is a tiny
// negative number (≈ −ȳ/(UPB−u)) that a search clipped at a fixed magnitude
// like 1e-9 could never reach — that clipping used to underestimate the
// profile near the point estimate of a near-exponential tail and collapse
// the Wilks interval. At ξ* the profile simplifies to
//
//	L*(UPB) = −m·log(−S·(UPB−u)/m) − S − m,
//
// which degrades continuously to the exponential limit −m·log(ȳ) − m as
// UPB → ∞.
func ProfileLogLikelihood(u float64, ys []float64, upb float64) (ll, xiHat float64) {
	m := float64(len(ys))
	endpoint := upb - u
	maxY := stats.MustMax(ys)
	if endpoint <= maxY {
		return math.Inf(-1), math.NaN()
	}
	// Pre-compute S = Σ log(1 − y/E); it does not depend on ξ.
	var sumLog float64
	for _, y := range ys {
		sumLog += math.Log1p(-y / endpoint)
	}
	xiHat = sumLog / m
	if xiHat <= xiFloor {
		// The endpoint is so close to max(y) that the unconstrained
		// maximizer leaves the admissible shape range; the profile is
		// increasing on (−1, ξ*), so the constrained maximum sits at the
		// ξ > −1 boundary the likelihood search uses everywhere else.
		xiHat = xiFloor
		return -(m*math.Log(-xiHat*endpoint) + (1+1/xiHat)*sumLog), xiHat
	}
	return -m*math.Log(-xiHat*endpoint) - (sumLog + m), xiHat
}

// exponentialLimitLL is lim_{UPB→∞} L*(UPB): the maximized log-likelihood
// of the ξ = 0 (exponential) tail model, −m·log(ȳ) − m. It is the supremum
// the profile approaches when the data cannot pin down a finite endpoint.
func exponentialLimitLL(ys []float64) float64 {
	m := float64(len(ys))
	return -m*math.Log(stats.Mean(ys)) - m
}

// UPBConfidenceInterval computes the (1−alpha) likelihood-ratio confidence
// interval for the Upper Performance Bound using Wilks' theorem: the
// interval contains every UPB with
//
//	L(ξ̂, ÛPB) − L*(UPB) < ½·χ²_{(1−α),1}
//
// (the paper's Equation 1). u is the POT threshold, ys the exceedances, and
// fit the maximum-likelihood GPD fit from FitGPD.
func UPBConfidenceInterval(u float64, ys []float64, fit Fit, alpha float64) (UPBInterval, error) {
	if len(ys) == 0 {
		return UPBInterval{}, ErrSampleTooSmall
	}
	if alpha <= 0 || alpha >= 1 {
		return UPBInterval{}, fmt.Errorf("evt: confidence alpha must be in (0,1), got %v", alpha)
	}
	point, err := UPBPoint(u, fit.GPD)
	if err != nil {
		return UPBInterval{}, err
	}
	chi2, err := stats.Chi2Quantile1DF(alpha)
	if err != nil {
		return UPBInterval{}, err
	}

	// The UPB profile at the point estimate can exceed the fit's
	// likelihood in the last bits (the two are the same maximum, summed
	// differently); use the larger as L_max so the interval always
	// contains the point estimate.
	lmax := fit.LogLikelihood
	if pl, _ := ProfileLogLikelihood(u, ys, point); pl > lmax {
		lmax = pl
	}
	cut := lmax - chi2/2
	h := func(upb float64) float64 {
		pl, _ := ProfileLogLikelihood(u, ys, upb)
		return pl - cut
	}

	maxObs := u + stats.MustMax(ys)
	iv := UPBInterval{Point: point, Confidence: 1 - alpha}

	// Lower bound: between the largest observation (where the profile
	// plunges to −∞) and the point estimate. The best observed performance
	// is always a valid lower bound for the optimum, so fall back to it if
	// the bracket degenerates numerically.
	//
	// The bracket must sit just *above* maxObs — the profile's support
	// starts there. A relative nudge like maxObs·(1+1e-12) moves the
	// wrong way when maxObs <= 0 (negative performance scales are legal:
	// latencies negated into "higher is better", log-scores), landing the
	// bracket in the −Inf region and skewing the bisection. Nextafter is
	// direction-correct for every sign and magnitude.
	loBracket := math.Nextafter(maxObs, math.Inf(1))
	if h(loBracket) >= 0 || point <= loBracket {
		iv.Lo = maxObs
	} else {
		lo, err := optimize.Bisect(h, loBracket, point, (point-loBracket)*1e-9)
		if err != nil {
			iv.Lo = maxObs
		} else {
			iv.Lo = lo
		}
	}

	// Upper bound. The profile tends to the exponential-model likelihood as
	// UPB → ∞, so when that limit clears the cut the likelihood-ratio test
	// cannot reject ξ = 0 and the interval is unbounded above — exactly the
	// ξ → 0⁻ degradation the paper's asymptotics imply. Testing the limit
	// analytically (instead of hunting for a sign change that never comes)
	// keeps near-zero fitted shapes from producing a collapsed or garbage
	// finite bound.
	if exponentialLimitLL(ys)-cut >= 0 {
		iv.Hi = math.Inf(1)
		return iv, nil
	}
	// Otherwise expand geometrically beyond the point estimate until the
	// profile drops below the cut, then bisect.
	span := point - u
	if span <= 0 {
		span = math.Max(1, math.Abs(point))
	}
	hi := point
	found := false
	for k := 0; k < 60; k++ {
		hi = point + span*math.Pow(2, float64(k))
		if h(hi) < 0 {
			found = true
			break
		}
	}
	if !found {
		iv.Hi = math.Inf(1)
	} else {
		x, err := optimize.Bisect(h, point, hi, (hi-point)*1e-9)
		if err != nil {
			iv.Hi = hi
		} else {
			iv.Hi = x
		}
	}
	// When the profile drops below the cut only at astronomically large UPB
	// values the bound carries no information; report it as unbounded.
	if iv.Hi > point+1000*span {
		iv.Hi = math.Inf(1)
	}
	return iv, nil
}

// ProfileCurve samples L*(UPB) at n points across [lo, hi]; it reproduces
// Figure 7. Values of UPB at or below u + max(y) yield −Inf.
func ProfileCurve(u float64, ys []float64, lo, hi float64, n int) (upbs, lls []float64) {
	if n < 2 {
		n = 2
	}
	upbs = make([]float64, n)
	lls = make([]float64, n)
	for i := 0; i < n; i++ {
		upb := lo + (hi-lo)*float64(i)/float64(n-1)
		upbs[i] = upb
		lls[i], _ = ProfileLogLikelihood(u, ys, upb)
	}
	return upbs, lls
}
