package evt

import "errors"

// FitGPDPWM estimates GPD parameters by probability-weighted moments
// (Hosking & Wallis 1987, the paper's reference [30]): with b₀ the sample
// mean and b₁ the first probability-weighted moment
//
//	b₁ = (1/n) Σ_{i=1..n} ((n−i)/(n−1)) · y_(i)   (y_(i) ascending)
//
// the estimators are
//
//	ξ̂ = 2 − b₀/(b₀ − 2 b₁),   σ̂ = 2 b₀ b₁/(b₀ − 2 b₁).
//
// PWM is robust for small exceedance sets and shapes ξ < 1/2 — exactly the
// regime of bounded-performance tails — and serves both as an alternative
// production estimator and as the third arm of the estimator ablation.
func FitGPDPWM(ys []float64) (Fit, error) {
	n := len(ys)
	if n < 5 {
		return Fit{}, ErrSampleTooSmall
	}
	if distinctValues(ys) < 3 {
		return Fit{}, ErrDegenerateTail
	}
	sorted := ascending(ys)
	if sorted[0] < 0 {
		return Fit{}, errors.New("evt: negative exceedance")
	}

	var b0, b1 float64
	for i, y := range sorted {
		b0 += y
		b1 += y * float64(n-1-i) / float64(n-1)
	}
	b0 /= float64(n)
	b1 /= float64(n)

	den := b0 - 2*b1
	if den <= 0 {
		return Fit{}, errors.New("evt: PWM estimator undefined (b0 <= 2*b1)")
	}
	g := GPD{
		Xi:    2 - b0/den,
		Sigma: 2 * b0 * b1 / den,
	}
	if err := g.Validate(); err != nil {
		return Fit{}, err
	}
	// Keep the data inside the estimated support, as MomentsEstimate does:
	// an endpoint below the sample maximum would make the fit inconsistent
	// with its own input.
	if g.Xi < 0 {
		if maxY := sorted[n-1]; g.RightEndpoint() < maxY {
			g.Sigma = -g.Xi * maxY * 1.0001
		}
	}
	return Fit{GPD: g, LogLikelihood: g.LogLikelihood(ys), Exceedances: n, Method: "pwm"}, nil
}
