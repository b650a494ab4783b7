// Package optimize provides the bisection root finder the EVT analysis
// uses for the boundaries of its likelihood-ratio confidence intervals.
package optimize

import (
	"errors"
	"math"
)

// ErrBracket is returned when a root finder's bracket does not straddle a
// sign change.
var ErrBracket = errors.New("optimize: bracket does not straddle a root")

// Bisect finds a root of f in [a, b] where f(a) and f(b) have opposite
// signs, to absolute tolerance tol on x.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) || (fa > 0) == (fb > 0) {
		return 0, ErrBracket
	}
	if tol <= 0 {
		tol = 1e-12
	}
	for i := 0; i < 500; i++ {
		mid := a + (b-a)/2
		fm := f(mid)
		if fm == 0 || (b-a)/2 < tol {
			return mid, nil
		}
		if math.IsNaN(fm) {
			// Retreat: treat NaN as the same side as the nearer finite
			// endpoint with matching uncertainty; shrink toward a.
			b, fb = mid, fm
			_ = fb
			continue
		}
		if (fm > 0) == (fa > 0) {
			a, fa = mid, fm
		} else {
			b = mid
		}
	}
	return a + (b-a)/2, nil
}
