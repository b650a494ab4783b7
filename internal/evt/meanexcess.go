package evt

import (
	"errors"
	"sort"
)

// ErrSampleTooSmall reports too few observations for a POT analysis.
var ErrSampleTooSmall = errors.New("evt: sample too small")

// MeanExcessPoint is one point (u, e_n(u)) of the sample mean excess plot
// together with the number of observations exceeding u.
type MeanExcessPoint struct {
	U       float64 // candidate threshold
	E       float64 // sample mean excess e_n(u)
	Exceeds int     // number of observations strictly above u
}

// MeanExcess computes the sample mean excess function of xs at every
// distinct order statistic except the maximum (above which there are no
// exceedances):
//
//	e_n(u) = Σ_{x_i > u} (x_i − u) / #{x_i > u}
//
// This is the graphical threshold-selection tool of §3.3.2 Step 2 (Fig. 6b):
// a GPD with ξ < 0 has a linear, downward-sloping mean excess function, so
// the threshold should be chosen where the right portion of the plot is
// roughly linear.
func MeanExcess(xs []float64) ([]MeanExcessPoint, error) {
	if len(xs) < 2 {
		return nil, ErrSampleTooSmall
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return meanExcessSorted(sorted, 0)
}

// meanExcessSorted is MeanExcess on an ascending sample, restricted to
// the thresholds at or above sorted[from]. The suffix sums accumulate
// from the top of the sample, so each point it returns has the same bits
// as the corresponding point of the full plot.
func meanExcessSorted(sorted []float64, from int) ([]MeanExcessPoint, error) {
	n := len(sorted)
	if n < 2 {
		return nil, ErrSampleTooSmall
	}

	// Suffix sums let us evaluate every threshold in O(n); suffix[k] is
	// the sum of sorted[from+k:].
	suffix := make([]float64, n+1-from)
	for i := n - 1; i >= from; i-- {
		suffix[i-from] = suffix[i+1-from] + sorted[i]
	}

	points := make([]MeanExcessPoint, 0, n-from)
	for i := from; i < n-1; i++ {
		u := sorted[i]
		if i > from && u == sorted[i-1] {
			continue // duplicate threshold value
		}
		// Observations strictly above u start past u's run of copies.
		j := i + 1
		for j < n && sorted[j] == u {
			j++
		}
		m := n - j
		if m == 0 {
			continue
		}
		points = append(points, MeanExcessPoint{
			U:       u,
			E:       (suffix[j-from] - float64(m)*u) / float64(m),
			Exceeds: m,
		})
	}
	if len(points) == 0 {
		return nil, ErrSampleTooSmall
	}
	return points, nil
}

// LinearFit holds an ordinary-least-squares line fit with its coefficient of
// determination.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits y = a + b·x by least squares and reports R². It is used to
// quantify how linear the right portion of a mean excess plot is — the
// paper's qualitative "roughly linear" check made explicit.
func FitLine(xs, ys []float64) (LinearFit, error) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return LinearFit{}, ErrSampleTooSmall
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("evt: degenerate x values in line fit")
	}
	b := sxy / sxx
	fit := LinearFit{Slope: b, Intercept: my - b*mx}
	if syy == 0 {
		fit.R2 = 1 // constant y is fit exactly by a horizontal line
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}
