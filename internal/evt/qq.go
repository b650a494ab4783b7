package evt

import "math"

// QQPoint pairs an empirical quantile with the corresponding model quantile.
type QQPoint struct {
	Empirical float64 // ordered exceedance y_(i)
	Model     float64 // G⁻¹(q_i) under the fitted GPD
}

// QuantilePlot returns the quantile-plot points of the exceedances ys
// against the fitted GPD g, using plotting positions q_i = i/(n+1). If the
// sample really originates from g the points lie close to the diagonal; the
// paper (§3.3.2 Step 2) uses this as the second goodness-of-fit check next
// to the mean-excess plot.
func QuantilePlot(ys []float64, g GPD) []QQPoint {
	sorted := ascending(ys)
	n := len(sorted)
	points := make([]QQPoint, n)
	for i, y := range sorted {
		q := float64(i+1) / float64(n+1)
		points[i] = QQPoint{Empirical: y, Model: g.Quantile(q)}
	}
	return points
}

// QQCorrelation returns the Pearson correlation between empirical and model
// quantiles — a scalar "how straight is the quantile plot" summary in
// [0, 1] for well-behaved fits. Values near 1 strongly suggest the sample
// follows the fitted family.
func QQCorrelation(points []QQPoint) float64 {
	n := len(points)
	if n < 2 {
		return math.NaN()
	}
	var mx, my float64
	for _, p := range points {
		mx += p.Empirical
		my += p.Model
	}
	mx /= float64(n)
	my /= float64(n)
	var sxx, syy, sxy float64
	for _, p := range points {
		dx, dy := p.Empirical-mx, p.Model-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
