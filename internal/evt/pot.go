package evt

import (
	"fmt"
	"math"
	"sort"
)

// POTOptions configures a full Peak-Over-Threshold analysis. The zero value
// uses the paper's defaults: threshold by linearity scan capped at 5%
// exceedances, 0.95 confidence level.
type POTOptions struct {
	Threshold ThresholdOptions
	// Alpha is the complement of the confidence level (default 0.05 for a
	// 0.95 confidence interval, the level used throughout §5).
	Alpha float64
}

func (o POTOptions) withDefaults() POTOptions {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.05
	}
	return o
}

// EstimatorDiag records how one GPD estimator fared on the selected
// exceedances. Analyze runs every estimator (MLE drives the report; PWM and
// moments are cross-checks) and keeps the outcome here so callers can see
// disagreement between methods — or that a method refused the data — without
// re-running the fits. Rejected entries carry the reason and zeroed
// parameters; accepted entries always hold finite values.
type EstimatorDiag struct {
	Method   string  // "mle", "pwm", "moments"
	Xi       float64 // fitted shape (0 when rejected)
	Sigma    float64 // fitted scale (0 when rejected)
	UPB      float64 // implied u − σ̂/ξ̂ (0 when rejected or unbounded)
	Bounded  bool    // fitted ξ < 0, so a finite UPB exists
	Rejected bool    // the estimator returned an error for this data
	Reason   string  // rejection reason ("" when accepted)
}

// Report is the result of a complete POT analysis of a performance sample:
// the estimated optimal system performance with its confidence interval and
// the diagnostics needed to judge whether the GPD model is trustworthy.
type Report struct {
	N           int             // sample size
	BestObs     float64         // best observed performance in the sample
	Threshold   Threshold       // selected threshold + exceedances
	Fit         Fit             // maximum-likelihood GPD fit
	UPB         UPBInterval     // estimated optimum with confidence interval
	QQCorr      float64         // quantile-plot straightness, ~1 is good
	Regular     bool            // ξ̂ in (−1/2, 0): Wilks asymptotics fully apply
	HeadroomPct float64         // (UPB.Point − BestObs) / UPB.Point · 100
	Estimators  []EstimatorDiag // per-estimator outcomes on the same exceedances
}

// HeadroomPercent returns the relative gap between an estimated
// performance bound and the best observed performance, as a percentage of
// the bound's magnitude: (bound − best)/|bound| · 100. Normalizing by
// |bound| keeps the gap meaningful on negative performance scales
// (latencies negated into "higher is better", log-scores), where dividing
// by the signed bound flipped the sign and a bound of exactly 0 divided
// to ±Inf/NaN. ok is false when no gap can be expressed — the bound is 0,
// or the subtraction overflows — and callers choose their own fallback (0
// for a display field, 100 for the conservative stopping rule).
func HeadroomPercent(bound, best float64) (pct float64, ok bool) {
	if bound == 0 {
		return 0, false
	}
	pct = (bound - best) / math.Abs(bound) * 100
	if math.IsNaN(pct) || math.IsInf(pct, 0) {
		return 0, false
	}
	return pct, true
}

// Analyze runs the complete §3.3 pipeline on a raw performance sample:
// select the threshold, fit the GPD to the exceedances by maximum
// likelihood, estimate the Upper Performance Bound and its Wilks confidence
// interval, and attach goodness-of-fit diagnostics. A sample containing
// NaN or ±Inf is rejected up front with ErrNonFiniteSample.
func Analyze(sample []float64, opts POTOptions) (Report, error) {
	if len(sample) == 0 {
		return Report{}, ErrSampleTooSmall
	}
	if err := checkFiniteSample(sample); err != nil {
		return Report{}, err
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	return analyzeSorted(sorted, opts)
}

// analyzeSorted is the shared pipeline core behind Analyze and
// StreamEstimator.Refit: the complete §3.3 analysis of a sample already
// validated finite and sorted ascending. Every quantity in the report is
// a function of the sorted order alone (the threshold scan, the
// exceedance sets, the fits, the maximum), so any two inputs holding the
// same multiset of finite observations produce bitwise-identical reports
// — the equivalence the streaming estimator's differential suite pins.
// The input is never mutated and never retained.
func analyzeSorted(sorted []float64, opts POTOptions) (Report, error) {
	o := opts.withDefaults()
	if len(sorted) == 0 {
		return Report{}, ErrSampleTooSmall
	}
	thr, scanFit, err := selectThresholdSorted(sorted, o.Threshold)
	if err != nil {
		return Report{}, fmt.Errorf("threshold selection: %w", err)
	}
	// The fit-scored scan already fitted the winning exceedances; the fit
	// is deterministic, so fitting them again would reproduce it bit for
	// bit.
	var fit Fit
	if scanFit != nil {
		fit = *scanFit
	} else if fit, err = FitGPD(thr.Exceedances); err != nil {
		return Report{}, fmt.Errorf("GPD fit: %w", err)
	}
	iv, err := UPBConfidenceInterval(thr.U, thr.Exceedances, fit, o.Alpha)
	if err != nil {
		return Report{}, fmt.Errorf("UPB interval: %w", err)
	}
	best := sorted[len(sorted)-1]
	r := Report{
		N:         len(sorted),
		BestObs:   best,
		Threshold: thr,
		Fit:       fit,
		UPB:       iv,
		QQCorr:    QQCorrelation(QuantilePlot(thr.Exceedances, fit.GPD)),
		Regular:   fit.GPD.Xi > -0.5 && fit.GPD.Xi < 0,
	}
	if h, ok := HeadroomPercent(iv.Point, best); ok {
		r.HeadroomPct = h
	}
	// Cross-check estimators on the same exceedances. The MLE entry mirrors
	// the fit above; PWM and moments run fresh and may legitimately refuse
	// data the MLE accepted (e.g. the moments estimator at its ξ >= 1/2
	// wall) — the diagnostic records who refused and why.
	pwmFit, pwmErr := FitGPDPWM(thr.Exceedances)
	momFit, momErr := FitGPDMoments(thr.Exceedances)
	r.Estimators = []EstimatorDiag{
		newEstimatorDiag("mle", thr.U, fit, nil),
		newEstimatorDiag("pwm", thr.U, pwmFit, pwmErr),
		newEstimatorDiag("moments", thr.U, momFit, momErr),
	}
	if err := r.validateFinite(); err != nil {
		return Report{}, err
	}
	return r, nil
}

// newEstimatorDiag converts a (Fit, error) pair into its diagnostic row.
func newEstimatorDiag(method string, u float64, fit Fit, err error) EstimatorDiag {
	if err != nil {
		return EstimatorDiag{Method: method, Rejected: true, Reason: err.Error()}
	}
	d := EstimatorDiag{
		Method:  method,
		Xi:      fit.GPD.Xi,
		Sigma:   fit.GPD.Sigma,
		Bounded: fit.GPD.Xi < 0,
	}
	if d.Bounded {
		d.UPB = u + fit.GPD.RightEndpoint()
	}
	return d
}

// validateFinite guards the Report contract that every numeric field is
// finite — with the single documented exception of UPB.Hi, which is +Inf
// when the likelihood-ratio test cannot reject an unbounded tail. Any other
// NaN/±Inf means an upstream estimator leaked a degenerate value; surfacing
// it as an error here keeps garbage out of journals, JSON reports and the
// iterative loop's stopping rule.
func (r Report) validateFinite() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"BestObs", r.BestObs},
		{"Threshold.U", r.Threshold.U},
		{"Fit.Xi", r.Fit.GPD.Xi},
		{"Fit.Sigma", r.Fit.GPD.Sigma},
		{"Fit.LogLikelihood", r.Fit.LogLikelihood},
		{"UPB.Point", r.UPB.Point},
		{"UPB.Lo", r.UPB.Lo},
		{"QQCorr", r.QQCorr},
		{"HeadroomPct", r.HeadroomPct},
	}
	for _, c := range checks {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("evt: internal error: non-finite %s (%v) in report", c.name, c.v)
		}
	}
	if math.IsNaN(r.UPB.Hi) || math.IsInf(r.UPB.Hi, -1) {
		return fmt.Errorf("evt: internal error: non-finite UPB.Hi (%v) in report", r.UPB.Hi)
	}
	for _, d := range r.Estimators {
		for _, v := range []float64{d.Xi, d.Sigma, d.UPB} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("evt: internal error: non-finite %s estimator diagnostic (%v)", d.Method, v)
			}
		}
	}
	return nil
}
