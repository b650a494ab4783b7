package evt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrNonFiniteSample reports a NaN or ±Inf observation handed to the POT
// pipeline. sort.Float64s leaves NaN placement unspecified, so a single
// NaN would make threshold selection — and everything fitted downstream —
// nondeterministic; rejecting at the entry turns that silent
// nondeterminism into a typed error. The campaign journal already refuses
// non-finite performances, but calibrate populations and direct evt
// callers do not go through the journal.
var ErrNonFiniteSample = errors.New("evt: sample contains a non-finite observation")

// checkFiniteSample is the pipeline-entry guard behind ErrNonFiniteSample.
func checkFiniteSample(xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: observation %d is %v", ErrNonFiniteSample, i, x)
		}
	}
	return nil
}

// ThresholdRule selects how the POT threshold u is chosen.
type ThresholdRule int

const (
	// RuleAuto (the default) scans candidate thresholds between
	// MinExceedances and MaxExceedFraction·n, fits a GPD at each, and
	// keeps the threshold whose fit has the straightest quantile plot,
	// preferring fits with ξ < 0 (the finite-endpoint regime the method
	// needs) and, among near-ties, more exceedances (tighter confidence
	// intervals, §5.2). This automates the paper's §3.3.2 Step 2 judgment
	// — "mean excess plot roughly linear", "quantile plot close to a
	// straight line" — under the 5% exceedance cap.
	RuleAuto ThresholdRule = iota
	// RuleMaxFraction takes u so that exactly MaxExceedFraction of the
	// sample exceeds it — the paper's cap applied directly, with no scan.
	RuleMaxFraction
	// RuleLinearityScan scans the same candidates as RuleAuto but scores
	// them only by the mean-excess-plot linearity (R²), without fitting.
	// Cheaper, used as an ablation baseline.
	RuleLinearityScan
)

// ThresholdOptions tunes threshold selection. The zero value selects the
// paper defaults: fit-scored scan, 5% maximum exceedance fraction, at least
// 20 exceedances.
type ThresholdOptions struct {
	MaxExceedFraction float64       // default 0.05
	MinExceedances    int           // default 20
	Rule              ThresholdRule // default RuleAuto
}

func (o ThresholdOptions) withDefaults() ThresholdOptions {
	if o.MaxExceedFraction <= 0 || o.MaxExceedFraction >= 1 {
		o.MaxExceedFraction = 0.05
	}
	if o.MinExceedances <= 0 {
		o.MinExceedances = 20
	}
	return o
}

// Threshold is a selected POT threshold with its exceedances and
// diagnostics of the tail above it.
type Threshold struct {
	U           float64   // the threshold
	Exceedances []float64 // y_i = x_i − u for x_i > u, ascending
	Linearity   LinearFit // mean-excess line fit over points ≥ u
	// LinearityOK reports that Linearity holds a real mean-excess line
	// fit. False means the fit was unavailable at this threshold — e.g. a
	// tie-run snap-down left fewer than two distinct mean-excess points
	// at or above u — and the zero-valued Linearity is "no diagnostic",
	// not evidence of a perfectly non-linear tail.
	LinearityOK bool
	QQCorr      float64 // quantile-plot straightness of the GPD fit (RuleAuto)
}

// SelectThreshold chooses a POT threshold for the raw sample xs.
//
// Candidate thresholds are order statistics; the candidate keeping m
// observations above it is u = x_(n−m). The number of exceedances is capped
// at MaxExceedFraction·n to avoid biasing the GPD toward the body of the
// distribution, and floored at MinExceedances so the fit has enough data.
func SelectThreshold(xs []float64, opts ThresholdOptions) (Threshold, error) {
	if err := checkFiniteSample(xs); err != nil {
		return Threshold{}, err
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	thr, _, err := selectThresholdSorted(sorted, opts)
	return thr, err
}

// selectThresholdSorted is SelectThreshold on a sample already validated
// finite and sorted ascending. It never mutates sorted and never retains
// it (exceedance sets are fresh slices). The streaming estimator calls it
// directly on its maintained order statistics — because sorting is a
// permutation and every downstream quantity is computed from the sorted
// order, the result is bitwise-identical to SelectThreshold on any
// permutation of the same observations.
//
// Under RuleAuto the scan fits a GPD to every candidate, so it also
// returns the winner's fit, which is FitGPD of the returned exceedances;
// the caller need not fit them again. fit is nil when the scan fitted
// nothing for the returned threshold.
func selectThresholdSorted(sorted []float64, opts ThresholdOptions) (Threshold, *Fit, error) {
	o := opts.withDefaults()
	n := len(sorted)
	maxM := int(float64(n) * o.MaxExceedFraction)
	if maxM < o.MinExceedances {
		return Threshold{}, nil, fmt.Errorf("%w: %d observations allow at most %d exceedances at fraction %.3f, need >= %d",
			ErrSampleTooSmall, n, maxM, o.MaxExceedFraction, o.MinExceedances)
	}

	// The threshold for maxM is the lowest any candidate can take (the
	// snap-down is monotone in m), and the linearity fits only read
	// mean-excess points at or above their own threshold, so the plot is
	// computed from there up. Its points ascend in U, so the ones at or
	// above a candidate's threshold are a suffix, which the line fit
	// reads in place.
	uMin, _ := cutSorted(sorted, maxM, o.MinExceedances)
	mePoints, err := meanExcessSorted(sorted, sort.SearchFloat64s(sorted, uMin))
	if err != nil {
		return Threshold{}, nil, err
	}
	meU := make([]float64, len(mePoints))
	meE := make([]float64, len(mePoints))
	for i, p := range mePoints {
		meU[i], meE[i] = p.U, p.E
	}

	build := func(m int) (Threshold, error) {
		u, end := cutSorted(sorted, m, o.MinExceedances)
		ys := make([]float64, 0, n-end)
		for _, x := range sorted[end:] {
			ys = append(ys, x-u)
		}
		if len(ys) < o.MinExceedances {
			return Threshold{}, fmt.Errorf("%w: only %d exceedances above u=%v", ErrSampleTooSmall, len(ys), u)
		}
		// A snapped-down threshold can leave too few mean-excess points at
		// or above u to fit a line. That is a missing diagnostic, not a
		// zero one: LinearityOK distinguishes "no fit available" from a
		// genuine R² of 0, so reports never present a snapped threshold as
		// perfectly non-linear.
		thr := Threshold{U: u, Exceedances: ys}
		k := sort.SearchFloat64s(meU, u)
		if lin, err := FitLine(meU[k:], meE[k:]); err == nil {
			thr.Linearity, thr.LinearityOK = lin, true
		}
		return thr, nil
	}

	if o.Rule == RuleMaxFraction {
		thr, err := build(maxM)
		return thr, nil, err
	}

	ms := scanCounts(maxM, o.MinExceedances)
	type candidate struct {
		ok      bool // the candidate could be built and scored
		thr     Threshold
		fit     *Fit // RuleAuto only
		score   float64
		bounded bool // fitted ξ < 0
	}
	evaluate := func(m int) candidate {
		thr, err := build(m)
		if err != nil {
			return candidate{}
		}
		if o.Rule == RuleLinearityScan {
			if !thr.LinearityOK {
				// No linearity diagnostic exists for this candidate (tie-run
				// snap-down); it cannot be scored, rather than scoring as a
				// perfect non-linearity of 0.
				return candidate{}
			}
			return candidate{ok: true, thr: thr, score: thr.Linearity.R2, bounded: true}
		}
		// RuleAuto
		fit, err := FitGPD(thr.Exceedances)
		if err != nil {
			return candidate{}
		}
		thr.QQCorr = QQCorrelation(QuantilePlot(thr.Exceedances, fit.GPD))
		return candidate{ok: true, thr: thr, fit: &fit, score: thr.QQCorr, bounded: fit.GPD.Xi < 0}
	}

	// Candidates are independent and each fit is deterministic, so they
	// are evaluated concurrently, each into its own slot, and selected
	// below in scan order: the result does not depend on the schedule.
	slots := make([]candidate, len(ms))
	workers := min(runtime.GOMAXPROCS(0), len(ms))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ms) {
					return
				}
				slots[i] = evaluate(ms[i])
			}
		}()
	}
	wg.Wait()

	var cands []candidate
	for _, c := range slots {
		if c.ok {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		thr, err := build(maxM)
		return thr, nil, err
	}
	// Bounded fits take absolute precedence: an unbounded (ξ >= 0) fit
	// cannot produce an upper performance bound no matter how straight its
	// quantile plot is.
	pool := cands[:0:0]
	for _, c := range cands {
		if c.bounded {
			pool = append(pool, c)
		}
	}
	if len(pool) == 0 {
		pool = cands
	}
	bestScore := pool[0].score
	for _, c := range pool[1:] {
		if c.score > bestScore {
			bestScore = c.score
		}
	}
	// Among near-ties on the score, prefer the candidate with the most
	// exceedances — more tail data tightens the confidence interval.
	const tie = 0.004
	var best *candidate
	for i := range pool {
		c := &pool[i]
		if c.score < bestScore-tie {
			continue
		}
		if best == nil || len(c.thr.Exceedances) > len(best.thr.Exceedances) {
			best = c
		}
	}
	return best.thr, best.fit, nil
}

// scanCounts returns the exceedance counts the threshold scan tries, from
// maxM down to minM: a coarse grid, because scores vary smoothly, so ~16
// candidates suffice and keep the repeated GPD fits cheap.
func scanCounts(maxM, minM int) []int {
	step := max((maxM-minM)/15, 1)
	var ms []int
	for m := maxM; m >= minM; m -= step {
		ms = append(ms, m)
	}
	return ms
}

// cutSorted selects the threshold keeping ~m of the ascending sample's
// observations above it, and returns it with the index of its first
// exceedance. The exceedance set is strictly above u — the same strict
// `>` the mean-excess plot, the ECDF tail count 1 − F̂(u) and the
// planner's exceedance probability all use — so observations equal to
// the threshold are never double-counted into the tail.
//
// Ties need care: when the m-th order statistic lands inside a run of
// repeated values, none of the run is strictly above u and the strict
// count can starve below minExceedances even though plenty of tail data
// exists. A tie run is atomic — no threshold can split it — so the
// candidate snaps down to the next smaller distinct value, taking the
// whole run into the tail. That can overshoot the exceedance cap; the
// overshoot is forced by quantization (discrete performance populations
// produce exactly such samples) and is preferred to failing the analysis
// outright.
func cutSorted(sorted []float64, m, minExceedances int) (u float64, end int) {
	n := len(sorted)
	u = sorted[n-m-1]
	// first marks the first copy of u, end the first strict exceedance.
	first := sort.SearchFloat64s(sorted, u)
	end = first
	for end < n && sorted[end] == u {
		end++
	}
	for n-end < minExceedances && first > 0 {
		u = sorted[first-1]
		end = first
		first = sort.SearchFloat64s(sorted, u)
	}
	return u, end
}
