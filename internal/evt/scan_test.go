package evt

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// The threshold scan evaluates its candidates concurrently and hands the
// winner's fit to Analyze instead of refitting it. Both are claimed not to
// change a bit; these tests hold them to it.

// scanSamples are the populations of the scan tests: the stream suite's
// bounded, uniform and tie-heavy shapes plus a steep bounded tail and an
// unbounded one, each from two seeds.
func scanSamples() map[string][]float64 {
	out := map[string][]float64{}
	for _, seed := range []int64{3, 4} {
		for name, xs := range streamSamples(3000, seed) {
			out[fmt.Sprintf("%s/seed=%d", name, seed)] = xs
		}
		rng := rand.New(rand.NewSource(seed))
		out[fmt.Sprintf("steep/seed=%d", seed)] = GPD{Xi: -0.8, Sigma: 2}.Sample(rng, 2000)
		out[fmt.Sprintf("unbounded/seed=%d", seed)] = GPD{Xi: 0.2, Sigma: 2}.Sample(rng, 2000)
	}
	return out
}

var scanOptions = map[string]ThresholdOptions{
	"auto":        {},
	"auto/10pct":  {MaxExceedFraction: 0.1},
	"maxfraction": {Rule: RuleMaxFraction},
	"linearity":   {Rule: RuleLinearityScan},
}

// withGOMAXPROCS runs f with GOMAXPROCS set to n.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestSelectThresholdParallelMatchesSerial runs the scan on one worker
// and on four: the threshold, its exceedances and diagnostics, and the
// winner's fit must agree bit for bit.
func TestSelectThresholdParallelMatchesSerial(t *testing.T) {
	for name, xs := range scanSamples() {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for optName, opts := range scanOptions {
			label := name + "/" + optName
			type result struct {
				thr Threshold
				fit *Fit
				err error
			}
			run := func(procs int) (r result) {
				withGOMAXPROCS(procs, func() { r.thr, r.fit, r.err = selectThresholdSorted(sorted, opts) })
				return r
			}
			serial, parallel := run(1), run(4)
			if fmt.Sprint(serial.err) != fmt.Sprint(parallel.err) {
				t.Fatalf("%s: serial err %v, parallel err %v", label, serial.err, parallel.err)
			}
			if (serial.fit == nil) != (parallel.fit == nil) {
				t.Fatalf("%s: serial fit %v, parallel fit %v", label, serial.fit, parallel.fit)
			}
			a, b := Report{Threshold: serial.thr}, Report{Threshold: parallel.thr}
			if serial.fit != nil {
				a.Fit, b.Fit = *serial.fit, *parallel.fit
			}
			reportBitsEqual(t, label, a, b)
		}
	}
}

// TestAnalyzeFitEqualsRefit checks the reused fit against a fresh one:
// Report.Fit, and the scan's fit wherever the scan returns one, must equal
// FitGPD of the selected exceedances bit for bit.
func TestAnalyzeFitEqualsRefit(t *testing.T) {
	scanFits := 0
	for name, xs := range scanSamples() {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for optName, opts := range scanOptions {
			label := name + "/" + optName
			rep, err := Analyze(xs, POTOptions{Threshold: opts})
			if err == nil {
				refit, err := FitGPD(rep.Threshold.Exceedances)
				if err != nil {
					t.Fatalf("%s: refit of the reported exceedances: %v", label, err)
				}
				reportBitsEqual(t, label+"/report", Report{Fit: rep.Fit}, Report{Fit: refit})
			}
			thr, fit, err := selectThresholdSorted(sorted, opts)
			if err != nil || fit == nil {
				continue
			}
			scanFits++
			refit, err := FitGPD(thr.Exceedances)
			if err != nil {
				t.Fatalf("%s: refit of the scan's exceedances: %v", label, err)
			}
			reportBitsEqual(t, label+"/scan", Report{Fit: *fit}, Report{Fit: refit})
		}
	}
	if scanFits == 0 {
		t.Fatal("no sample exercised the scan's fit reuse")
	}
}
