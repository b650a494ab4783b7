package evt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"optassign/internal/stats"
)

// profileCandidateSets returns every distinct exceedance set the
// fit-scored threshold scan fits on the golden corpus and on the golden
// refit streams: for each sample (each stream prefix at a scheduled
// refit), the exceedances above each candidate threshold of the scan.
func profileCandidateSets() [][]float64 {
	var samples [][]float64
	for _, s := range goldenCorpus() {
		samples = append(samples, s.xs)
	}
	for _, s := range goldenStreams() {
		for n := 1000; n <= len(s.xs); n += 100 {
			samples = append(samples, s.xs[:n])
		}
	}
	o := ThresholdOptions{}.withDefaults()
	seen := map[uint64]bool{}
	var sets [][]float64
	for _, xs := range samples {
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		n := len(sorted)
		for _, m := range scanCounts(int(float64(n)*o.MaxExceedFraction), o.MinExceedances) {
			u, end := cutSorted(sorted, m, o.MinExceedances)
			ys := make([]float64, 0, n-end)
			h := uint64(fnvOffset64)
			for _, x := range sorted[end:] {
				ys = append(ys, x-u)
				h = foldHash(h, x-u)
			}
			if len(ys) >= o.MinExceedances && !seen[h] {
				seen[h] = true
				sets = append(sets, ys)
			}
		}
	}
	return sets
}

// profileGridMax is the largest profile log-likelihood ℓ*(θ) on a dense
// grid of n feasible θ (ξ̂(θ) in (xiFloor, xiCeil]), half below zero and
// half above, each half log-spaced, computed from the closed form alone.
func profileGridMax(ys []float64, n int) float64 {
	m := float64(len(ys))
	ymax, mean := slices.Max(ys), 0.0
	for _, y := range ys {
		mean += y / m
	}
	best := -m*math.Log(mean) - m // the exponential limit at θ = 0
	for i := 0; i < n; i++ {
		frac := float64(i%(n/2)) / float64(n/2-1)
		var theta float64
		if i < n/2 {
			theta = -1 / (ymax * (1 + math.Pow(10, -9+13*frac)))
		} else {
			theta = math.Pow(10, -6+8*frac) / mean
		}
		var s float64
		for _, y := range ys {
			s += math.Log1p(theta * y)
		}
		xi := s / m
		if xi <= xiFloor || xi > xiCeil {
			continue
		}
		best = max(best, -m*math.Log(xi/theta)-m*xi-m)
	}
	return best
}

// checkFitReachesGrid fails t when FitGPD(ys) errs, ends below the dense
// grid's best profile value or on the wrong side of the shape floor. It
// is safe to call from several goroutines.
func checkFitReachesGrid(t *testing.T, name string, ys []float64) Fit {
	t.Helper()
	fit, err := FitGPD(ys)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return fit
	}
	if fit.GPD.Xi <= xiFloor || fit.GPD.Xi > xiCeil {
		t.Errorf("%s: ξ̂ = %v outside (%v, %v]", name, fit.GPD.Xi, xiFloor, float64(xiCeil))
	}
	if grid := profileGridMax(ys, 2000); fit.LogLikelihood < grid-1e-9*math.Abs(grid) {
		t.Errorf("%s: fit log-likelihood %v below the dense-grid profile maximum %v (%v)", name, fit.LogLikelihood, grid, fit.GPD)
	}
	return fit
}

// TestFitGPDReachesProfileMaximum checks that every exceedance set the
// golden corpus and refit streams fit reaches the best profile value of
// a 2,000-point θ grid: the coarse grid plus Newton finds the global
// maximum, not a lower local one.
func TestFitGPDReachesProfileMaximum(t *testing.T) {
	sets := profileCandidateSets()
	if len(sets) < 500 {
		t.Fatalf("only %d candidate sets", len(sets))
	}
	// The sets are independent; spread them over the processors.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(sets); i = int(next.Add(1)) - 1 {
				checkFitReachesGrid(t, fmt.Sprintf("set %d (m=%d)", i, len(sets[i])), sets[i])
			}
		}()
	}
	wg.Wait()
}

// TestFitGPDFloorBoundary fits small samples whose maximum sits on (or
// pushes past) the ξ > −1 floor: near-uniform tails, where ξ̂ is close to
// −1 and the unconstrained profile keeps rising toward the sample
// maximum. The fit must stay strictly above the floor and still reach
// the grid's best feasible profile value.
func TestFitGPDFloorBoundary(t *testing.T) {
	onFloor := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 20 + int(seed)%21
		xi := -0.9 - 0.1*rng.Float64()
		ys := GPD{Xi: xi, Sigma: 2}.Sample(rng, m)
		slices.Sort(ys)
		fit := checkFitReachesGrid(t, fmt.Sprintf("seed %d, m=%d, ξ=%.3f", seed, m, xi), ys)
		if fit.GPD.Xi == math.Nextafter(xiFloor, 0) {
			onFloor++
		}
	}
	// A sample spaced evenly up to its maximum is the discrete uniform,
	// whose likelihood is largest on the floor itself.
	ys := make([]float64, 30)
	for i := range ys {
		ys[i] = float64(i + 1)
	}
	if fit := checkFitReachesGrid(t, "evenly spaced", ys); fit.GPD.Xi != math.Nextafter(xiFloor, 0) {
		t.Errorf("evenly spaced: ξ̂ = %v, want the floor %v", fit.GPD.Xi, math.Nextafter(xiFloor, 0))
	} else {
		onFloor++
	}
	t.Logf("%d of 41 fits on the floor", onFloor)
}

// TestFitGPDNearExponential fits exponential samples, whose maximizing θ
// is close to zero on either side: the fit must be finite, near ξ = 0,
// and at least as likely as the exponential model itself.
func TestFitGPDNearExponential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ys := GPD{Xi: 0, Sigma: 3}.Sample(rng, 200+10*int(seed))
		slices.Sort(ys)
		fit := checkFitReachesGrid(t, fmt.Sprintf("seed %d", seed), ys)
		m := float64(len(ys))
		mean := 0.0
		for _, y := range ys {
			mean += y / m
		}
		if expLL := -m*math.Log(mean) - m; fit.LogLikelihood < expLL-1e-9*math.Abs(expLL) {
			t.Errorf("seed %d: fit log-likelihood %v below the exponential model's %v", seed, fit.LogLikelihood, expLL)
		}
		if math.Abs(fit.GPD.Xi) > 0.25 {
			t.Errorf("seed %d: ξ̂ = %v, want near 0", seed, fit.GPD.Xi)
		}
	}
}

// TestProfileDerivatives checks the profile's score and its derivative
// against central differences of the value, on both sides of θ = 0 and
// on both branches of the floor.
func TestProfileDerivatives(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gpd := GPD{Xi: -0.3, Sigma: 5}.Sample(rng, 300)
	slices.Sort(gpd)
	even := make([]float64, 30) // ξ̂ reaches the floor near the pole
	for i := range even {
		even[i] = float64(i + 1)
	}
	floor := math.Nextafter(xiFloor, 0)
	for _, ys := range [][]float64{gpd, even} {
		ymax, mean := ys[len(ys)-1], 0.0
		for _, y := range ys {
			mean += y / float64(len(ys))
		}
		p := &profile{ys: ys, m: float64(len(ys))}
		onFloor := 0
		for _, theta := range []float64{
			-1 / (ymax * (1 + 1e-4)), -1 / (ymax * 1.01), -1 / (ymax * 1.5), -1 / (ymax * 20),
			0.01 / mean, 0.5 / mean, 5 / mean,
		} {
			h := min(1e-5*math.Abs(theta), 1e-3*(theta+1/ymax)) // inside the support
			pt := p.at(theta, true)
			lo, hi := p.at(theta-h, true), p.at(theta+h, true)
			if pt.xi == floor {
				onFloor++
				if lo.xi != floor || hi.xi != floor {
					t.Fatalf("θ = %v: difference straddles the floor", theta)
				}
			}
			fd1 := (hi.f - lo.f) / (2 * h)
			fd2 := (hi.d1 - lo.d1) / (2 * h)
			// The score's terms are of order m/|θ| and cancel near the
			// maximum, so its error is measured against that scale too.
			if math.Abs(pt.d1-fd1) > 1e-6*(math.Abs(fd1)+p.m/math.Abs(theta)) {
				t.Errorf("m=%d, θ = %v: score %v, central difference %v", len(ys), theta, pt.d1, fd1)
			}
			if math.Abs(pt.d2-fd2) > 1e-5*math.Abs(fd2) {
				t.Errorf("m=%d, θ = %v: score derivative %v, central difference %v", len(ys), theta, pt.d2, fd2)
			}
		}
		if wantFloor := len(ys) == len(even); (onFloor > 0) != wantFloor {
			t.Errorf("m=%d: %d points on the floor, want some: %v", len(ys), onFloor, wantFloor)
		}
		// At θ = 0 the score is the limit Σy²/(2ȳ) − Σy.
		h := 1e-6 / mean
		fd1 := (p.at(h, false).f - p.at(-h, false).f) / (2 * h)
		if d1 := p.at(0, true).d1; math.Abs(d1-fd1) > 1e-4*math.Abs(fd1) {
			t.Errorf("m=%d, θ = 0: score %v, central difference %v", len(ys), d1, fd1)
		}
	}
}

// TestFitGPDStationary checks the fit against the two-parameter
// likelihood it stands for: at an interior maximum, GPD.LogLikelihood's
// partial derivatives in ξ and σ vanish, and no step in any of eight
// directions around (ξ̂, σ̂) is more likely.
func TestFitGPDStationary(t *testing.T) {
	for i, truth := range []GPD{{Xi: -0.4, Sigma: 1}, {Xi: -0.1, Sigma: 6}, {Xi: 0.15, Sigma: 2}, {Xi: 0.6, Sigma: 0.5}} {
		ys := truth.Sample(rand.New(rand.NewSource(int64(30+i))), 400)
		slices.Sort(ys)
		fit, err := FitGPD(ys)
		if err != nil {
			t.Fatalf("%v: %v", truth, err)
		}
		xi, sigma := fit.GPD.Xi, fit.GPD.Sigma
		ll := func(dx, ds float64) float64 { return GPD{Xi: xi + dx, Sigma: sigma + ds}.LogLikelihood(ys) }
		hx, hs := 1e-5, 1e-5*sigma
		m := float64(len(ys))
		// Each term of the log-likelihood is O(1), so the partials are
		// measured against m per unit of ξ and m/σ per unit of σ.
		if dxi := (ll(hx, 0) - ll(-hx, 0)) / (2 * hx); math.Abs(dxi) > 1e-4*m {
			t.Errorf("%v: ∂ℓ/∂ξ = %v at the fit %v", truth, dxi, fit.GPD)
		}
		if dsig := (ll(0, hs) - ll(0, -hs)) / (2 * hs); math.Abs(dsig) > 1e-4*m/sigma {
			t.Errorf("%v: ∂ℓ/∂σ = %v at the fit %v", truth, dsig, fit.GPD)
		}
		for k := 0; k < 8; k++ {
			a := float64(k) * math.Pi / 4
			dx, ds := 1e-3*math.Cos(a), 1e-3*sigma*math.Sin(a)
			if v := ll(dx, ds); v > fit.LogLikelihood {
				t.Errorf("%v: ℓ(%v, %v) = %v above the fit's %v", truth, xi+dx, sigma+ds, v, fit.LogLikelihood)
			}
		}
	}
}

// TestFitGPDScaleEquivariant checks that rescaling the exceedances
// rescales σ̂ and leaves ξ̂ alone, as it does for the exact maximum.
func TestFitGPDScaleEquivariant(t *testing.T) {
	ys := GPD{Xi: -0.25, Sigma: 1}.Sample(rand.New(rand.NewSource(8)), 300)
	slices.Sort(ys)
	base, err := FitGPD(ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{1e-3, 0.5, 7, 1e4} {
		scaled := make([]float64, len(ys))
		for i, y := range ys {
			scaled[i] = c * y
		}
		fit, err := FitGPD(scaled)
		if err != nil {
			t.Fatalf("c=%v: %v", c, err)
		}
		if math.Abs(fit.GPD.Xi-base.GPD.Xi) > 1e-6 {
			t.Errorf("c=%v: ξ̂ = %v, unscaled %v", c, fit.GPD.Xi, base.GPD.Xi)
		}
		if r := fit.GPD.Sigma / (c * base.GPD.Sigma); math.Abs(r-1) > 1e-6 {
			t.Errorf("c=%v: σ̂ = %v, want %v", c, fit.GPD.Sigma, c*base.GPD.Sigma)
		}
		// ℓ shifts by −m·log c under the change of units.
		if want := base.LogLikelihood - float64(len(ys))*math.Log(c); math.Abs(fit.LogLikelihood-want) > 1e-7*math.Abs(want)+1e-7 {
			t.Errorf("c=%v: log-likelihood %v, want %v", c, fit.LogLikelihood, want)
		}
	}
}

// TestFitGPDOrderInvariant fits the same exceedances sorted and shuffled:
// the fit does not depend on the order it reads them in, beyond rounding.
func TestFitGPDOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ys := GPD{Xi: -0.3, Sigma: 4}.Sample(rng, 250)
	sorted := slices.Clone(ys)
	slices.Sort(sorted)
	rng.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
	a, err := FitGPD(sorted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitGPD(ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.GPD.Xi-b.GPD.Xi) > 1e-8 || math.Abs(a.GPD.Sigma/b.GPD.Sigma-1) > 1e-8 {
		t.Errorf("sorted fit %v, shuffled fit %v", a.GPD, b.GPD)
	}
	if math.Abs(a.LogLikelihood-b.LogLikelihood) > 1e-9*math.Abs(a.LogLikelihood) {
		t.Errorf("sorted log-likelihood %v, shuffled %v", a.LogLikelihood, b.LogLikelihood)
	}
}

// TestFitGPDHeavyTail fits samples with positive shape, whose maximum
// lies at θ > 0, up to tails heavy enough that the grid must be extended
// past its last point.
func TestFitGPDHeavyTail(t *testing.T) {
	for i, xi := range []float64{0.1, 0.4, 1, 2.5} {
		ys := GPD{Xi: xi, Sigma: 1}.Sample(rand.New(rand.NewSource(int64(50+i))), 500)
		slices.Sort(ys)
		fit := checkFitReachesGrid(t, fmt.Sprintf("ξ=%v", xi), ys)
		if math.Abs(fit.GPD.Xi-xi) > 0.25*max(1, xi) {
			t.Errorf("ξ=%v: ξ̂ = %v", xi, fit.GPD.Xi)
		}
		// The grid's last point is θ = 10/ȳ; the heaviest tail's maximum
		// lies beyond it.
		if mean := stats.Mean(ys); xi == 2.5 && fit.GPD.Xi/fit.GPD.Sigma <= 10/mean {
			t.Errorf("ξ=%v: θ̂ = %v inside the fixed grid (last point %v)", xi, fit.GPD.Xi/fit.GPD.Sigma, 10/mean)
		}
	}
}

// TestFitGPDResult checks what FitGPD reports besides the parameters:
// the log-likelihood is the model's own on the data, bit for bit.
func TestFitGPDResult(t *testing.T) {
	ys := GPD{Xi: -0.2, Sigma: 3}.Sample(rand.New(rand.NewSource(21)), 120)
	slices.Sort(ys)
	fit, err := FitGPD(ys)
	if err != nil {
		t.Fatal(err)
	}
	if ll := fit.GPD.LogLikelihood(ys); fit.LogLikelihood != ll {
		t.Errorf("Fit.LogLikelihood = %v, GPD.LogLikelihood = %v", fit.LogLikelihood, ll)
	}
	if fit.Method != "mle" || fit.Exceedances != len(ys) {
		t.Errorf("metadata %+v", fit)
	}
	if err := fit.GPD.Validate(); err != nil {
		t.Error(err)
	}
}

// TestFitGPDRejectsInfeasible checks the errors FitGPD keeps: a negative
// exceedance has no feasible fit, and ties leave the tail degenerate.
func TestFitGPDRejectsInfeasible(t *testing.T) {
	if _, err := FitGPD([]float64{-0.5, 1, 2, 3, 4, 5}); !errors.Is(err, errNoFeasibleFit) {
		t.Errorf("negative exceedance: err = %v, want errNoFeasibleFit", err)
	}
	if _, err := FitGPD([]float64{1, 1, 1, 2, 2, 2}); !errors.Is(err, ErrDegenerateTail) || !errors.Is(err, ErrSampleTooSmall) {
		t.Errorf("two distinct values: err = %v, want ErrDegenerateTail", err)
	}
}

// TestFitGPDPasses bounds the work of a fit: over every candidate set of
// the golden corpus and refit streams, the profile search makes a few
// dozen passes over the exceedances, where a two-dimensional simplex
// search needs a hundred or more.
func TestFitGPDPasses(t *testing.T) {
	sets := profileCandidateSets()
	total, most := 0, 0
	for _, ys := range sets {
		_, passes, err := fitProfile(ys)
		if err != nil {
			t.Fatalf("m=%d: %v", len(ys), err)
		}
		total += passes
		most = max(most, passes)
	}
	mean := float64(total) / float64(len(sets))
	t.Logf("%d sets: %.1f passes per fit on average, at most %d", len(sets), mean, most)
	if mean > 40 || most > 100 {
		t.Errorf("%.1f passes per fit on average, at most %d: want at most 40 and 100", mean, most)
	}
}

// BenchmarkFitGPD measures one maximum-likelihood fit at the exceedance
// counts a campaign's threshold scan sees, and reports the passes over
// the exceedances it needed (the profile's, plus the final likelihood).
func BenchmarkFitGPD(b *testing.B) {
	for _, m := range []int{50, 250, 500} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(m)))
			ys := GPD{Xi: -0.3, Sigma: 5}.Sample(rng, m)
			slices.Sort(ys)
			_, passes, err := fitProfile(ys)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FitGPD(ys); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(passes+1), "passes/fit")
		})
	}
}
