package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestSumKahan(t *testing.T) {
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1e16)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1.0)
	}
	got := Sum(xs)
	want := 1e16 + 10000
	if got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Unbiased variance of this classic sample is 32/7.
	if v := Variance(xs); !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single element should be NaN")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v", mx, err)
	}
	if MustMax(xs) != 7 {
		t.Error("MustMax mismatch")
	}
}

func TestMustMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMax(nil) should panic")
		}
	}()
	MustMax(nil)
}

func TestSortedCopyDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := SortedCopy(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("SortedCopy mutated input")
	}
	if s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Errorf("SortedCopy = %v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty sample should be NaN")
	}
	if Quantile([]float64{42}, 0.3) != 42 {
		t.Error("Quantile of singleton should be that value")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		sorted := SortedCopy(xs)
		p1, p2 := r.Float64(), r.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Quantile(sorted, p1) <= Quantile(sorted, p2)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) && got != c.want {
			t.Errorf("ECDF.At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 || e.Min() != 1 || e.Max() != 3 {
		t.Errorf("ECDF summary wrong: len=%d min=%v max=%v", e.Len(), e.Min(), e.Max())
	}
	xs, ps := e.Points()
	if len(xs) != 4 || ps[3] != 1 {
		t.Errorf("Points = %v %v", xs, ps)
	}
}

func TestECDFIsValidCDFProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		e := NewECDF(xs)
		// Non-decreasing and bounded in [0,1] on a probe grid.
		prev := -1.0
		for x := -10.0; x <= 110; x += 5 {
			v := e.At(x)
			if v < 0 || v > 1 || v < prev {
				return false
			}
			prev = v
		}
		return e.At(e.Max()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegularizedGamma(t *testing.T) {
	// P(1, x) = 1 − e^−x (exponential distribution).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := RegularizedGammaP(1, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// The two branches agree where both converge, from the x = a+1
	// switch up: the power series against 1 − the continued fraction for
	// Q, which is defined for x >= a+1 only.
	for _, a := range []float64{0.5, 1.5, 3, 10} {
		for _, x := range []float64{a + 1, 1.5 * (a + 1), 2 * (a + 1), 4 * (a + 1)} {
			series, cf := gammaPSeries(a, x), 1-gammaQContinuedFraction(a, x)
			if !almostEqual(series, cf, 1e-10) {
				t.Errorf("a=%v x=%v: series %v, 1-continued fraction %v", a, x, series, cf)
			}
		}
	}
	// Known value: P(0.5, 0.5) = erf(sqrt(0.5)).
	if got, want := RegularizedGammaP(0.5, 0.5), math.Erf(math.Sqrt(0.5)); !almostEqual(got, want, 1e-10) {
		t.Errorf("P(.5,.5) = %v, want %v", got, want)
	}
	if !math.IsNaN(RegularizedGammaP(-1, 1)) || !math.IsNaN(RegularizedGammaP(1, -1)) {
		t.Error("invalid arguments should give NaN")
	}
	if RegularizedGammaP(2, 0) != 0 {
		t.Error("boundary values at x=0 wrong")
	}
}

func TestErfInv(t *testing.T) {
	for _, y := range []float64{-0.999, -0.9, -0.5, -0.1, 0, 0.1, 0.5, 0.9, 0.999} {
		x := ErfInv(y)
		if !almostEqual(math.Erf(x), y, 1e-12) {
			t.Errorf("Erf(ErfInv(%v)) = %v", y, math.Erf(x))
		}
	}
	if !math.IsInf(ErfInv(1), 1) || !math.IsInf(ErfInv(-1), -1) {
		t.Error("ErfInv(±1) should be ±Inf")
	}
	if !math.IsNaN(ErfInv(1.5)) {
		t.Error("ErfInv outside (-1,1) should be NaN")
	}
}

func TestErfInvRoundTripProperty(t *testing.T) {
	f := func(u float64) bool {
		y := math.Mod(math.Abs(u), 0.9999)
		x := ErfInv(y)
		return almostEqual(math.Erf(x), y, 1e-10) || y == 0 && x == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChiSquaredCDFAgainstKnown(t *testing.T) {
	// chi2(1 df): CDF(3.841459) ≈ 0.95; chi2(2 df): CDF(x) = 1 − e^{−x/2}.
	c1 := ChiSquared{K: 1}
	if got := c1.CDF(3.8414588206941236); !almostEqual(got, 0.95, 1e-9) {
		t.Errorf("chi2(1).CDF(3.8415) = %v, want 0.95", got)
	}
	c2 := ChiSquared{K: 2}
	for _, x := range []float64{0.5, 1, 3, 8} {
		want := 1 - math.Exp(-x/2)
		if got := c2.CDF(x); !almostEqual(got, want, 1e-10) {
			t.Errorf("chi2(2).CDF(%v) = %v, want %v", x, got, want)
		}
	}
	if c1.CDF(-1) != 0 {
		t.Error("CDF of negative should be 0")
	}
}

func TestChiSquaredQuantile(t *testing.T) {
	// The constant from the paper's Equation (1): chi2_{0.95,1} ≈ 3.8415.
	q, err := Chi2Quantile1DF(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(q, 3.8414588206941236, 1e-8) {
		t.Errorf("chi2_{0.95,1} = %v, want 3.84146", q)
	}
	// Round trip across several dfs and levels.
	for _, k := range []float64{1, 2, 3, 5, 10, 30} {
		c := ChiSquared{K: k}
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99} {
			x, err := c.Quantile(p)
			if err != nil {
				t.Fatalf("Quantile(%v df=%v): %v", p, k, err)
			}
			if got := c.CDF(x); !almostEqual(got, p, 1e-7) {
				t.Errorf("CDF(Quantile(%v)) df=%v = %v", p, k, got)
			}
		}
	}
	if _, err := (ChiSquared{K: 1}).Quantile(0); err == nil {
		t.Error("Quantile(0) should error")
	}
	if _, err := (ChiSquared{K: 1}).Quantile(1); err == nil {
		t.Error("Quantile(1) should error")
	}
}

func TestChiSquaredPDF(t *testing.T) {
	// df=2 is Exp(1/2): pdf(x) = e^{-x/2}/2.
	c := ChiSquared{K: 2}
	for _, x := range []float64{0.5, 1, 4} {
		want := math.Exp(-x/2) / 2
		if got := c.PDF(x); !almostEqual(got, want, 1e-12) {
			t.Errorf("PDF(%v) = %v, want %v", x, got, want)
		}
	}
	if c.PDF(-1) != 0 {
		t.Error("PDF of negative should be 0")
	}
	if c.PDF(0) != 0.5 {
		t.Errorf("chi2(2).PDF(0) = %v, want 0.5", c.PDF(0))
	}
	if !math.IsInf((ChiSquared{K: 1}).PDF(0), 1) {
		t.Error("chi2(1).PDF(0) should be +Inf")
	}
	if (ChiSquared{K: 4}).PDF(0) != 0 {
		t.Error("chi2(4).PDF(0) should be 0")
	}
}
