package evt

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
	return diff <= tol || diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestGPDExponentialSpecialCase(t *testing.T) {
	g := GPD{Xi: 0, Sigma: 2}
	for _, y := range []float64{0.1, 1, 3, 10} {
		if got, want := g.CDF(y), 1-math.Exp(-y/2); !almostEqual(got, want, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", y, got, want)
		}
		if got, want := g.PDF(y), math.Exp(-y/2)/2; !almostEqual(got, want, 1e-12) {
			t.Errorf("PDF(%v) = %v, want %v", y, got, want)
		}
	}
	if !math.IsInf(g.RightEndpoint(), 1) {
		t.Error("ξ=0 endpoint should be +Inf")
	}
	if got, want := g.Quantile(0.5), 2*math.Ln2; !almostEqual(got, want, 1e-12) {
		t.Errorf("median = %v, want %v", got, want)
	}
}

func TestGPDNegativeShape(t *testing.T) {
	g := GPD{Xi: -0.5, Sigma: 1}
	// Endpoint at −σ/ξ = 2.
	if got := g.RightEndpoint(); got != 2 {
		t.Errorf("endpoint = %v, want 2", got)
	}
	// CDF at endpoint is 1; beyond is 1; density outside is 0.
	if g.CDF(2) != 1 || g.CDF(3) != 1 {
		t.Error("CDF at/beyond endpoint should be 1")
	}
	if g.PDF(2.5) != 0 {
		t.Error("PDF beyond endpoint should be 0")
	}
	// ξ=−1/2: G(y) = 1 − (1−y/2)². Check y=1: 1 − 0.25 = 0.75.
	if got := g.CDF(1); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("CDF(1) = %v, want 0.75", got)
	}
	if g.CDF(-1) != 0 || g.PDF(-1) != 0 {
		t.Error("negative y outside support")
	}
	if !math.IsInf(g.LogPDF(3), -1) {
		t.Error("LogPDF beyond endpoint should be -Inf")
	}
}

func TestGPDPositiveShape(t *testing.T) {
	g := GPD{Xi: 0.5, Sigma: 1}
	if !math.IsInf(g.RightEndpoint(), 1) {
		t.Error("ξ>0 endpoint should be +Inf")
	}
	// Heavy tail: mean σ/(1−ξ) = 2, variance infinite at ξ=0.5.
	if got := g.Mean(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("mean = %v", got)
	}
	if !math.IsInf(g.Variance(), 1) {
		t.Error("variance should be +Inf at ξ=0.5")
	}
}

func TestGPDMeanVariance(t *testing.T) {
	g := GPD{Xi: -0.25, Sigma: 2}
	if got, want := g.Mean(), 2/1.25; !almostEqual(got, want, 1e-12) {
		t.Errorf("mean = %v, want %v", got, want)
	}
	want := 4 / (1.25 * 1.25 * 1.5)
	if got := g.Variance(); !almostEqual(got, want, 1e-12) {
		t.Errorf("variance = %v, want %v", got, want)
	}
	if !math.IsInf((GPD{Xi: 1.2, Sigma: 1}).Mean(), 1) {
		t.Error("mean should be +Inf for ξ>=1")
	}
}

func TestGPDValidate(t *testing.T) {
	if err := (GPD{Xi: -0.3, Sigma: 1}).Validate(); err != nil {
		t.Errorf("valid GPD rejected: %v", err)
	}
	for _, g := range []GPD{{Xi: 0, Sigma: 0}, {Xi: 0, Sigma: -1}, {Xi: math.NaN(), Sigma: 1}, {Xi: 0, Sigma: math.Inf(1)}} {
		if err := g.Validate(); err == nil {
			t.Errorf("invalid GPD %+v accepted", g)
		}
	}
}

func TestGPDQuantileCDFRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := GPD{Xi: r.Float64()*1.5 - 0.9, Sigma: 0.1 + r.Float64()*5}
		p := r.Float64()*0.98 + 0.01
		y := g.Quantile(p)
		return almostEqual(g.CDF(y), p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGPDCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := GPD{Xi: r.Float64()*2 - 1, Sigma: 0.1 + r.Float64()*3}
		a, b := r.Float64()*5, r.Float64()*5
		if a > b {
			a, b = b, a
		}
		return g.CDF(a) <= g.CDF(b)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGPDLogPDFMatchesPDF(t *testing.T) {
	gs := []GPD{{Xi: -0.4, Sigma: 1.3}, {Xi: 0, Sigma: 0.7}, {Xi: 0.6, Sigma: 2}}
	for _, g := range gs {
		for _, y := range []float64{0.01, 0.5, 1, 2} {
			p := g.PDF(y)
			if p == 0 {
				continue
			}
			if !almostEqual(g.LogPDF(y), math.Log(p), 1e-10) {
				t.Errorf("%v: LogPDF(%v) mismatch", g, y)
			}
		}
	}
}

// TestLogLikelihoodMatchesLogPDFBitwise pins the fit's inner loop to its
// reference: LogLikelihood is the in-order sum of LogPDF, bit for bit.
func TestLogLikelihoodMatchesLogPDFBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []GPD{{Xi: -0.4, Sigma: 1.3}, {Xi: 0, Sigma: 0.7}, {Xi: 0.6, Sigma: 2}} {
		ys := g.Sample(rng, 200)
		var want float64
		for _, y := range ys {
			want += g.LogPDF(y)
		}
		if got := g.LogLikelihood(ys); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: LogLikelihood %v (%016x), sum of LogPDF %v (%016x)",
				g, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestGPDSampleMatchesMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := GPD{Xi: -0.3, Sigma: 2}
	ys := g.Sample(rng, 200000)
	var sum float64
	for _, y := range ys {
		sum += y
	}
	mean := sum / float64(len(ys))
	if !almostEqual(mean, g.Mean(), 0.02) {
		t.Errorf("sample mean = %v, want %v", mean, g.Mean())
	}
	// All samples inside the support.
	for _, y := range ys {
		if y < 0 || y > g.RightEndpoint()+1e-12 {
			t.Fatalf("sample %v outside support [0, %v]", y, g.RightEndpoint())
		}
	}
}

func TestGPDLogLikelihoodOutsideSupport(t *testing.T) {
	g := GPD{Xi: -0.5, Sigma: 1} // endpoint 2
	if !math.IsInf(g.LogLikelihood([]float64{0.5, 3}), -1) {
		t.Error("likelihood with out-of-support point should be -Inf")
	}
	if g.LogLikelihood([]float64{0.5, 1}) >= 0 {
		// log densities of interior points here are negative
		t.Error("unexpected non-negative log likelihood")
	}
}

func TestGPDString(t *testing.T) {
	s := (GPD{Xi: -0.25, Sigma: 1.5}).String()
	if s == "" {
		t.Error("empty String()")
	}
}
