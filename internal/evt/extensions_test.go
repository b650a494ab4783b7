package evt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitGPDPWMRecoversParameters(t *testing.T) {
	cases := []GPD{
		{Xi: -0.4, Sigma: 1},
		{Xi: -0.2, Sigma: 3},
		{Xi: 0.1, Sigma: 2},
	}
	for i, truth := range cases {
		rng := rand.New(rand.NewSource(int64(500 + i)))
		ys := truth.Sample(rng, 5000)
		fit, err := FitGPDPWM(ys)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(fit.GPD.Xi-truth.Xi) > 0.08 {
			t.Errorf("case %d: ξ̂ = %v, want ≈ %v", i, fit.GPD.Xi, truth.Xi)
		}
		if math.Abs(fit.GPD.Sigma-truth.Sigma)/truth.Sigma > 0.1 {
			t.Errorf("case %d: σ̂ = %v, want ≈ %v", i, fit.GPD.Sigma, truth.Sigma)
		}
		if fit.Method != "pwm" {
			t.Errorf("method = %q", fit.Method)
		}
	}
}

func TestFitGPDPWMSmallSamplesAndErrors(t *testing.T) {
	if _, err := FitGPDPWM([]float64{1, 2}); !errors.Is(err, ErrSampleTooSmall) {
		t.Errorf("err = %v", err)
	}
	if _, err := FitGPDPWM([]float64{-1, 1, 2, 3, 4}); err == nil {
		t.Error("negative exceedance accepted")
	}
	// Support consistency: every observation inside the estimated support.
	rng := rand.New(rand.NewSource(1))
	truth := GPD{Xi: -0.45, Sigma: 1}
	ys := truth.Sample(rng, 60)
	fit, err := FitGPDPWM(ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range ys {
		if fit.GPD.Xi < 0 && y > fit.GPD.RightEndpoint() {
			t.Fatalf("observation %v outside fitted support %v", y, fit.GPD.RightEndpoint())
		}
	}
}

func TestPWMAgreesWithMLEProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := GPD{Xi: -(0.1 + 0.4*rng.Float64()), Sigma: 0.5 + 3*rng.Float64()}
		ys := truth.Sample(rng, 2000)
		mle, err1 := FitGPD(ys)
		pwm, err2 := FitGPDPWM(ys)
		if err1 != nil || err2 != nil {
			return false
		}
		// Both consistent estimators: they agree within loose tolerance.
		return math.Abs(mle.GPD.Xi-pwm.GPD.Xi) < 0.15 &&
			math.Abs(mle.GPD.Sigma-pwm.GPD.Sigma)/truth.Sigma < 0.2
	}
	// A fixed source keeps the 30 seeds the same on every run: random
	// ones fail on rare draws (at seed 2806120121040122072 the σ gap is
	// 20.7% of the true σ).
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestKSTestAcceptsTrueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := GPD{Xi: -0.3, Sigma: 2}
	ys := g.Sample(rng, 800)
	res := KSTest(ys, g)
	if res.N != 800 {
		t.Errorf("N = %d", res.N)
	}
	if res.D < 0 || res.D > 0.1 {
		t.Errorf("D = %v for the true model", res.D)
	}
	if res.PValue < 0.05 {
		t.Errorf("p = %v — true model rejected", res.PValue)
	}
}

func TestKSTestRejectsWrongModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ys := (GPD{Xi: -0.3, Sigma: 2}).Sample(rng, 800)
	res := KSTest(ys, GPD{Xi: 0.8, Sigma: 0.3})
	if res.PValue > 1e-4 {
		t.Errorf("p = %v — grossly wrong model accepted", res.PValue)
	}
	if res.D < 0.1 {
		t.Errorf("D = %v", res.D)
	}
}

func TestKSTestEdgeCases(t *testing.T) {
	res := KSTest(nil, GPD{Xi: 0, Sigma: 1})
	if !math.IsNaN(res.D) || !math.IsNaN(res.PValue) {
		t.Errorf("empty sample: %+v", res)
	}
	if q := kolmogorovQ(0); q != 1 {
		t.Errorf("Q(0) = %v", q)
	}
	if q := kolmogorovQ(10); q != 0 {
		t.Errorf("Q(10) = %v", q)
	}
	// Known value: Q(1) ≈ 0.27.
	if q := kolmogorovQ(1); math.Abs(q-0.26999967) > 1e-4 {
		t.Errorf("Q(1) = %v", q)
	}
}

func TestBootstrapUPBBracketsTruth(t *testing.T) {
	truth := GPD{Xi: -0.3, Sigma: 1.5} // endpoint 5
	u := 20.0
	trueUPB := u + truth.RightEndpoint()
	rng := rand.New(rand.NewSource(21))
	ys := truth.Sample(rng, 1200)
	fit, err := FitGPD(ys)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := BootstrapUPB(u, ys, fit, BootstrapOptions{Replicates: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !(iv.Lo <= iv.Point && iv.Point <= iv.Hi) {
		t.Errorf("interval %+v does not contain its point", iv)
	}
	if !(iv.Lo <= trueUPB && trueUPB <= iv.Hi) {
		t.Errorf("interval [%v, %v] misses the true endpoint %v", iv.Lo, iv.Hi, trueUPB)
	}
	// The best observation is a hard lower bound.
	maxObs := u
	for _, y := range ys {
		if u+y > maxObs {
			maxObs = u + y
		}
	}
	if iv.Lo < maxObs-1e-9 {
		t.Errorf("Lo %v below best observation %v", iv.Lo, maxObs)
	}
}

func TestBootstrapUPBWithPWMEstimator(t *testing.T) {
	truth := GPD{Xi: -0.25, Sigma: 1}
	rng := rand.New(rand.NewSource(22))
	ys := truth.Sample(rng, 800)
	fit, err := FitGPD(ys)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := BootstrapUPB(0, ys, fit, BootstrapOptions{Replicates: 200, Seed: 6, Estimator: FitGPDPWM})
	if err != nil {
		t.Fatal(err)
	}
	if !(iv.Lo <= iv.Point && iv.Point <= iv.Hi) {
		t.Errorf("interval %+v", iv)
	}
	if iv.Confidence != 0.95 {
		t.Errorf("confidence = %v", iv.Confidence)
	}
}

func TestBootstrapUPBErrors(t *testing.T) {
	fit := Fit{GPD: GPD{Xi: -0.3, Sigma: 1}}
	if _, err := BootstrapUPB(0, []float64{1, 2}, fit, BootstrapOptions{}); !errors.Is(err, ErrSampleTooSmall) {
		t.Errorf("err = %v", err)
	}
	unbounded := Fit{GPD: GPD{Xi: 0.2, Sigma: 1}}
	if _, err := BootstrapUPB(0, []float64{1, 2, 3, 4, 5, 6}, unbounded, BootstrapOptions{}); !errors.Is(err, ErrUnboundedTail) {
		t.Errorf("err = %v", err)
	}
}

func TestBootstrapAndWilksAgree(t *testing.T) {
	// The two interval constructions should be the same order of
	// magnitude on well-behaved data (the ablation's qualitative check).
	truth := GPD{Xi: -0.35, Sigma: 2}
	rng := rand.New(rand.NewSource(23))
	ys := truth.Sample(rng, 1500)
	fit, err := FitGPD(ys)
	if err != nil {
		t.Fatal(err)
	}
	wilks, err := UPBConfidenceInterval(0, ys, fit, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := BootstrapUPB(0, ys, fit, BootstrapOptions{Replicates: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(wilks.Hi, 1) || math.IsInf(boot.Hi, 1) {
		t.Skip("one construction unbounded on this draw")
	}
	wWidth, bWidth := wilks.Hi-wilks.Lo, boot.Hi-boot.Lo
	ratio := wWidth / bWidth
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("interval widths differ wildly: Wilks %v vs bootstrap %v", wWidth, bWidth)
	}
}
