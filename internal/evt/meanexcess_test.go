package evt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bruteMeanExcess recomputes e_n(u) naively for cross-checking.
func bruteMeanExcess(xs []float64, u float64) (float64, int) {
	var sum float64
	var m int
	for _, x := range xs {
		if x > u {
			sum += x - u
			m++
		}
	}
	if m == 0 {
		return math.NaN(), 0
	}
	return sum / float64(m), m
}

func TestMeanExcessMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Float64() * 10
	}
	points, err := MeanExcess(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		want, m := bruteMeanExcess(xs, p.U)
		if p.Exceeds != m {
			t.Fatalf("exceeds at u=%v: got %d want %d", p.U, p.Exceeds, m)
		}
		if !almostEqual(p.E, want, 1e-9) {
			t.Fatalf("e(%v) = %v, want %v", p.U, p.E, want)
		}
	}
}

func TestMeanExcessExponentialIsFlat(t *testing.T) {
	// Memorylessness: exponential(σ) has constant mean excess σ.
	rng := rand.New(rand.NewSource(6))
	g := GPD{Xi: 0, Sigma: 2}
	xs := g.Sample(rng, 50000)
	points, err := MeanExcess(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Examine the body (skip the noisy extreme tail where few points remain).
	for _, p := range points {
		if p.Exceeds < 500 {
			break
		}
		if math.Abs(p.E-2) > 0.25 {
			t.Fatalf("mean excess at u=%v is %v, want ≈ 2", p.U, p.E)
		}
	}
}

func TestMeanExcessGPDSlope(t *testing.T) {
	// For GPD with ξ < 0, e(u) = (σ + ξu)/(1 − ξ): linear with slope
	// ξ/(1−ξ).
	rng := rand.New(rand.NewSource(7))
	truth := GPD{Xi: -0.3, Sigma: 2}
	xs := truth.Sample(rng, 80000)
	points, err := MeanExcess(xs)
	if err != nil {
		t.Fatal(err)
	}
	var us, es []float64
	for _, p := range points {
		if p.Exceeds >= 1000 { // stable region
			us = append(us, p.U)
			es = append(es, p.E)
		}
	}
	fit, err := FitLine(us, es)
	if err != nil {
		t.Fatal(err)
	}
	wantSlope := truth.Xi / (1 - truth.Xi)
	if math.Abs(fit.Slope-wantSlope) > 0.03 {
		t.Errorf("mean excess slope = %v, want %v", fit.Slope, wantSlope)
	}
	if fit.R2 < 0.97 {
		t.Errorf("R² = %v, expected near-linear plot", fit.R2)
	}
}

func TestMeanExcessSmallSample(t *testing.T) {
	if _, err := MeanExcess([]float64{1}); !errors.Is(err, ErrSampleTooSmall) {
		t.Errorf("err = %v", err)
	}
	if _, err := MeanExcess(nil); !errors.Is(err, ErrSampleTooSmall) {
		t.Errorf("err = %v", err)
	}
}

func TestMeanExcessWithDuplicates(t *testing.T) {
	xs := []float64{1, 1, 1, 2, 2, 3}
	points, err := MeanExcess(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct thresholds only: u=1 and u=2.
	if len(points) != 2 {
		t.Fatalf("points = %+v, want 2 entries", points)
	}
	if points[0].U != 1 || points[0].Exceeds != 3 {
		t.Errorf("point[0] = %+v", points[0])
	}
	// e(1) = ((2−1)+(2−1)+(3−1))/3 = 4/3.
	if !almostEqual(points[0].E, 4.0/3.0, 1e-12) {
		t.Errorf("e(1) = %v", points[0].E)
	}
}

func TestFitLine(t *testing.T) {
	// Exact line: y = 3 + 2x.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{3, 5, 7, 9}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 3, 1e-12) || !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	// Constant y fits exactly.
	fit, err = FitLine([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil || fit.R2 != 1 || fit.Slope != 0 {
		t.Errorf("constant fit = %+v err=%v", fit, err)
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x should error")
	}
}
