package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"optassign/internal/evt"
)

// syntheticEstimate builds an estimate from a known bounded population:
// X = bound − GPD(ξ, σ) so the tail above any threshold is a GPD with the
// same shape (threshold stability of the construction in reverse is only
// approximate, but the planner consumes the *fitted* model, so consistency
// is what matters).
func syntheticEstimate(t *testing.T, seed int64, n int) (Estimate, func() float64) {
	t.Helper()
	const bound = 1000.0
	tail := evt.GPD{Xi: -0.35, Sigma: 40}
	rng := rand.New(rand.NewSource(seed))
	draw := func() float64 { return bound - tail.Rand(rng) }
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = draw()
	}
	est, err := EstimateOptimal(xs, evt.POTOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return est, draw
}

func TestPlannerMedianMatchesSimulation(t *testing.T) {
	est, draw := syntheticEstimate(t, 1, 4000)
	p, err := NewPlanner(est)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{500, 2000} {
		want, err := p.MedianBestOfN(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Empirical distribution of best-of-n over independent trials.
		const trials = 120
		bests := make([]float64, trials)
		for tr := range bests {
			best := math.Inf(-1)
			for i := 0; i < n; i++ {
				if x := draw(); x > best {
					best = x
				}
			}
			bests[tr] = best
		}
		sort.Float64s(bests)
		empirical := bests[trials/2]
		if math.Abs(want-empirical)/empirical > 0.01 {
			t.Errorf("n=%d: predicted median best %v, simulated %v", n, want, empirical)
		}
	}
}

func TestPlannerMonotonicity(t *testing.T) {
	est, _ := syntheticEstimate(t, 2, 3000)
	p, err := NewPlanner(est)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, n := range []int{300, 1000, 3000, 10000, 100000} {
		m, err := p.MedianBestOfN(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m <= prev {
			t.Errorf("median best-of-%d = %v not increasing", n, m)
		}
		if m > est.Optimal {
			t.Errorf("median best-of-%d = %v exceeds the estimated optimum %v", n, m, est.Optimal)
		}
		prev = m
	}
	// Improvement probability increases with n, stays in [0,1].
	p1, err := p.ProbImprove(100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p.ProbImprove(10000)
	if err != nil {
		t.Fatal(err)
	}
	if !(p1 >= 0 && p1 <= 1 && p2 >= p1 && p2 <= 1) {
		t.Errorf("ProbImprove: %v then %v", p1, p2)
	}
}

func TestPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(Estimate{}); err == nil {
		t.Error("empty estimate accepted")
	}
	est, _ := syntheticEstimate(t, 4, 2000)
	p, err := NewPlanner(est)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BestOfNQuantile(0, 0.5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := p.BestOfNQuantile(100, 0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := p.ProbImprove(0); err == nil {
		t.Error("ProbImprove n=0 accepted")
	}
	// A tiny n whose best likely sits below the threshold is refused
	// rather than extrapolated.
	if _, err := p.BestOfNQuantile(2, 0.5); err == nil {
		t.Error("below-threshold quantile should error")
	}
}
