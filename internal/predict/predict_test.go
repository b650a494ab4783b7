package predict

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/netdps"
)

func testbed(t *testing.T) *netdps.Testbed {
	t.Helper()
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		t.Fatal(err)
	}
	tb.Noise = 0
	return tb
}

func TestHeuristicTracksMeasurements(t *testing.T) {
	tb := testbed(t)
	p := NewHeuristic(tb, 0, 0)
	rng := rand.New(rand.NewSource(1))
	var sumAbs, worst float64
	const trials = 200
	for i := 0; i < trials; i++ {
		a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
		if err != nil {
			t.Fatal(err)
		}
		measured, err := tb.MeasureAnalytic(a)
		if err != nil {
			t.Fatal(err)
		}
		predicted, err := p.Predict(a)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(predicted-measured) / measured
		sumAbs += rel
		if rel > worst {
			worst = rel
		}
	}
	mean := sumAbs / trials
	// The predictor is useful (mean error a few percent) but not perfect
	// (it must have real structural error, or the §5.4 study is vacuous).
	if mean > 0.10 {
		t.Errorf("mean relative error %.1f%% — predictor too inaccurate", mean*100)
	}
	if mean < 0.0005 {
		t.Errorf("mean relative error %.3f%% — predictor suspiciously exact", mean*100)
	}
	if worst > 0.5 {
		t.Errorf("worst relative error %.1f%%", worst*100)
	}
}

func TestHeuristicRanksAssignments(t *testing.T) {
	// What matters for the integrated approach is ranking: a clearly good
	// placement must predict above a clearly bad one.
	tb := testbed(t)
	p := NewHeuristic(tb, 0, 0)
	topo := tb.Machine.Topo
	good := make([]int, 24)
	for i := 0; i < 8; i++ {
		good[i*3+0] = topo.Context(i, 1, 0)
		good[i*3+1] = topo.Context(i, 0, 0)
		good[i*3+2] = topo.Context(i, 1, 1)
	}
	bad := make([]int, 24)
	for i := range bad {
		bad[i] = topo.Context(i/8, (i/4)%2, i%4) // packed into 3 cores
	}
	pg, err := p.Predict(assign.Assignment{Topo: topo, Ctx: good})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := p.Predict(assign.Assignment{Topo: topo, Ctx: bad})
	if err != nil {
		t.Fatal(err)
	}
	if !(pg > pb*1.05) {
		t.Errorf("predictor ranking wrong: good %v vs bad %v", pg, pb)
	}
}

func TestHeuristicErrorKnob(t *testing.T) {
	tb := testbed(t)
	exact := NewHeuristic(tb, 0, 0)
	noisy := NewHeuristic(tb, 0.05, 7)
	rng := rand.New(rand.NewSource(2))
	a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	p0, err := exact.Predict(a)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := noisy.Predict(a)
	if err != nil {
		t.Fatal(err)
	}
	if p0 == p1 {
		t.Error("error knob had no effect")
	}
	if math.Abs(p1-p0)/p0 > 0.06 {
		t.Errorf("error exceeded its half-width: %v vs %v", p1, p0)
	}
	// Deterministic per assignment.
	p2, err := noisy.Predict(a)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("prediction not deterministic")
	}
}

func TestHeuristicValidation(t *testing.T) {
	tb := testbed(t)
	p := NewHeuristic(tb, 0, 0)
	if _, err := p.Predict(assign.Assignment{Topo: tb.Machine.Topo, Ctx: []int{0, 1}}); err == nil {
		t.Error("wrong task count accepted")
	}
	ctx := make([]int, 24)
	for i := range ctx {
		ctx[i] = 5 // collisions
	}
	if _, err := p.Predict(assign.Assignment{Topo: tb.Machine.Topo, Ctx: ctx}); err == nil {
		t.Error("invalid assignment accepted")
	}
}

func TestIntegratedApproachEndToEnd(t *testing.T) {
	// §5.4: the whole statistical pipeline runs on predictions. The
	// prediction-based estimate should approximate the measurement-based
	// one within a few times the predictor's error scale.
	tb := testbed(t)
	rng := rand.New(rand.NewSource(3))
	measuredSample, _, err := core.CollectSampleContext(context.Background(), rng, tb.Machine.Topo, tb.TaskCount(), 1500, tb)
	if err != nil {
		t.Fatal(err)
	}
	measuredEst, err := core.EstimateOptimal(core.Perfs(measuredSample), evt.POTOptions{})
	if err != nil {
		t.Fatal(err)
	}

	rng = rand.New(rand.NewSource(3)) // same assignments
	predictedSample, _, err := core.CollectSampleContext(context.Background(), rng, tb.Machine.Topo, tb.TaskCount(), 1500,
		Runner{P: NewHeuristic(tb, 0.01, 9)})
	if err != nil {
		t.Fatal(err)
	}
	predictedEst, err := core.EstimateOptimal(core.Perfs(predictedSample), evt.POTOptions{})
	if err != nil {
		t.Fatal(err)
	}

	rel := math.Abs(predictedEst.Optimal-measuredEst.Optimal) / measuredEst.Optimal
	if rel > 0.10 {
		t.Errorf("integrated estimate %v vs measured estimate %v (%.1f%% apart)",
			predictedEst.Optimal, measuredEst.Optimal, rel*100)
	}
}
