package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/evt"
	"optassign/internal/netdps"
	"optassign/internal/t2"
)

func TestCaptureProbabilityKnownValues(t *testing.T) {
	cases := []struct {
		n    int
		pct  float64
		want float64
	}{
		{0, 1, 0},
		{1, 50, 0.5},
		{100, 1, 1 - math.Pow(0.99, 100)}, // ≈ 0.634
		{459, 1, 0.99005},                 // §3.1: several hundred suffice for top 1%
		{10, 100, 1},
	}
	for _, c := range cases {
		got, err := CaptureProbability(c.n, c.pct)
		if err != nil {
			t.Fatalf("(%d, %v): %v", c.n, c.pct, err)
		}
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("CaptureProbability(%d, %v) = %v, want %v", c.n, c.pct, got, c.want)
		}
	}
}

func TestCaptureProbabilityErrors(t *testing.T) {
	if _, err := CaptureProbability(-1, 1); err == nil {
		t.Error("negative n accepted")
	}
	for _, pct := range []float64{0, -5, 101} {
		if _, err := CaptureProbability(10, pct); err == nil {
			t.Errorf("pct=%v accepted", pct)
		}
	}
}

func TestCaptureProbabilityMonotoneProperty(t *testing.T) {
	f := func(rawN uint16, rawP uint8) bool {
		n := int(rawN) % 5000
		pct := 0.5 + float64(rawP%25)
		p1, err1 := CaptureProbability(n, pct)
		p2, err2 := CaptureProbability(n+100, pct)
		p3, err3 := CaptureProbability(n, pct+1)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		// More samples and a wider top-set both raise the probability.
		return p2 >= p1 && p3 >= p1 && p1 >= 0 && p2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRequiredSampleSize(t *testing.T) {
	// The paper's headline: a few hundred samples capture a top-1%
	// assignment with 99% probability.
	n, err := RequiredSampleSize(1, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if n != 459 {
		t.Errorf("RequiredSampleSize(1, 0.99) = %d, want 459", n)
	}
	// Consistency: n achieves the probability, n−1 does not.
	for _, c := range []struct{ pct, prob float64 }{{1, 0.99}, {2, 0.999}, {5, 0.95}, {0.5, 0.9}} {
		n, err := RequiredSampleSize(c.pct, c.prob)
		if err != nil {
			t.Fatal(err)
		}
		pAt, _ := CaptureProbability(n, c.pct)
		pBelow, _ := CaptureProbability(n-1, c.pct)
		if pAt < c.prob || pBelow >= c.prob {
			t.Errorf("RequiredSampleSize(%v, %v) = %d: P(n)=%v P(n-1)=%v", c.pct, c.prob, n, pAt, pBelow)
		}
	}
	if n, _ := RequiredSampleSize(5, 0); n != 0 {
		t.Errorf("prob 0 should need 0 samples, got %d", n)
	}
	if n, _ := RequiredSampleSize(100, 0.5); n != 1 {
		t.Errorf("pct 100 should need 1 sample, got %d", n)
	}
	if _, err := RequiredSampleSize(0, 0.5); err == nil {
		t.Error("pct 0 accepted")
	}
	if _, err := RequiredSampleSize(1, 1); err == nil {
		t.Error("prob 1 accepted")
	}
}

func TestCaptureCurve(t *testing.T) {
	pts, err := CaptureCurve(1, []int{1, 10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Prob <= pts[i-1].Prob {
			t.Error("curve not increasing")
		}
	}
	if _, err := CaptureCurve(0, []int{1}); err == nil {
		t.Error("bad pct accepted")
	}
}

func TestBestAndPerfs(t *testing.T) {
	if Best(nil) != -1 {
		t.Error("Best(nil) should be -1")
	}
	rs := []SampleResult{{Perf: 2}, {Perf: 9}, {Perf: 5}}
	if Best(rs) != 1 {
		t.Errorf("Best = %d", Best(rs))
	}
	ps := Perfs(rs)
	if len(ps) != 3 || ps[1] != 9 {
		t.Errorf("Perfs = %v", ps)
	}
}

func TestCollectSample(t *testing.T) {
	topo := t2.UltraSPARCT2()
	rng := rand.New(rand.NewSource(1))
	calls := 0
	runner := ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) {
		calls++
		if err := a.Validate(); err != nil {
			return 0, err
		}
		return float64(a.Ctx[0]), nil
	})
	ctx := context.Background()
	rs, _, err := CollectSampleContext(ctx, rng, topo, 6, 25, runner)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 25 || calls != 25 {
		t.Errorf("len=%d calls=%d", len(rs), calls)
	}
	if _, _, err := CollectSampleContext(ctx, rng, topo, 6, 5, nil); err == nil {
		t.Error("nil runner accepted")
	}
	failing := ContextRunnerFunc(func(context.Context, assign.Assignment) (float64, error) { return 0, errors.New("boom") })
	if _, _, err := CollectSampleContext(ctx, rng, topo, 6, 5, failing); err == nil {
		t.Error("runner error not propagated")
	}
	if _, _, err := CollectSampleContext(ctx, rng, topo, 0, 5, runner); err == nil {
		t.Error("bad task count accepted")
	}
}

// TestAsContextRunnerChecksCtx: a Runner without MeasureContext is
// wrapped in a shim that refuses to start on a done ctx.
func TestAsContextRunnerChecksCtx(t *testing.T) {
	calls := 0
	cr := AsContextRunner(runnerFunc(func(assign.Assignment) (float64, error) { calls++; return 1, nil }))
	a := assign.Assignment{Topo: t2.UltraSPARCT2(), Ctx: []int{0, 1, 2}}
	if perf, err := cr.MeasureContext(context.Background(), a); err != nil || perf != 1 {
		t.Fatalf("live ctx: perf=%v err=%v", perf, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if perf, err := cr.MeasureContext(ctx, a); !errors.Is(err, context.Canceled) || perf != 0 {
		t.Fatalf("cancelled ctx: perf=%v err=%v, want 0 and context.Canceled", perf, err)
	}
	if calls != 1 {
		t.Fatalf("inner runner called %d times, want 1", calls)
	}
}

type runnerFunc func(assign.Assignment) (float64, error)

func (f runnerFunc) Measure(a assign.Assignment) (float64, error) { return f(a) }

func newTestbed(t *testing.T, instances int) *netdps.Testbed {
	t.Helper()
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), instances)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestEstimateOptimalOnTestbed(t *testing.T) {
	tb := newTestbed(t, 8)
	rng := rand.New(rand.NewSource(3))
	rs, _, err := CollectSampleContext(context.Background(), rng, tb.Machine.Topo, tb.TaskCount(), 1000, tb)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateOptimal(Perfs(rs), evt.POTOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Optimal < est.BestObserved {
		t.Errorf("optimal %v below best observed %v", est.Optimal, est.BestObserved)
	}
	if !(est.Lo <= est.Optimal && est.Optimal <= est.Hi) {
		t.Errorf("CI [%v, %v] does not contain point %v", est.Lo, est.Hi, est.Optimal)
	}
	if est.Report.Fit.GPD.Xi >= 0 {
		t.Errorf("fitted shape %v should be negative on a bounded system", est.Report.Fit.GPD.Xi)
	}
	if est.HeadroomPct < 0 || est.HeadroomPct > 30 {
		t.Errorf("headroom %v%% out of plausible band", est.HeadroomPct)
	}
	if _, err := EstimateOptimal(nil, evt.POTOptions{}); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestIterateConvergesAndRespectsTarget(t *testing.T) {
	tb := newTestbed(t, 8)
	base := IterConfig{
		Topo:  tb.Machine.Topo,
		Tasks: tb.TaskCount(),
		Ninit: 500,

		Ndelta: 100,
		Seed:   7,
	}

	loose := base
	loose.AcceptLossPct = 10
	rl, err := IterateContext(context.Background(), loose, tb)
	if err != nil {
		t.Fatalf("loose target: %v", err)
	}
	if !rl.Satisfied {
		t.Error("loose target not satisfied")
	}
	if rl.Final.HeadroomHiPct > 10 {
		t.Errorf("final conservative headroom %v above target", rl.Final.HeadroomHiPct)
	}

	tight := base
	tight.AcceptLossPct = 2.0
	tight.MaxSamples = 8000
	var estimatedAt []int // the sample count of each estimated round
	tight.OnRound = func(r Round) {
		if r.Kind == RoundEstimated {
			estimatedAt = append(estimatedAt, r.Samples)
		}
	}
	rt, err := IterateContext(context.Background(), tight, tb)
	if err != nil && !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("tight target: %v", err)
	}
	if rt.Samples < rl.Samples {
		t.Errorf("tighter target used fewer samples (%d) than loose (%d)", rt.Samples, rl.Samples)
	}
	// The estimated rounds are monotone in sample count.
	for i := 1; i < len(estimatedAt); i++ {
		if estimatedAt[i] <= estimatedAt[i-1] {
			t.Error("round sample counts not increasing")
		}
	}
	if rt.Best.Perf < rl.Best.Perf*0.95 {
		t.Errorf("larger sample found much worse best: %v vs %v", rt.Best.Perf, rl.Best.Perf)
	}
}

// TestIterResultDoesNotGrowWithRounds: a campaign's result keeps the
// certificate, not its trajectory. The rounds reach callers only through
// OnRound, so a campaign that refits 91 times retains about what one that
// refits twice does: only the final Report's exceedances grow with the
// sample.
func TestIterResultDoesNotGrowWithRounds(t *testing.T) {
	tb := newTestbed(t, 8)
	retained := map[int]int{}
	for _, budget := range []int{1100, 10000} {
		cfg := IterConfig{
			Topo:          tb.Machine.Topo,
			Tasks:         tb.TaskCount(),
			AcceptLossPct: 0.01, // unreachable: every campaign runs its whole budget
			MaxSamples:    budget,
			Seed:          1,
		}
		res, err := IterateContext(context.Background(), cfg, tb)
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("budget %d: err = %v, want ErrBudgetExhausted", budget, err)
		}
		retained[budget] = reachableBytes(reflect.ValueOf(res), map[uintptr]bool{})
	}
	t.Logf("retained: %d bytes at 1,100 draws, %d at 10,000", retained[1100], retained[10000])
	const slack = 16 << 10
	if grew := retained[10000] - retained[1100]; grew > slack {
		t.Fatalf("the 10,000-draw result retains %d bytes, %d more than the 1,100-draw one's %d (allowed %d)",
			retained[10000], grew, retained[1100], slack)
	}
}

// reachableBytes sums the backing arrays of the slices and the bytes of
// the strings reachable from v, counting each array and pointee once.
func reachableBytes(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.String:
		return v.Len()
	case reflect.Slice:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += reachableBytes(v.Index(i), seen)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += reachableBytes(v.Index(i), seen)
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += reachableBytes(v.Field(i), seen)
		}
		return n
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return reachableBytes(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return reachableBytes(v.Elem(), seen)
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += reachableBytes(it.Key(), seen) + reachableBytes(it.Value(), seen)
		}
		return n
	}
	return 0
}

func TestIterateBudgetExhaustion(t *testing.T) {
	tb := newTestbed(t, 8)
	cfg := IterConfig{
		Topo:          tb.Machine.Topo,
		Tasks:         tb.TaskCount(),
		AcceptLossPct: 0.0001, // unreachably tight
		Ninit:         500,
		Ndelta:        100,
		MaxSamples:    800,
		Seed:          1,
	}
	res, err := IterateContext(context.Background(), cfg, tb)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res.Satisfied {
		t.Error("Satisfied should be false")
	}
	if res.Samples != 800 {
		t.Errorf("Samples = %d, want exactly the budget", res.Samples)
	}
}

func TestIterateValidation(t *testing.T) {
	tb := newTestbed(t, 2)
	cfg := IterConfig{Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Seed: 1}
	if _, err := IterateContext(context.Background(), cfg, tb); err == nil {
		t.Error("zero acceptable loss accepted")
	}
	cfg.AcceptLossPct = 5
	cfg.Tasks = 0
	if _, err := IterateContext(context.Background(), cfg, tb); err == nil {
		t.Error("bad task count accepted")
	}
}

func TestIterateFasterForLooserTargets(t *testing.T) {
	// Figure 14's shape: the looser the acceptable loss, the fewer samples
	// the algorithm needs.
	tb := newTestbed(t, 8)
	samplesFor := func(loss float64) int {
		cfg := IterConfig{
			Topo: tb.Machine.Topo, Tasks: tb.TaskCount(),
			AcceptLossPct: loss, Ninit: 500, Ndelta: 100, MaxSamples: 6000, Seed: 42,
		}
		res, err := IterateContext(context.Background(), cfg, tb)
		if err != nil && !errors.Is(err, ErrBudgetExhausted) {
			t.Fatal(err)
		}
		return res.Samples
	}
	n10, n5 := samplesFor(10), samplesFor(5)
	if n10 > n5 {
		t.Errorf("loss 10%% used %d samples, loss 5%% used %d — should not decrease", n10, n5)
	}
}

func ExampleCaptureProbability() {
	p, _ := CaptureProbability(1000, 1)
	fmt.Printf("P(top-1%% in 1000 samples) = %.4f\n", p)
	// Output: P(top-1% in 1000 samples) = 1.0000
}
