package calibrate

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/evt"
)

func TestGPDPopulationExactness(t *testing.T) {
	pop := GPDPopulation{Loc: 100, Tail: evt.GPD{Xi: -0.3, Sigma: 30}}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 100 + 30/0.3
	if got := pop.TrueOptimum(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TrueOptimum = %v, want %v", got, want)
	}
	rng := rand.New(rand.NewSource(3))
	xs := pop.Sample(rng, 5000)
	for _, x := range xs {
		if x < 100 || x > want {
			t.Fatalf("sample %v outside [100, %v]", x, want)
		}
	}
	if err := (GPDPopulation{Tail: evt.GPD{Xi: 0.1, Sigma: 1}}).Validate(); err == nil {
		t.Error("unbounded tail must fail validation")
	}
}

func TestMixturePopulationBounds(t *testing.T) {
	pop := MixturePopulation{W: 1000, Components: []MixtureComponent{
		{Weight: 0.5, K: 2}, {Weight: 0.5, K: 8},
	}}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	if pop.TrueOptimum() != 1000 {
		t.Errorf("TrueOptimum = %v", pop.TrueOptimum())
	}
	rng := rand.New(rand.NewSource(5))
	xs := pop.Sample(rng, 5000)
	best := 0.0
	for _, x := range xs {
		if x < 0 || x >= 1000 {
			t.Fatalf("sample %v outside [0, 1000)", x)
		}
		if x > best {
			best = x
		}
	}
	// The endpoint is approachable: large samples get close to W.
	if best < 900 {
		t.Errorf("best of 5000 draws = %v, expected to approach 1000", best)
	}
	if err := (MixturePopulation{W: 1000}).Validate(); err == nil {
		t.Error("empty mixture must fail validation")
	}
}

func TestRepSeedDecorrelated(t *testing.T) {
	seen := make(map[int64]bool)
	for r := 0; r < 1000; r++ {
		s := repSeed(1, r)
		if seen[s] {
			t.Fatalf("seed collision at replication %d", r)
		}
		seen[s] = true
	}
	if repSeed(1, 0) == repSeed(2, 0) {
		t.Error("different base seeds must derive different streams")
	}
	// Stability: derived seeds are part of the reproducibility contract —
	// a silent change would shift every pinned calibration number.
	if got := repSeed(1, 0); got != repSeed(1, 0) {
		t.Errorf("repSeed not deterministic: %d", got)
	}
}

func TestRunWorkerInvariance(t *testing.T) {
	pop := GPDPopulation{Loc: 100, Tail: evt.GPD{Xi: -0.3, Sigma: 30}}
	base := Config{Replications: 60, N: 600, Seed: 11}
	base.POT.Threshold.MaxExceedFraction = 0.10
	serial, parallel := base, base
	serial.Workers = 1
	parallel.Workers = 8
	a, err := Run(serial, pop)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(parallel, pop)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("results differ across worker counts:\n1 worker:  %+v\n8 workers: %+v", a, b)
	}
}

// TestCoverageGateGPD is the CI coverage-regression gate: a fast
// deterministic slice of the exact-GPD calibration with its outcome pinned
// to the integer. The full-scale acceptance run (2000 replications) lives
// in cmd/calibrate and EXPERIMENTS.md; this slice re-runs on every commit
// and fails if estimator or threshold changes move coverage at all.
func TestCoverageGateGPD(t *testing.T) {
	sc, err := BuiltinScenario("gpd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Replications: 150, N: sc.N, Seed: 7, POT: sc.POT}, sc.Pop)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned outcome of this exact configuration (replications=150, n=2000,
	// seed=7, cap=0.10). Any drift means the pipeline's statistical
	// behaviour changed and the full calibration must be re-run and
	// re-judged — deliberately including drift *upward*.
	if res.Analyzed != 150 || res.Covered != 143 {
		t.Errorf("pinned coverage drifted: covered %d/%d, want 143/150", res.Covered, res.Analyzed)
	}
	if res.UnboundedHi != 0 {
		t.Errorf("pinned gate had no unbounded intervals, got %d", res.UnboundedHi)
	}
	// Nominal-coverage floor, the regression gate proper: 143/150 = 0.9533
	// against nominal 0.95. The floor leaves 2σ of slack below the pin so
	// an intentional re-pin after a justified change still has room.
	if res.Coverage < 0.93 {
		t.Errorf("coverage %.4f fell below the 0.93 floor", res.Coverage)
	}
}

// TestStoppingRuleGate pins the iterative algorithm's promise on the
// discrete population: stopped-satisfied campaigns must realize a loss
// within the promised bound.
func TestStoppingRuleGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the enumerated testbed population")
	}
	sc, err := BuiltinScenario("discrete")
	if err != nil {
		t.Fatal(err)
	}
	pop := sc.Pop.(*DiscretePopulation)
	res, err := RunIterative(IterConfig{Replications: 25, Seed: 7}, pop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied != 24 || res.Exhausted != 1 || res.Failed != 0 {
		t.Errorf("pinned outcomes drifted: satisfied=%d exhausted=%d failed=%d, want 24/1/0",
			res.Satisfied, res.Exhausted, res.Failed)
	}
	if res.Violations != 0 {
		t.Errorf("%d satisfied campaigns broke the promised %v%% loss bound", res.Violations, res.AcceptLossPct)
	}
	if res.MaxRealizedLossPct > res.AcceptLossPct {
		t.Errorf("worst realized loss %.3f%% exceeds promise %.1f%%", res.MaxRealizedLossPct, res.AcceptLossPct)
	}
}

func TestDiscretePopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the enumerated testbed population")
	}
	sc, err := BuiltinScenario("discrete")
	if err != nil {
		t.Fatal(err)
	}
	pop := sc.Pop.(*DiscretePopulation)
	if len(pop.perf) < 100 {
		t.Fatalf("only %d classes enumerated", len(pop.perf))
	}
	inPop := make(map[float64]bool, len(pop.perf))
	best := math.Inf(-1)
	for _, v := range pop.perf {
		inPop[v] = true
		best = math.Max(best, v)
	}
	if best != pop.TrueOptimum() {
		t.Errorf("TrueOptimum %v != max class value %v", pop.TrueOptimum(), best)
	}
	rng := rand.New(rand.NewSource(9))
	for _, x := range pop.Sample(rng, 500) {
		if !inPop[x] {
			t.Fatalf("draw %v is not a class value", x)
		}
	}
	// The runner serves exactly the class map.
	runner := pop.Runner()
	a, err := assign.Random(rng, pop.Topo(), pop.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	v, err := runner.MeasureContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !inPop[v] {
		t.Errorf("runner served %v, not a class value", v)
	}
}

// degeneratePop draws all-equal samples: every replication must be
// rejected cleanly, never crash or emit NaN.
type degeneratePop struct{}

func (degeneratePop) Name() string         { return "degenerate" }
func (degeneratePop) TrueOptimum() float64 { return 1 }
func (degeneratePop) Sample(_ *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1
	}
	return xs
}

func TestRunRejectionTally(t *testing.T) {
	res, err := Run(Config{Replications: 10, N: 500, Seed: 1}, degeneratePop{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analyzed != 0 {
		t.Errorf("analyzed %d degenerate replications", res.Analyzed)
	}
	total := 0
	for _, n := range res.Rejections {
		total += n
	}
	if total != 10 {
		t.Errorf("rejection tally %v does not account for all 10 replications", res.Rejections)
	}
}

func TestSensitivity(t *testing.T) {
	pop := GPDPopulation{Loc: 100, Tail: evt.GPD{Xi: -0.3, Sigma: 30}}
	results, err := Sensitivity(Config{Replications: 30, N: 600, Seed: 3}, pop, []float64{0.05, 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, frac := range []string{"0.05", "0.1"} {
		if results[i].Replications != 30 {
			t.Errorf("result %d replications = %d", i, results[i].Replications)
		}
		if want := "@cap=" + frac; len(results[i].Scenario) == 0 || !containsStr(results[i].Scenario, want) {
			t.Errorf("result %d scenario %q missing %q", i, results[i].Scenario, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
