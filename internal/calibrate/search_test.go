package calibrate

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/evt"
	"optassign/internal/search"
	"optassign/internal/t2"
)

// TestSearchSeedAgreement is the cross-package seed-derivation regression:
// calibrate's per-replication seeds and search.RepSeed must be the same
// function. If either side ever grows its own derivation again, derived
// streams silently diverge between the calibration harness and the engine.
func TestSearchSeedAgreement(t *testing.T) {
	for _, base := range []int64{0, 1, -1, 7, 1 << 40} {
		for _, rep := range []int{0, 1, 2, 100, 99999} {
			if got, want := repSeed(base, rep), search.RepSeed(base, rep); got != want {
				t.Fatalf("repSeed(%d,%d)=%d, search.RepSeed=%d", base, rep, got, want)
			}
		}
	}
	// And the derivation actually de-correlates adjacent streams.
	if repSeed(7, 0) == repSeed(7, 1) || repSeed(7, 0) == repSeed(8, 0) {
		t.Fatal("adjacent derived seeds collide")
	}
}

// TestStrategyCoverageGate is the CI gate for the tail-safety contract:
// every tail-safe strategy's non-explore draws must leave the EVT
// machinery's coverage inside the [0.93, 0.97] band on a continuous
// known-endpoint landscape. A deterministic pinned slice of the full
// study (cmd/calibrate -scenario search); drift in either direction means
// a strategy's draw distribution changed and must be re-judged.
func TestStrategyCoverageGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~3M simulated measurements")
	}
	cfg, _, covPop, err := BuiltinSearchStudy()
	if err != nil {
		t.Fatal(err)
	}
	// Pinned outcome of the exact BuiltinSearchStudy coverage
	// configuration (replications=300, tail n=2000, seed=7, cap=0.10).
	pinned := map[string]int{"uniform": 286, "stratified": 290, "greedy": 291}
	for _, spec := range BuiltinStrategies() {
		strat, err := spec.New()
		if err != nil {
			t.Fatal(err)
		}
		if !strat.TailSafe() {
			continue
		}
		cc := cfg.Coverage
		cc.StrategyName = spec.Name
		if spec.Name != "uniform" {
			cc.NewStrategy = spec.New
		}
		res, err := RunSearchCoverage(cc, covPop)
		if err != nil {
			t.Fatal(err)
		}
		if res.Analyzed != res.Replications {
			t.Errorf("%s: %d of %d replications rejected", spec.Name, res.Replications-res.Analyzed, res.Replications)
		}
		if res.Coverage < 0.93 || res.Coverage > 0.97 {
			t.Errorf("%s: coverage %.4f outside the [0.93, 0.97] band", spec.Name, res.Coverage)
		}
		if want := pinned[spec.Name]; res.Covered != want {
			t.Errorf("%s: pinned coverage drifted: covered %d/%d, want %d", spec.Name, res.Covered, res.Analyzed, want)
		}
	}
}

// TestGreedyNoTailBias proves the Explore exclusion is load-bearing: on a
// smooth landscape where hill climbing genuinely works, the greedy
// strategy's *clean* fit (exploration excluded) behaves like uniform's,
// while deliberately contaminating the fit with the exploration draws
// destroys it. The additive landscape is misspecified for the GPD on
// purpose — comparing greedy to uniform on the same landscape cancels the
// misspecification, isolating the strategy's contribution.
func TestGreedyNoTailBias(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~1M simulated measurements")
	}
	pop, err := NewAdditivePopulation(t2.UltraSPARCT2(), 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	base := SearchCoverageConfig{Replications: 200, TailN: 2000, Seed: 7}
	base.POT.Threshold.MaxExceedFraction = 0.10
	greedy := func() (search.Strategy, error) { return search.New("greedy", nil, nil) }

	run := func(name string, newS func() (search.Strategy, error), contaminate bool) SearchCoverageResult {
		cfg := base
		cfg.StrategyName = name
		cfg.NewStrategy = newS
		cfg.IncludeExplore = contaminate
		r, err := RunSearchCoverage(cfg, pop)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	uniform := run("uniform", nil, false)
	clean := run("greedy", greedy, false)
	dirty := run("greedy-contaminated", greedy, true)

	// Clean greedy must track uniform on the identical landscape: its
	// non-explore draws are the same i.i.d. sample, so any gap beyond
	// noise is exploration leaking into the fit.
	if d := clean.Coverage - uniform.Coverage; d < -0.03 || d > 0.03 {
		t.Errorf("clean greedy coverage %.4f drifted %.4f from uniform %.4f (|Δ| budget 0.03)",
			clean.Coverage, d, uniform.Coverage)
	}
	// The contamination probe must visibly fail — either the estimator's
	// degeneracy guards reject the clustered exploration sample outright,
	// or whatever fits still get through cover far below nominal. If this
	// ever passes cleanly, the Explore flag has stopped reaching the fit.
	contaminationCaught := dirty.Analyzed < dirty.Replications/2 ||
		(dirty.Analyzed > 0 && dirty.Coverage < 0.5)
	if !contaminationCaught {
		t.Errorf("contaminated fit looked healthy: analyzed %d/%d, coverage %.4f — Explore draws are not being excluded or detected",
			dirty.Analyzed, dirty.Replications, dirty.Coverage)
	}
	// Pin the current deterministic outcome: every contaminated
	// replication is rejected by the degenerate-tail guard (exploration
	// draws cluster on near-identical values around the incumbent).
	if dirty.Analyzed != 0 || dirty.Rejections["degenerate_tail"] != 200 {
		t.Errorf("pinned contamination outcome drifted: analyzed=%d rejections=%v, want 0 analyzed, 200 degenerate_tail",
			dirty.Analyzed, dirty.Rejections)
	}
}

// TestSearchStudyEfficiencyGate is the headline acceptance gate in test
// form: at least one tail-safe non-uniform strategy must reach the same
// realized-loss promise as uniform with >= 25% fewer measurements and
// zero violations, on the enumerated known-optimum population. The
// full-output twin runs in CI as `calibrate -scenario search
// -search-speedup 0.25`.
func TestSearchStudyEfficiencyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the enumerated testbed population and runs 600 campaigns")
	}
	cfg, pop, _, err := BuiltinSearchStudy()
	if err != nil {
		t.Fatal(err)
	}
	cfg.SkipCoverage = true
	res, err := RunSearchStudy(cfg, pop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestStrategy == "" || res.BestSavingsPct < 25 {
		t.Fatalf("no strategy met the efficiency bar: best=%q savings=%.1f%%, want >= 25%%",
			res.BestStrategy, res.BestSavingsPct)
	}
	for _, ir := range res.Efficiency {
		if ir.Strategy != res.BestStrategy {
			continue
		}
		if ir.Violations != 0 {
			t.Errorf("winning strategy %s broke the loss promise %d times", ir.Strategy, ir.Violations)
		}
		if ir.Satisfied != ir.Replications {
			t.Errorf("winning strategy %s satisfied only %d/%d campaigns", ir.Strategy, ir.Satisfied, ir.Replications)
		}
	}
	// Pin the winner so silent regressions in either direction surface.
	if res.BestStrategy != "stratified" {
		t.Errorf("pinned winner drifted: %s (%.1f%% savings), want stratified", res.BestStrategy, res.BestSavingsPct)
	}
}

// TestRunIterativeHashGPDWorkerInvariance: the stopping-rule calibration
// runs on a continuous AssignPop, not only on the enumerated discrete
// population, and its result does not depend on the worker count.
func TestRunIterativeHashGPDWorkerInvariance(t *testing.T) {
	pop := HashGPDPopulation{TopoT: t2.UltraSPARCT2(), TasksN: 8, Loc: 100, Tail: evt.GPD{Xi: -0.3, Sigma: 30}}
	cfg := IterConfig{Replications: 8, AcceptLossPct: 5, Ninit: 400, Ndelta: 100, MaxSamples: 800, Seed: 11}
	var results []IterResult
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res, err := RunIterative(cfg, pop)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("workers 1: %+v\nworkers 4: %+v", results[0], results[1])
	}
	if r := results[0]; r.Failed > 0 || r.Satisfied+r.Exhausted != cfg.Replications || r.TrueOptimum != pop.TrueOptimum() {
		t.Fatalf("result %+v", r)
	}
}

// TestFanOutReportsLowestFailingReplication: every replication runs, and
// the error returned is the lowest failing replication's, whichever
// finished first.
func TestFanOutReportsLowestFailingReplication(t *testing.T) {
	var ran atomic.Int32
	err := fanOut(10, 4, func(r int) error {
		ran.Add(1)
		switch r {
		case 3:
			time.Sleep(20 * time.Millisecond)
			return fmt.Errorf("replication %d", r)
		case 7:
			return fmt.Errorf("replication %d", r)
		}
		return nil
	})
	if err == nil || err.Error() != "replication 3" {
		t.Fatalf("err = %v, want replication 3's", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("%d replications ran, want 10", ran.Load())
	}
}
