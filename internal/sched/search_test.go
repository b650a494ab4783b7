package sched

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/t2"
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

func TestBestOfNImprovesWithN(t *testing.T) {
	tb := testbed(t)
	topo := tb.Machine.Topo
	a1, p1, err := BestOfN{N: 5, Seed: 1}.Assign(topo, tb.TaskCount(), tb)
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Validate(); err != nil {
		t.Fatal(err)
	}
	_, p2, err := BestOfN{N: 200, Seed: 1}.Assign(topo, tb.TaskCount(), tb)
	if err != nil {
		t.Fatal(err)
	}
	if !(p2 >= p1) {
		t.Errorf("best-of-200 (%v) below best-of-5 (%v)", p2, p1)
	}
	if _, _, err := (BestOfN{N: 0}).Assign(topo, tb.TaskCount(), tb); err == nil {
		t.Error("N=0 accepted")
	}
	if (BestOfN{N: 7}).Name() == "" {
		t.Error("name")
	}
}

func TestLocalSearchImprovesOverStart(t *testing.T) {
	tb := testbed(t)
	topo := tb.Machine.Topo
	start, err := LinuxLike{}.Assign(topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	startPerf, err := tb.Measure(start)
	if err != nil {
		t.Fatal(err)
	}
	a, perf, err := LocalSearch{Budget: 400, Seed: 3}.Assign(topo, tb.TaskCount(), tb)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("search produced invalid assignment: %v", err)
	}
	if perf < startPerf {
		t.Errorf("search (%v) regressed below its start (%v)", perf, startPerf)
	}
	// The returned performance matches a fresh measurement of the returned
	// assignment (internal bookkeeping is consistent).
	re, err := tb.Measure(a)
	if err != nil {
		t.Fatal(err)
	}
	if re != perf {
		t.Errorf("reported %v, re-measured %v", perf, re)
	}
}

func TestLocalSearchBudgetAndErrors(t *testing.T) {
	tb := testbed(t)
	topo := tb.Machine.Topo
	calls := 0
	counting := core.ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) {
		calls++
		return tb.Measure(a)
	})
	if _, _, err := (LocalSearch{Budget: 50, Seed: 1}).Assign(topo, tb.TaskCount(), counting); err != nil {
		t.Fatal(err)
	}
	if calls > 51 {
		t.Errorf("search used %d measurements, budget allows 51", calls)
	}
	if _, _, err := (LocalSearch{Budget: -1}).Assign(topo, tb.TaskCount(), tb); err == nil {
		t.Error("negative budget accepted")
	}
	boom := core.ContextRunnerFunc(func(context.Context, assign.Assignment) (float64, error) { return 0, errors.New("boom") })
	if _, _, err := (LocalSearch{Budget: 5}).Assign(topo, tb.TaskCount(), boom); err == nil {
		t.Error("runner error not propagated")
	}
	if (LocalSearch{Budget: 10}).Name() == "" {
		t.Error("name")
	}
}

func TestLocalSearchCustomStart(t *testing.T) {
	tb := testbed(t)
	topo := tb.Machine.Topo
	rng := rand.New(rand.NewSource(9))
	start, err := assign.RandomPermutation(rng, topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := (LocalSearch{Budget: 20, Seed: 2, Start: &start}).Assign(topo, tb.TaskCount(), tb)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// The caller's start assignment must not have been mutated in place:
	// it still validates.
	if err := start.Validate(); err != nil {
		t.Fatalf("start mutated: %v", err)
	}
}

func TestGreedyDemand(t *testing.T) {
	tb := testbed(t)
	tasks, links := tb.Tasks()
	g := GreedyDemand{Machine: tb.Machine, Tasks: tasks, Links: links}
	if g.Name() == "" {
		t.Error("name")
	}
	a, err := g.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	perf, err := tb.Measure(a)
	if err != nil {
		t.Fatal(err)
	}
	// The demand-aware heuristic must beat the demand-blind Linux-like
	// balancer on this workload.
	linuxA, err := LinuxLike{}.Assign(tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	linuxPerf, err := tb.Measure(linuxA)
	if err != nil {
		t.Fatal(err)
	}
	if perf < linuxPerf {
		t.Errorf("greedy (%v) below Linux-like (%v)", perf, linuxPerf)
	}
	// No two of the 8 heavy P threads should share a pipeline.
	heavy := make(map[int]int) // P threads per pipeline
	for task, ctx := range a.Ctx {
		if task%3 == 1 {
			heavy[a.Topo.PipeOf(ctx)]++
		}
	}
	for pipe, n := range heavy {
		if n > 1 {
			t.Errorf("pipe %d hosts %d P threads", pipe, n)
		}
	}
}

func TestGreedyDemandErrors(t *testing.T) {
	tb := testbed(t)
	tasks, links := tb.Tasks()
	if _, err := (GreedyDemand{}).Assign(); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := (GreedyDemand{Machine: tb.Machine}).Assign(); err == nil {
		t.Error("no tasks accepted")
	}
	badLinks := append(links[:0:0], links...)
	badLinks[0].A = 999
	if _, err := (GreedyDemand{Machine: tb.Machine, Tasks: tasks, Links: badLinks}).Assign(); err == nil {
		t.Error("dangling link accepted")
	}
}

var _ = t2.UltraSPARCT2 // keep the import for future topology-specific cases
