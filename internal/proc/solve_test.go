package proc_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/proc"
)

// pipelines returns g IPFwd-L1 pipelines: 3g tasks and 2g links.
func pipelines(g int) ([]proc.Task, []proc.Link) {
	demands := apps.NewIPFwd(apps.IPFwdL1).MeanDemands()
	var tasks []proc.Task
	var links []proc.Link
	for i := 0; i < g; i++ {
		for _, d := range demands {
			tasks = append(tasks, proc.Task{Demand: d, Group: i})
		}
		links = append(links,
			proc.Link{A: 3 * i, B: 3*i + 1, Volume: apps.CommVolume},
			proc.Link{A: 3*i + 1, B: 3*i + 2, Volume: apps.CommVolume})
	}
	return tasks, links
}

// TestSolveReusesNoState solves workloads of several sizes in one order
// and again in another: the pooled workspace carries nothing from one
// solve to the next, SolvePPS is Solve's TotalPPS bit for bit, and each
// Result owns its slices.
func TestSolveReusesNoState(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	rng := rand.New(rand.NewSource(8))
	type job struct {
		tasks     []proc.Task
		links     []proc.Link
		placement []int
	}
	var jobs []job
	for _, g := range []int{8, 1, 21, 3, 8, 12} {
		tasks, links := pipelines(g)
		a, err := assign.RandomPermutation(rng, m.Topo, len(tasks))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{tasks, links, a.Ctx})
	}
	first := make([]proc.Result, len(jobs))
	for i, j := range jobs {
		res, err := m.Solve(j.tasks, j.links, j.placement)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = res
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		j := jobs[i]
		pps, err := m.SolvePPS(j.tasks, j.links, j.placement)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pps) != math.Float64bits(first[i].TotalPPS) {
			t.Fatalf("job %d: SolvePPS %v, Solve %v", i, pps, first[i].TotalPPS)
		}
		res, err := m.Solve(j.tasks, j.links, j.placement)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.ServiceCycles, first[i].ServiceCycles) ||
			!slices.Equal(res.GroupRate, first[i].GroupRate) ||
			!slices.Equal(res.Slowdown, first[i].Slowdown) ||
			res.Iterations != first[i].Iterations || res.TotalRate != first[i].TotalRate {
			t.Fatalf("job %d: re-solve differs from the first solve", i)
		}
		res.ServiceCycles[0], res.GroupRate[0], res.Slowdown[0] = -1, -1, -1
	}
	for i, res := range first {
		if res.ServiceCycles[0] < 0 || res.GroupRate[0] < 0 || res.Slowdown[0] < 0 {
			t.Fatalf("job %d: a later Result shares this one's slices", i)
		}
	}
}

// TestSolvePPSErrors: the allocation-free path validates exactly as Solve.
func TestSolvePPSErrors(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	tasks, links := pipelines(2)
	for _, placement := range [][]int{
		{0, 1, 2, 3, 4},        // too few placements
		{0, 1, 2, 3, 4, 64},    // out of range
		{0, 1, 2, 3, 4, 4},     // a context twice
		{-1, 1, 2, 3, 4, 5},    // negative
		{0, 8, 16, 24, 32, 40}, // valid
	} {
		_, serr := m.Solve(tasks, links, placement)
		_, perr := m.SolvePPS(tasks, links, placement)
		if (serr == nil) != (perr == nil) || (serr != nil && serr.Error() != perr.Error()) {
			t.Fatalf("placement %v: Solve error %v, SolvePPS error %v", placement, serr, perr)
		}
	}
}
