package proc_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
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

// corpusBenchmarks is every name apps.ByName accepts, in the order of
// netdps's measure-golden corpus.
var corpusBenchmarks = []string{
	"Aho-Corasick", "IPFwd-L1", "IPFwd-Mem", "Packet-analyzer", "Stateful",
	"IPFwd-intadd", "IPFwd-intmul",
}

// forCorpus calls fn on every workload of netdps's measure-golden corpus:
// each benchmark × {1, 4, 8} instances × 100 assignments drawn by
// assign.Random from the corpus's seeds.
func forCorpus(t *testing.T, fn func(label string, tb *netdps.Testbed, placement []int)) {
	t.Helper()
	for bi, name := range corpusBenchmarks {
		app, err := apps.ByName(name, netgen.DefaultProfile())
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range []int{1, 4, 8} {
			tb, err := netdps.NewTestbed(app, inst)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(1000*bi + inst)))
			for k := 0; k < 100; k++ {
				a, err := assign.Random(rng, tb.Machine.Topo, tb.TaskCount())
				if err != nil {
					t.Fatal(err)
				}
				fn(fmt.Sprintf("%s/i=%d/k=%d", name, inst, k), tb, a.Ctx)
			}
		}
	}
}

// relClose reports whether got is within tol of want, relative to want.
func relClose(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

// TestSolveMatchesDampedReference: on every workload of the
// measure-golden corpus, the accelerated solve reaches the damped fixed
// point's TotalPPS and per-task service times within 1e-9 relative.
func TestSolveMatchesDampedReference(t *testing.T) {
	forCorpus(t, func(label string, tb *netdps.Testbed, placement []int) {
		tasks, links := tb.Tasks()
		got, err := tb.Machine.Solve(tasks, links, placement)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tb.Machine.SolveDamped(tasks, links, placement)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(got.TotalPPS, want.TotalPPS, 1e-9) {
			t.Errorf("%s: TotalPPS %v, damped reference %v", label, got.TotalPPS, want.TotalPPS)
		}
		for i, s := range got.ServiceCycles {
			if !relClose(s, want.ServiceCycles[i], 1e-9) {
				t.Errorf("%s: task %d service %v cycles, damped reference %v", label, i, s, want.ServiceCycles[i])
			}
		}
	})
}

// TestSolveIterations pins the acceleration as counts over the corpus:
// IPFwd-L1 × 8 averages at most 9 iterations a solve (the damped step
// took 17), and no solve takes more than 21.
func TestSolveIterations(t *testing.T) {
	sumL1x8, solvesL1x8, most, mostAt := 0, 0, 0, ""
	forCorpus(t, func(label string, tb *netdps.Testbed, placement []int) {
		tasks, links := tb.Tasks()
		res, err := tb.Machine.Solve(tasks, links, placement)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > most {
			most, mostAt = res.Iterations, label
		}
		if tb.App.Name() == "IPFwd-L1" && tb.Instances == 8 {
			sumL1x8 += res.Iterations
			solvesL1x8++
		}
	})
	if sumL1x8 > 9*solvesL1x8 {
		t.Errorf("IPFwd-L1 × 8: %d iterations over %d solves, want at most %d", sumL1x8, solvesL1x8, 9*solvesL1x8)
	}
	if most > 21 {
		t.Errorf("%s took %d iterations, want at most 21", mostAt, most)
	}
	t.Logf("IPFwd-L1 × 8: %d iterations over %d solves; most in one solve: %d (%s)", sumL1x8, solvesL1x8, most, mostAt)
}

// TestSolveFallsBackToDampedStep drives the extrapolation out of the
// feasible region: one pipeline's two stages each over-subscribe their
// own resource a thousandfold, a TLB and the memory controllers, and the
// two residuals pull γ far enough that an extrapolated service time would
// go non-positive. That iteration takes the damped step, and the solve
// still reaches the damped fixed point.
func TestSolveFallsBackToDampedStep(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	m.Caps[proc.TLB], m.Caps[proc.MEM] = 0.003, 0.001
	var tlb, mem proc.Demand
	tlb.Serial, tlb.Res[proc.TLB] = 1, 1217
	mem.Serial, mem.Res[proc.MEM] = 2, 3200
	tasks := []proc.Task{{Demand: tlb}, {Demand: mem}}
	placement := []int{10, 11}

	iterations, fallbacks, err := m.SolveSteps(tasks, nil, placement)
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks == 0 {
		t.Fatalf("no iteration of %d fell back to the damped step", iterations)
	}
	got, err := m.Solve(tasks, nil, placement)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SolveDamped(tasks, nil, placement)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations >= 200 || want.Iterations >= 200 {
		t.Fatalf("no convergence: %d iterations, damped reference %d", got.Iterations, want.Iterations)
	}
	if !relClose(got.TotalPPS, want.TotalPPS, 1e-9) {
		t.Errorf("TotalPPS %v, damped reference %v", got.TotalPPS, want.TotalPPS)
	}
	for i, s := range got.ServiceCycles {
		if !relClose(s, want.ServiceCycles[i], 1e-9) {
			t.Errorf("task %d service %v cycles, damped reference %v", i, s, want.ServiceCycles[i])
		}
	}
	t.Logf("%d iterations, %d fell back; damped reference %d iterations", iterations, fallbacks, want.Iterations)
}

// TestSolveConvergesOnStiffMachines solves small random workloads on
// machines far from the T2: capacities from 0.001 to 10 work units a
// cycle, demands up to 1e5 cycles. Contention there reaches slowdowns in
// the thousands. Every solve must converge and agree with the damped
// reference within 1e-9, as the unbounded Anderson(1) step did not: it
// stalled at the iteration cap on about one such workload in ten.
func TestSolveConvergesOnStiffMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	m := proc.UltraSPARCT2Machine()
	for trial := 0; trial < 1000; trial++ {
		for r := range m.Caps {
			m.Caps[r] = logUniform(1e-3, 10)
		}
		tasks := make([]proc.Task, 2+rng.Intn(6))
		for i := range tasks {
			tasks[i].Demand.Serial = logUniform(1e-3, 1e4)
			for r := range tasks[i].Demand.Res {
				if rng.Intn(3) == 0 {
					tasks[i].Demand.Res[r] = logUniform(1e-2, 1e5)
				}
			}
			tasks[i].Group = rng.Intn(1 + len(tasks)/3)
		}
		a, err := assign.RandomPermutation(rng, m.Topo, len(tasks))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Solve(tasks, nil, a.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.SolveDamped(tasks, nil, a.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations >= 200 || !relClose(got.TotalPPS, want.TotalPPS, 1e-9) {
			t.Errorf("trial %d: %d iterations to %v PPS; damped reference %d iterations to %v",
				trial, got.Iterations, got.TotalPPS, want.Iterations, want.TotalPPS)
		}
	}
}
