package proc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"optassign/internal/assign"
	"optassign/internal/t2"
)

// scale returns d multiplied by f.
func scale(d Demand, f float64) Demand {
	d.Serial *= f
	for i := range d.Res {
		d.Res[i] *= f
	}
	return d
}

func computeDemand() Demand {
	var d Demand
	d.Serial = 100
	d.Res[IFU] = 100
	d.Res[IEU] = 700
	d.Res[L1D] = 100
	return d
}

func TestResourceLevels(t *testing.T) {
	if IFU.Level() != t2.IntraPipe || IEU.Level() != t2.IntraPipe {
		t.Error("pipe-level resources wrong")
	}
	if L1D.Level() != t2.IntraCore || LSU.Level() != t2.IntraCore {
		t.Error("core-level resources wrong")
	}
	if L2.Level() != t2.InterCore || MEM.Level() != t2.InterCore {
		t.Error("chip-level resources wrong")
	}
	for r := 0; r < NumResources; r++ {
		if Resource(r).String() == "Resource(?)" {
			t.Errorf("resource %d has no name", r)
		}
	}
	if Resource(99).String() != "Resource(?)" {
		t.Error("out-of-range resource name")
	}
}

func TestDemandArithmetic(t *testing.T) {
	d := computeDemand()
	if d.Base() != 1000 {
		t.Errorf("Base = %v, want 1000", d.Base())
	}
	sum := d.Add(d)
	if sum.Base() != 2000 || sum.Res[IEU] != 1400 {
		t.Errorf("Add wrong: %+v", sum)
	}
}

func TestMachineValidate(t *testing.T) {
	m := UltraSPARCT2Machine()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *m
	bad.Caps[IEU] = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	bad2 := *m
	bad2.ClockHz = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	bad3 := *m
	bad3.Topo = t2.Topology{}
	if err := bad3.Validate(); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestSoloTaskRunsAtBaseRate(t *testing.T) {
	m := UltraSPARCT2Machine()
	tasks := []Task{{Demand: computeDemand(), Group: 0}}
	res, err := m.Solve(tasks, nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ServiceCycles[0]-1000) > 1e-6 {
		t.Errorf("solo service = %v, want 1000", res.ServiceCycles[0])
	}
	if math.Abs(res.Slowdown[0]-1) > 1e-9 {
		t.Errorf("solo slowdown = %v, want 1", res.Slowdown[0])
	}
	if math.Abs(res.TotalPPS-m.ClockHz/1000) > 1 {
		t.Errorf("PPS = %v, want %v", res.TotalPPS, m.ClockHz/1000)
	}
}

func TestSamePipeContention(t *testing.T) {
	m := UltraSPARCT2Machine()
	d := computeDemand() // IEU-heavy: two of these saturate one pipe's IEU
	tasks := []Task{{Demand: d, Group: 0}, {Demand: d, Group: 1}}

	samePipe, err := m.Solve(tasks, nil, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	diffPipe, err := m.Solve(tasks, nil, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	diffCore, err := m.Solve(tasks, nil, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !(samePipe.TotalPPS < diffPipe.TotalPPS) {
		t.Errorf("same-pipe %v should be slower than different-pipe %v", samePipe.TotalPPS, diffPipe.TotalPPS)
	}
	if samePipe.Slowdown[0] <= 1 {
		t.Errorf("expected same-pipe slowdown > 1, got %v", samePipe.Slowdown[0])
	}
	// The IEU is pipe-scoped: separate pipes of one core behave like
	// separate cores for this demand (L1D utilization stays below cap).
	if math.Abs(diffPipe.TotalPPS-diffCore.TotalPPS)/diffCore.TotalPPS > 0.01 {
		t.Errorf("diff-pipe %v vs diff-core %v should be close", diffPipe.TotalPPS, diffCore.TotalPPS)
	}
}

func TestCommunicationPlacement(t *testing.T) {
	m := UltraSPARCT2Machine()
	var light Demand
	light.Serial = 200
	light.Res[LSU] = 100
	light.Res[L1D] = 100
	tasks := []Task{{Demand: light, Group: 0}, {Demand: light, Group: 0}}
	links := []Link{{A: 0, B: 1, Volume: 1}}

	sameCore, err := m.Solve(tasks, links, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	crossCore, err := m.Solve(tasks, links, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !(sameCore.TotalPPS > crossCore.TotalPPS) {
		t.Errorf("co-located pipeline %v should beat cross-core %v", sameCore.TotalPPS, crossCore.TotalPPS)
	}
}

func TestGroupRateIsBottleneckStage(t *testing.T) {
	m := UltraSPARCT2Machine()
	fast := Demand{Serial: 100}
	slow := Demand{Serial: 1000}
	tasks := []Task{{Demand: fast, Group: 0}, {Demand: slow, Group: 0}, {Demand: fast, Group: 0}}
	res, err := m.Solve(tasks, nil, []int{0, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GroupRate[0]-1.0/1000) > 1e-9 {
		t.Errorf("group rate = %v, want bottleneck 1/1000", res.GroupRate[0])
	}
}

func TestSolveSymmetryInvariance(t *testing.T) {
	m := UltraSPARCT2Machine()
	topo := m.Topo
	d := computeDemand()
	mk := func() []Task {
		return []Task{
			{Demand: d, Group: 0}, {Demand: scale(d, 0.4), Group: 0},
			{Demand: scale(d, 0.7), Group: 1}, {Demand: d, Group: 1},
		}
	}
	links := []Link{{A: 0, B: 1, Volume: 1}, {A: 2, B: 3, Volume: 1}}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := assign.RandomPermutation(rng, topo, 4)
		if err != nil {
			return false
		}
		// Apply a random hardware symmetry to the placement.
		corePerm := rng.Perm(topo.Cores)
		pipePerms := make([][]int, topo.Cores)
		for i := range pipePerms {
			pipePerms[i] = rng.Perm(topo.PipesPerCore)
		}
		slotPerms := make([][]int, topo.Pipes())
		for i := range slotPerms {
			slotPerms[i] = rng.Perm(topo.ContextsPerPipe)
		}
		b := make([]int, len(a.Ctx))
		for i, ctx := range a.Ctx {
			core := topo.CoreOf(ctx)
			pipe := topo.PipeOf(ctx) % topo.PipesPerCore
			slot := ctx % topo.ContextsPerPipe
			b[i] = topo.Context(corePerm[core], pipePerms[core][pipe], slotPerms[topo.PipeOf(ctx)][slot])
		}
		r1, err1 := m.Solve(mk(), links, a.Ctx)
		r2, err2 := m.Solve(mk(), links, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1.TotalPPS-r2.TotalPPS) < 1e-6*r1.TotalPPS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveDeterministic(t *testing.T) {
	m := UltraSPARCT2Machine()
	d := computeDemand()
	tasks := []Task{{Demand: d, Group: 0}, {Demand: d, Group: 0}, {Demand: d, Group: 1}}
	links := []Link{{A: 0, B: 1, Volume: 1}}
	placement := []int{0, 1, 2}
	r1, err := m.Solve(tasks, links, placement)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Solve(tasks, links, placement)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalPPS != r2.TotalPPS {
		t.Errorf("non-deterministic solve: %v vs %v", r1.TotalPPS, r2.TotalPPS)
	}
	if r1.Iterations >= solverMaxIter {
		t.Errorf("solver did not converge within %d iterations", solverMaxIter)
	}
}

func TestSolveErrors(t *testing.T) {
	m := UltraSPARCT2Machine()
	d := computeDemand()
	if _, err := m.Solve(nil, nil, nil); err == nil {
		t.Error("no tasks accepted")
	}
	if _, err := m.Solve([]Task{{Demand: d}}, nil, []int{0, 1}); err == nil {
		t.Error("placement length mismatch accepted")
	}
	if _, err := m.Solve([]Task{{Demand: d}}, nil, []int{-1}); err == nil {
		t.Error("negative context accepted")
	}
	if _, err := m.Solve([]Task{{Demand: d}}, nil, []int{64}); err == nil {
		t.Error("out-of-range context accepted")
	}
	if _, err := m.Solve([]Task{{Demand: d}, {Demand: d}}, nil, []int{3, 3}); err == nil {
		t.Error("duplicate context accepted")
	}
	if _, err := m.Solve([]Task{{Demand: d}}, []Link{{A: 0, B: 5}}, []int{0}); err == nil {
		t.Error("dangling link accepted")
	}
	if _, err := m.Solve([]Task{{Demand: Demand{}}}, nil, []int{0}); err == nil {
		t.Error("zero demand accepted")
	}
	if _, err := m.Solve([]Task{{Demand: d, Group: -1}}, nil, []int{0}); err == nil {
		t.Error("negative group accepted")
	}
}

func TestGlobalSaturation(t *testing.T) {
	// Fill the machine with memory-hungry tasks: the MEM controllers (cap
	// 4 work-units/cycle, chip-wide) must throttle everyone no matter the
	// placement.
	m := UltraSPARCT2Machine()
	var d Demand
	d.Serial = 100
	d.Res[MEM] = 900
	tasks := make([]Task, 32)
	placement := make([]int, 32)
	for i := range tasks {
		tasks[i] = Task{Demand: d, Group: i}
		placement[i] = i * 2 // spread out: two per pipe
	}
	res, err := m.Solve(tasks, nil, placement)
	if err != nil {
		t.Fatal(err)
	}
	// Unthrottled each task would run at 1/1000 pkt/cycle: 32 tasks × 900
	// cycles demand = 28.8 utilization >> 4 capacity.
	unthrottled := 32.0 / 1000
	if res.TotalRate > unthrottled*0.5 {
		t.Errorf("total rate %v not throttled below %v", res.TotalRate, unthrottled*0.5)
	}
	for i := range tasks {
		if res.Slowdown[i] <= 1.5 {
			t.Errorf("task %d slowdown %v, expected heavy MEM contention", i, res.Slowdown[i])
		}
	}
}
