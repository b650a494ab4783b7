package cycle

import (
	"testing"

	"optassign/internal/proc"
	"optassign/internal/t2"
)

// mkTriple builds a 3-stage pipeline workload (one group) with the given P
// demand and light R/T demands.
func mkTriple(p proc.Demand) []proc.Task {
	light := proc.Demand{Serial: 60}
	light.Res[proc.IEU] = 80
	light.Res[proc.LSU] = 100
	light.Res[proc.L1D] = 60
	return []proc.Task{
		{Demand: light, Group: 0},
		{Demand: p, Group: 0},
		{Demand: light, Group: 0},
	}
}

func heavyP() proc.Demand {
	var d proc.Demand
	d.Serial = 20
	d.Res[proc.IFU] = 30
	d.Res[proc.IEU] = 650
	d.Res[proc.LSU] = 360
	d.Res[proc.L1D] = 200
	d.Res[proc.L2] = 20
	return d
}

func TestBuildProgramConservesWork(t *testing.T) {
	d := heavyP()
	prog := buildProgram(d)
	var issue, lsu, miss, serial int
	for _, o := range prog.ops {
		switch o.class {
		case opIssue:
			issue++
		case opLSU:
			lsu++
		case opMiss:
			miss += int(o.latency)
		case opSerial:
			serial += int(o.latency)
		}
	}
	if want := int(d.Res[proc.IFU] + d.Res[proc.IEU]); issue != want {
		t.Errorf("issue ops = %d, want %d", issue, want)
	}
	if want := int(d.Res[proc.LSU]); lsu != want {
		t.Errorf("LSU ops = %d, want %d", lsu, want)
	}
	if want := int(d.Res[proc.L1D] + d.Res[proc.L2]); miss != want {
		t.Errorf("miss latency = %d, want %d", miss, want)
	}
	if serial != int(d.Serial) {
		t.Errorf("serial latency = %d, want %v", serial, d.Serial)
	}
	// Degenerate demand still yields a non-empty program.
	if len(buildProgram(proc.Demand{}).ops) == 0 {
		t.Error("empty demand program")
	}
}

func TestSoloPipelineApproachesBottleneckRate(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	tasks := mkTriple(heavyP())
	topo := m.Topo
	// Ideal placement: P alone in pipe 0, R/T in pipe 1 of core 0.
	placement := []int{topo.Context(0, 1, 0), topo.Context(0, 0, 0), topo.Context(0, 1, 1)}
	sim, err := newSim(m, tasks, []proc.Link{{A: 0, B: 1, Volume: 1}, {A: 1, B: 2, Volume: 1}}, placement, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	// The P stage needs ~1280 cycles of work + ~25 comm per packet and
	// runs alone in its pipe with latency fully hidden only if R/T keep
	// queues busy — throughput should be within ~20% of the 1/1305
	// packets-per-cycle bound.
	bound := m.ClockHz / 1305
	if res.TotalPPS > bound*1.02 {
		t.Errorf("cycle sim faster than physics: %v > %v", res.TotalPPS, bound)
	}
	if res.TotalPPS < bound*0.75 {
		t.Errorf("cycle sim too slow: %v < 0.75×%v", res.TotalPPS, bound)
	}
	if res.Cycles <= 0 || res.GroupPPS[0] != res.TotalPPS {
		t.Errorf("result bookkeeping: %+v", res)
	}
}

func TestPipeSharingEmergesAsContention(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	// Two pipelines; compare both P threads in one pipe vs separate pipes.
	tasks := append(mkTriple(heavyP()), mkTriple(heavyP())...)
	for i := 3; i < 6; i++ {
		tasks[i].Group = 1
	}
	links := []proc.Link{{A: 0, B: 1}, {A: 1, B: 2}, {A: 3, B: 4}, {A: 4, B: 5}}
	topo := m.Topo

	shared := []int{
		topo.Context(0, 1, 0), topo.Context(0, 0, 0), topo.Context(0, 1, 1),
		topo.Context(1, 1, 0), topo.Context(0, 0, 1), topo.Context(1, 1, 1),
	}
	separate := []int{
		topo.Context(0, 1, 0), topo.Context(0, 0, 0), topo.Context(0, 1, 1),
		topo.Context(1, 1, 0), topo.Context(1, 0, 0), topo.Context(1, 1, 1),
	}
	run := func(placement []int) Result {
		sim, err := newSim(m, tasks, links, placement, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(300)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rs, rsep := run(shared), run(separate)
	if !(rsep.TotalPPS > rs.TotalPPS*1.1) {
		t.Errorf("pipe sharing should clearly hurt: shared %v vs separate %v", rs.TotalPPS, rsep.TotalPPS)
	}
	// The shared pipe's issue slot is the contended resource.
	if rs.IssueBusy[0] <= rsep.IssueBusy[0] {
		t.Errorf("shared pipe not busier: %v vs %v", rs.IssueBusy[0], rsep.IssueBusy[0])
	}
}

func TestLSUPortContentionEmerges(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	// LSU-only heavy tasks: two instances fully inside one core must lose
	// strand-cycles to port arbitration versus two cores.
	var lsuHeavy proc.Demand
	lsuHeavy.Res[proc.IEU] = 100
	lsuHeavy.Res[proc.LSU] = 700
	tasks := append(mkTriple(lsuHeavy), mkTriple(lsuHeavy)...)
	for i := 3; i < 6; i++ {
		tasks[i].Group = 1
	}
	links := []proc.Link{{A: 0, B: 1}, {A: 1, B: 2}, {A: 3, B: 4}, {A: 4, B: 5}}
	topo := m.Topo
	oneCore := []int{
		topo.Context(0, 0, 0), topo.Context(0, 0, 1), topo.Context(0, 0, 2),
		topo.Context(0, 1, 0), topo.Context(0, 1, 1), topo.Context(0, 1, 2),
	}
	twoCores := []int{
		topo.Context(0, 0, 0), topo.Context(0, 0, 1), topo.Context(0, 0, 2),
		topo.Context(1, 0, 0), topo.Context(1, 0, 1), topo.Context(1, 0, 2),
	}
	run := func(placement []int) Result {
		sim, err := newSim(m, tasks, links, placement, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, two := run(oneCore), run(twoCores)
	if !(two.TotalPPS > one.TotalPPS*1.05) {
		t.Errorf("LSU port sharing should hurt: one core %v vs two cores %v", one.TotalPPS, two.TotalPPS)
	}
	if one.LSUBlocked == 0 {
		t.Error("no LSU arbitration losses recorded in the contended case")
	}
}

func TestNewValidation(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	tasks := mkTriple(heavyP())
	if _, err := newSim(m, nil, nil, nil, Config{}); err == nil {
		t.Error("no tasks accepted")
	}
	if _, err := newSim(m, tasks, nil, []int{0}, Config{}); err == nil {
		t.Error("placement mismatch accepted")
	}
	if _, err := newSim(m, tasks, nil, []int{0, 0, 1}, Config{}); err == nil {
		t.Error("duplicate context accepted")
	}
	if _, err := newSim(m, tasks, nil, []int{0, 1, 999}, Config{}); err == nil {
		t.Error("out-of-range context accepted")
	}
	if _, err := newSim(m, tasks, []proc.Link{{A: 0, B: 99}}, []int{0, 1, 2}, Config{}); err == nil {
		t.Error("dangling link accepted")
	}
	twoTask := []proc.Task{{Demand: heavyP(), Group: 0}, {Demand: heavyP(), Group: 0}}
	if _, err := newSim(m, twoTask, nil, []int{0, 1}, Config{}); err == nil {
		t.Error("non-triple group accepted")
	}
	bad := *m
	bad.Topo = t2.Topology{}
	if _, err := newSim(&bad, tasks, nil, []int{0, 1, 2}, Config{}); err == nil {
		t.Error("invalid machine accepted")
	}
	sim, err := newSim(m, tasks, nil, []int{0, 4, 5}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(0); err == nil {
		t.Error("0 packets accepted")
	}
	// MaxCycles abort.
	sim2, err := newSim(m, tasks, nil, []int{0, 4, 5}, Config{MaxCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Run(1000); err == nil {
		t.Error("MaxCycles not enforced")
	}
}
