package netdps

import (
	"math"
	"reflect"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/proc"
	"optassign/internal/sched"
)

func TestMeasureCycleAgreesWithAnalytic(t *testing.T) {
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 4, WithNoise(0))
	a, err := sched.LinuxLike{}.Assign(tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := tb.MeasureAnalytic(a)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := tb.MeasureCycle(a, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Different fidelity levels: agreement within 25% and same order of
	// magnitude is the contract (orderings are tested in internal/cycle).
	ratio := cyc.TotalPPS / analytic
	if math.IsNaN(ratio) || ratio < 0.75 || ratio > 1.25 {
		t.Errorf("cycle %v vs analytic %v (ratio %.2f)", cyc.TotalPPS, analytic, ratio)
	}
	if cyc.Cycles <= 0 {
		t.Error("no cycles simulated")
	}
	// Every measurement builds and runs its own simulation, so measuring
	// the same assignment again reproduces the Result exactly.
	again, err := tb.MeasureCycle(a, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, cyc) {
		t.Errorf("repeat measurement diverged:\nfirst:  %+v\nsecond: %+v", cyc, again)
	}
	// Invalid assignment rejected.
	bad := a.Clone()
	bad.Ctx[0] = bad.Ctx[1]
	if _, err := tb.MeasureCycle(bad, 100); err == nil {
		t.Error("invalid assignment accepted")
	}
}

func TestCycleAndAnalyticAgreeOnOrdering(t *testing.T) {
	// Ground-truth check for the analytic model: on a 2-instance IPFwd-L1
	// workload, both models must rank a good placement above a bad one,
	// and their absolute PPS must be within 2× of each other.
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 2, WithNoise(0))
	topo := tb.Machine.Topo
	good := []int{
		topo.Context(0, 1, 0), topo.Context(0, 0, 0), topo.Context(0, 1, 1),
		topo.Context(1, 1, 0), topo.Context(1, 0, 0), topo.Context(1, 1, 1),
	}
	bad := []int{
		topo.Context(0, 0, 0), topo.Context(0, 0, 1), topo.Context(0, 0, 2),
		topo.Context(0, 1, 0), topo.Context(0, 0, 3), topo.Context(0, 1, 1),
	}
	measure := func(ctx []int) (cyc, analytic float64) {
		a := assign.Assignment{Topo: tb.Machine.Topo, Ctx: ctx}
		res, err := tb.MeasureCycle(a, 300)
		if err != nil {
			t.Fatal(err)
		}
		p, err := tb.MeasureAnalytic(a)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalPPS, p
	}
	cg, ag := measure(good)
	cb, ab := measure(bad)
	if !(cg > cb) {
		t.Errorf("cycle sim ordering wrong: good %v vs bad %v", cg, cb)
	}
	if !(ag > ab) {
		t.Errorf("analytic ordering wrong: good %v vs bad %v", ag, ab)
	}
	for _, pair := range [][2]float64{{cg, ag}, {cb, ab}} {
		ratio := pair[0] / pair[1]
		if math.IsNaN(ratio) || ratio < 0.5 || ratio > 2 {
			t.Errorf("models disagree beyond 2×: cycle %v vs analytic %v", pair[0], pair[1])
		}
	}
}

func TestProfileAssignment(t *testing.T) {
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdMem), 8, WithNoise(0))
	a, err := sched.LinuxLike{}.Assign(tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := tb.ProfileAssignment(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Uses) == 0 {
		t.Fatal("empty profile")
	}
	// IPFwd-Mem presses memory: the chip-wide MEM controller must appear
	// with nonzero utilization.
	var mem bool
	for _, u := range prof.Uses {
		if u.Resource == proc.MEM && u.Util > 0 {
			mem = true
		}
	}
	if !mem {
		t.Error("no MEM utilization for the memory-bound benchmark")
	}
	bad := a.Clone()
	bad.Ctx[0] = 999
	if _, err := tb.ProfileAssignment(bad); err == nil {
		t.Error("invalid assignment accepted")
	}
}
