package proc

import (
	"fmt"
	"math"

	"optassign/internal/t2"
)

// Capacities holds, for each resource kind, the sustainable occupancy (work
// units per cycle) of one instance of that resource. Utilization above
// capacity slows every sharer proportionally.
type Capacities [NumResources]float64

// Machine is a processor performance model: a topology plus per-resource
// capacities and communication costs.
type Machine struct {
	Topo t2.Topology
	Caps Capacities

	// Queue-communication demand added to both endpoint tasks of a
	// pipeline link, depending on where the endpoints are placed: sharing
	// an L1 domain (same core) makes the memory queues cheap; crossing
	// cores routes them through the L2 and the crossbar.
	LocalCommL1    float64 // cycles on L1D when endpoints share a core
	RemoteCommL2   float64 // cycles on L2 when endpoints are on different cores
	RemoteCommXBar float64 // cycles on XBAR when endpoints are on different cores

	ClockHz float64 // cycles per second, converts rates to PPS
}

// UltraSPARCT2Machine returns the calibrated performance model used by the
// case study: 8 cores × 2 pipes × 4 strands at 1.4 GHz, with capacities
// reflecting the T2's single fetch/issue slot per pipeline, dual-pipe L1
// bandwidth per core, 8-bank L2, 8×9 crossbar and 4 memory controller
// channels.
func UltraSPARCT2Machine() *Machine {
	m := &Machine{
		Topo:           t2.UltraSPARCT2(),
		LocalCommL1:    25,
		RemoteCommL2:   30,
		RemoteCommXBar: 12,
		ClockHz:        1.4e9,
	}
	m.Caps = Capacities{
		// One fetch slot and (just under) one issue slot per pipeline: two
		// compute-bound strands in a pipe clearly over-subscribe it.
		IFU: 1.0, IEU: 0.85,
		// One load/store unit per core shared by all eight strands — the
		// T2's classic secondary bottleneck: two full pipeline instances
		// in one core over-subscribe the LSU even when they avoid sharing
		// a pipe.
		L1I: 1.0, L1D: 1.0, TLB: 1.2, LSU: 0.8, FPU: 1.0, CRY: 1.0,
		L2: 6.0, XBAR: 7.0, MEM: 3.5,
	}
	return m
}

// Validate reports whether the machine model is well formed.
func (m *Machine) Validate() error {
	if err := m.Topo.Validate(); err != nil {
		return err
	}
	for r, c := range m.Caps {
		if !(c > 0) {
			return fmt.Errorf("proc: capacity of %v must be positive, got %v", Resource(r), c)
		}
	}
	if !(m.ClockHz > 0) {
		return fmt.Errorf("proc: clock must be positive, got %v", m.ClockHz)
	}
	return nil
}

// Task is one schedulable entity: a thread of a software pipeline with its
// resource demand. Tasks with the same Group form one pipeline instance and
// process packets at a common steady-state rate (the slowest stage's rate).
type Task struct {
	Demand Demand
	Group  int
}

// Link is a producer→consumer memory queue between two tasks of the same
// pipeline. Volume scales the communication cost (1 = one packet handoff
// per processed packet).
type Link struct {
	A, B   int
	Volume float64
}

// Result is the solved steady-state behaviour of a workload under one
// assignment.
type Result struct {
	ServiceCycles []float64 // effective cycles/packet per task, contention included
	GroupRate     []float64 // packets/cycle per pipeline group
	TotalRate     float64   // Σ group rates, packets/cycle
	TotalPPS      float64   // TotalRate · ClockHz
	Slowdown      []float64 // per-task aggregate slowdown vs. un-contended base
	Iterations    int       // fixed-point iterations used
}

const (
	solverMaxIter = 200
	solverTol     = 1e-10
)

// Solve computes the steady-state throughput of the given tasks placed on
// contexts placement[i] (one distinct hardware context per task). It
// iterates the coupled system
//
//	util(resource instance) = Σ_{tasks sharing it} rate(task) · demand
//	slowdown(instance)      = max(1, util / capacity)
//	service(task)           = serial + Σ_r demand_r · slowdown(instance_r(task))
//	rate(group)             = min over the group's tasks of 1/service
//
// with damping until rates converge. The solution is deterministic and
// depends on the placement only through which resource instances tasks
// share — so symmetric assignments (same canonical form) get identical
// results.
func (m *Machine) Solve(tasks []Task, links []Link, placement []int) (Result, error) {
	res, _, err := m.solve(tasks, links, placement)
	return res, err
}

// use is one non-zero effective demand of a task, on the resource
// instance the task's placement puts it on.
type use struct {
	d    float64
	inst int32 // index into the flat per-instance array
	r    int32 // the Resource
}

// demandTable is the placement-dependent part of a solve, built once per
// call: every task's effective demand and its non-zero entries in
// resource order.
type demandTable struct {
	eff  []Demand // task demand plus link communication
	uses []use    // task i's entries are uses[end[i-1]:end[i]]
	end  []int
	// first[r] is the flat index of resource r's instance 0; the flat
	// array holds first[NumResources] instances in all.
	first [NumResources + 1]int
}

// taskUses returns task i's non-zero demands in resource order.
func (t *demandTable) taskUses(i int) []use {
	start := 0
	if i > 0 {
		start = t.end[i-1]
	}
	return t.uses[start:t.end[i]]
}

// demands validates the placement and links and builds the demand table.
func (m *Machine) demands(tasks []Task, links []Link, placement []int) (*demandTable, error) {
	n := len(tasks)
	v := m.Topo.Contexts()
	seen := make([]bool, v)
	for i, c := range placement {
		if c < 0 || c >= v {
			return nil, fmt.Errorf("proc: task %d placed on invalid context %d", i, c)
		}
		if seen[c] {
			return nil, fmt.Errorf("proc: context %d assigned twice", c)
		}
		seen[c] = true
	}

	// Effective demands: task demand plus link communication, which depends
	// on the placement distance of the endpoints.
	t := &demandTable{eff: make([]Demand, n), end: make([]int, n)}
	for i, task := range tasks {
		t.eff[i] = task.Demand
	}
	for _, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return nil, fmt.Errorf("proc: link %v references unknown task", l)
		}
		var comm Demand
		if m.Topo.ShareLevel(placement[l.A], placement[l.B]) == t2.InterCore {
			comm.Res[L2] = m.RemoteCommL2 * l.Volume
			comm.Res[XBAR] = m.RemoteCommXBar * l.Volume
		} else {
			comm.Res[L1D] = m.LocalCommL1 * l.Volume
		}
		t.eff[l.A] = t.eff[l.A].Add(comm)
		t.eff[l.B] = t.eff[l.B].Add(comm)
	}

	// Flat instance layout: one slot per pipe, core or chip-wide instance
	// of every resource, resource by resource.
	for r := 0; r < NumResources; r++ {
		count := 1
		switch Resource(r).Level() {
		case t2.IntraPipe:
			count = m.Topo.Pipes()
		case t2.IntraCore:
			count = m.Topo.Cores
		}
		t.first[r+1] = t.first[r] + count
	}

	nonZero := 0
	for i := range t.eff {
		for _, d := range t.eff[i].Res {
			if d != 0 {
				nonZero++
			}
		}
	}
	t.uses = make([]use, 0, nonZero)
	for i, ctx := range placement {
		pipe, core := m.Topo.PipeOf(ctx), m.Topo.CoreOf(ctx)
		for r, d := range t.eff[i].Res {
			if d == 0 {
				continue
			}
			inst := t.first[r]
			switch Resource(r).Level() {
			case t2.IntraPipe:
				inst += pipe
			case t2.IntraCore:
				inst += core
			}
			t.uses = append(t.uses, use{d: d, inst: int32(inst), r: int32(r)})
		}
		t.end[i] = len(t.uses)
	}
	return t, nil
}

// solve is Solve, also returning the demand table it solved.
func (m *Machine) solve(tasks []Task, links []Link, placement []int) (Result, *demandTable, error) {
	if err := m.Validate(); err != nil {
		return Result{}, nil, err
	}
	n := len(tasks)
	if n == 0 {
		return Result{}, nil, fmt.Errorf("proc: no tasks")
	}
	if len(placement) != n {
		return Result{}, nil, fmt.Errorf("proc: %d tasks but %d placements", n, len(placement))
	}
	tab, err := m.demands(tasks, links, placement)
	if err != nil {
		return Result{}, nil, err
	}
	eff := tab.eff

	// Group bookkeeping.
	maxGroup := 0
	for _, t := range tasks {
		if t.Group < 0 {
			return Result{}, nil, fmt.Errorf("proc: negative group %d", t.Group)
		}
		if t.Group > maxGroup {
			maxGroup = t.Group
		}
	}
	numGroups := maxGroup + 1

	// One allocation backs the per-task service times and slowdowns, the
	// per-group rates and the per-instance utilization.
	nInst := tab.first[NumResources]
	buf := make([]float64, 2*n+numGroups+nInst)
	service := buf[:n:n]
	slowdown := buf[n : 2*n : 2*n]
	rate := buf[2*n : 2*n+numGroups : 2*n+numGroups]
	util := buf[2*n+numGroups:]

	// Fixed point on group rates.
	for i, d := range eff {
		s := d.Base()
		if s <= 0 {
			return Result{}, nil, fmt.Errorf("proc: task %d has non-positive base service time", i)
		}
		service[i] = s
	}
	groupOf := make([]int, n)
	for i, t := range tasks {
		groupOf[i] = t.Group
	}
	updateRates := func() {
		for g := range rate {
			rate[g] = 0
		}
		for i := range service {
			r := 1 / service[i]
			g := groupOf[i]
			if rate[g] == 0 || r < rate[g] {
				rate[g] = r
			}
		}
	}
	updateRates()

	iterations := 0
	for iter := 0; iter < solverMaxIter; iter++ {
		iterations = iter + 1
		// Utilization per resource instance under current rates.
		clear(util)
		for i := range eff {
			taskRate := rate[groupOf[i]]
			for _, u := range tab.taskUses(i) {
				if u.d > 0 {
					util[u.inst] += taskRate * u.d
				}
			}
		}
		// Slowdowns and new service times.
		maxDelta := 0.0
		for i := range eff {
			s := eff[i].Serial
			for _, u := range tab.taskUses(i) {
				slow := 1.0
				if ut := util[u.inst]; ut > m.Caps[u.r] {
					slow = contentionCurve(Resource(u.r), ut/m.Caps[u.r])
				}
				s += u.d * slow
			}
			// Damping keeps the utilization↔rate loop from oscillating.
			newS := 0.5*service[i] + 0.5*s
			if delta := abs(newS-service[i]) / service[i]; delta > maxDelta {
				maxDelta = delta
			}
			service[i] = newS
		}
		updateRates()
		if maxDelta < solverTol {
			break
		}
	}

	res := Result{
		ServiceCycles: service,
		GroupRate:     rate,
		Slowdown:      slowdown,
		Iterations:    iterations,
	}
	for g := range rate {
		res.TotalRate += rate[g]
	}
	res.TotalPPS = res.TotalRate * m.ClockHz
	for i := range service {
		res.Slowdown[i] = service[i] / eff[i].Base()
	}
	return res, tab, nil
}

// contentionCurve maps over-subscription (utilization / capacity > 1) to a
// per-access slowdown. Issue-slot resources degrade linearly — two strands
// demanding the same slot each get half of it. Cache-like resources degrade
// quadratically: over-subscription does not just share bandwidth, it evicts
// the other sharer's working set (thrashing). Queue-backed resources (LSU,
// crossbar, memory controllers) sit in between.
func contentionCurve(r Resource, over float64) float64 {
	switch r {
	case IFU, IEU, FPU, CRY:
		return over
	case L1I, L1D, TLB, L2:
		return over * over
	default: // LSU, XBAR, MEM
		return over * math.Sqrt(over)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
