package proc

import (
	"fmt"
	"math"
	"sync"

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
// results. The returned slices are the caller's own.
func (m *Machine) Solve(tasks []Task, links []Link, placement []int) (Result, error) {
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	if err := w.solve(m, tasks, links, placement); err != nil {
		return Result{}, err
	}
	return w.result(m), nil
}

// SolvePPS returns Solve's TotalPPS, bit for bit, without building the
// Result: a steady stream of calls allocates nothing.
func (m *Machine) SolvePPS(tasks []Task, links []Link, placement []int) (float64, error) {
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	if err := w.solve(m, tasks, links, placement); err != nil {
		return 0, err
	}
	return w.totalRate() * m.ClockHz, nil
}

// workspace is one solve's placement-dependent tables and fixed-point
// buffers. Solves borrow one from workspaces and grow it as needed.
type workspace struct {
	seen  []bool    // per context: a task is placed on it
	eff   []Demand  // task demand plus link communication
	base  []float64 // eff[i].Base()
	group []int     // task i's pipeline group

	// Task i's non-zero effective demands, in resource order, are
	// useD[start[i]:start[i+1]], on the instances in useInst.
	start   []int
	useD    []float64
	useInst []int32
	// first[r] is the flat index of resource r's instance 0; the flat
	// per-instance arrays hold first[NumResources] instances in all.
	first [NumResources + 1]int

	service []float64 // per task
	rate    []float64 // per group
	util    []float64 // per instance
	slow    []float64 // per instance

	iterations int
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// demands validates the placement and links and builds the demand table.
func (w *workspace) demands(m *Machine, tasks []Task, links []Link, placement []int) error {
	n := len(tasks)
	w.seen = resize(w.seen, m.Topo.Contexts())
	clear(w.seen)
	for i, c := range placement {
		if c < 0 || c >= len(w.seen) {
			return fmt.Errorf("proc: task %d placed on invalid context %d", i, c)
		}
		if w.seen[c] {
			return fmt.Errorf("proc: context %d assigned twice", c)
		}
		w.seen[c] = true
	}

	// Effective demands: task demand plus link communication, which depends
	// on the placement distance of the endpoints.
	// Adding the link's non-zero components alone matches Demand.Add up
	// to the sign of a zero, which no use, base or slowdown can see.
	w.eff = resize(w.eff, n)
	for i := range tasks {
		w.eff[i] = tasks[i].Demand
	}
	for _, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return fmt.Errorf("proc: link %v references unknown task", l)
		}
		a, b := &w.eff[l.A].Res, &w.eff[l.B].Res
		if m.Topo.ShareLevel(placement[l.A], placement[l.B]) == t2.InterCore {
			l2, xbar := m.RemoteCommL2*l.Volume, m.RemoteCommXBar*l.Volume
			a[L2] += l2
			a[XBAR] += xbar
			b[L2] += l2
			b[XBAR] += xbar
		} else {
			l1d := m.LocalCommL1 * l.Volume
			a[L1D] += l1d
			b[L1D] += l1d
		}
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
		w.first[r+1] = w.first[r] + count
	}

	w.start = resize(w.start, n+1)
	w.useD, w.useInst = w.useD[:0], w.useInst[:0]
	for i, ctx := range placement {
		w.start[i] = len(w.useD)
		pipe, core := m.Topo.PipeOf(ctx), m.Topo.CoreOf(ctx)
		for r, d := range &w.eff[i].Res {
			if d == 0 {
				continue
			}
			inst := w.first[r]
			switch Resource(r).Level() {
			case t2.IntraPipe:
				inst += pipe
			case t2.IntraCore:
				inst += core
			}
			w.useD = append(w.useD, d)
			w.useInst = append(w.useInst, int32(inst))
		}
	}
	w.start[n] = len(w.useD)
	return nil
}

// solve runs the fixed point, leaving the converged service times and
// group rates in w.
func (w *workspace) solve(m *Machine, tasks []Task, links []Link, placement []int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	n := len(tasks)
	if n == 0 {
		return fmt.Errorf("proc: no tasks")
	}
	if len(placement) != n {
		return fmt.Errorf("proc: %d tasks but %d placements", n, len(placement))
	}
	if err := w.demands(m, tasks, links, placement); err != nil {
		return err
	}

	// Group bookkeeping.
	w.group = resize(w.group, n)
	maxGroup := 0
	for i, t := range tasks {
		if t.Group < 0 {
			return fmt.Errorf("proc: negative group %d", t.Group)
		}
		maxGroup = max(maxGroup, t.Group)
		w.group[i] = t.Group
	}

	nInst := w.first[NumResources]
	w.base = resize(w.base, n)
	w.service = resize(w.service, n)
	w.rate = resize(w.rate, maxGroup+1)
	w.util = resize(w.util, nInst)
	w.slow = resize(w.slow, nInst)
	service, rate, util, slow := w.service, w.rate, w.util, w.slow
	group, start, useD, useInst := w.group, w.start, w.useD, w.useInst

	// Fixed point on group rates.
	for i := range w.eff {
		s := w.eff[i].Base()
		if s <= 0 {
			return fmt.Errorf("proc: task %d has non-positive base service time", i)
		}
		w.base[i] = s
		service[i] = s
	}
	updateRates := func() {
		clear(rate)
		for i, s := range service {
			r := 1 / s
			g := group[i]
			if rate[g] == 0 || r < rate[g] {
				rate[g] = r
			}
		}
	}
	updateRates()

	w.iterations = 0
	for iter := 0; iter < solverMaxIter; iter++ {
		w.iterations = iter + 1
		// Utilization per resource instance under current rates.
		clear(util)
		for i := 0; i < n; i++ {
			taskRate := rate[group[i]]
			insts := useInst[start[i]:start[i+1]]
			for k, d := range useD[start[i]:start[i+1]] {
				if d > 0 {
					util[insts[k]] += taskRate * d
				}
			}
		}
		// Slowdown per instance, then new service times.
		for r := 0; r < NumResources; r++ {
			c := m.Caps[r]
			for k := w.first[r]; k < w.first[r+1]; k++ {
				slow[k] = 1
				if ut := util[k]; ut > c {
					slow[k] = contentionCurve(Resource(r), ut/c)
				}
			}
		}
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			s := w.eff[i].Serial
			insts := useInst[start[i]:start[i+1]]
			for k, d := range useD[start[i]:start[i+1]] {
				s += d * slow[insts[k]]
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
	return nil
}

// result copies the solve left in w into a Result of fresh slices.
func (w *workspace) result(m *Machine) Result {
	n, numGroups := len(w.service), len(w.rate)
	buf := make([]float64, 2*n+numGroups)
	res := Result{
		ServiceCycles: buf[:n:n],
		Slowdown:      buf[n : 2*n : 2*n],
		GroupRate:     buf[2*n:],
		TotalRate:     w.totalRate(),
		Iterations:    w.iterations,
	}
	copy(res.ServiceCycles, w.service)
	copy(res.GroupRate, w.rate)
	res.TotalPPS = res.TotalRate * m.ClockHz
	for i, s := range w.service {
		res.Slowdown[i] = s / w.base[i]
	}
	return res
}

// totalRate is Σ group rates, packets/cycle, summed in group order.
func (w *workspace) totalRate() float64 {
	total := 0.0
	for _, r := range w.rate {
		total += r
	}
	return total
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
