// Package predict implements the paper's §5.4 proposal: when executing
// thousands of assignments on the target machine is too expensive, feed the
// statistical analysis with the output of a *performance predictor* instead
// of measurements. The accuracy of the integrated approach then depends on
// the accuracy of the predictor — this package provides a tunable heuristic
// predictor so that dependence can be studied (the ext-predictor experiment
// in internal/exp).
package predict

import (
	"fmt"
	"hash/fnv"

	"optassign/internal/assign"
	"optassign/internal/keyrand"
	"optassign/internal/netdps"
	"optassign/internal/proc"
	"optassign/internal/t2"
)

// Predictor estimates the performance of a task assignment without running
// it. It deliberately has the same shape as core.Runner, so the whole
// statistical pipeline works unchanged on predictions.
type Predictor interface {
	Predict(a assign.Assignment) (float64, error)
}

// Heuristic is an architecture-dependent analytical predictor in the style
// the paper cites ([20], [44]): it knows the machine's topology, the tasks'
// demand vectors and the communication structure, but approximates the
// contention equilibrium with a single relaxation step from uncontended
// rates instead of solving the fixed point — the kind of systematic
// shortcut real predictors take. An optional relative error term models
// further prediction inaccuracy; it is deterministic per assignment class,
// like a real model's bias for a given placement shape.
type Heuristic struct {
	machine *proc.Machine
	tasks   []proc.Task
	links   []proc.Link
	// RelError is the half-width of the uniform multiplicative error added
	// on top of the heuristic's own systematic error. 0 means "only the
	// model's structural error".
	RelError float64
	// Seed decorrelates the error from the testbed's measurement noise.
	Seed int64
}

// NewHeuristic builds a predictor for the workload of the given testbed.
func NewHeuristic(tb *netdps.Testbed, relError float64, seed int64) *Heuristic {
	tasks, links := tb.Tasks()
	return &Heuristic{
		machine:  tb.Machine,
		tasks:    tasks,
		links:    links,
		RelError: relError,
		Seed:     seed,
	}
}

// Predict implements Predictor.
func (h *Heuristic) Predict(a assign.Assignment) (float64, error) {
	if len(a.Ctx) != len(h.tasks) {
		return 0, fmt.Errorf("predict: assignment has %d tasks, workload has %d", len(a.Ctx), len(h.tasks))
	}
	if err := a.Validate(); err != nil {
		return 0, err
	}
	topo := h.machine.Topo

	// Effective demands including placement-dependent communication.
	eff := make([]proc.Demand, len(h.tasks))
	for i, t := range h.tasks {
		eff[i] = t.Demand
	}
	for _, l := range h.links {
		var comm proc.Demand
		if topo.ShareLevel(a.Ctx[l.A], a.Ctx[l.B]) == t2.InterCore {
			comm.Res[proc.L2] = h.machine.RemoteCommL2 * l.Volume
			comm.Res[proc.XBAR] = h.machine.RemoteCommXBar * l.Volume
		} else {
			comm.Res[proc.L1D] = h.machine.LocalCommL1 * l.Volume
		}
		eff[l.A] = eff[l.A].Add(comm)
		eff[l.B] = eff[l.B].Add(comm)
	}

	// One relaxation step: utilization at uncontended rates, slowdown,
	// service, bottleneck per group. (The real solver iterates this to a
	// fixed point; stopping after one step systematically over-estimates
	// contention for slow groups and under-estimates it for fast ones.)
	rate0 := make([]float64, len(eff))
	for i, d := range eff {
		rate0[i] = 1 / d.Base()
	}
	util := make(map[[2]int]float64)
	instOf := func(task int, r proc.Resource) int {
		switch r.Level() {
		case t2.IntraPipe:
			return topo.PipeOf(a.Ctx[task])
		case t2.IntraCore:
			return topo.CoreOf(a.Ctx[task])
		default:
			return 0
		}
	}
	for i, d := range eff {
		for r := 0; r < proc.NumResources; r++ {
			if d.Res[r] > 0 {
				util[[2]int{r, instOf(i, proc.Resource(r))}] += rate0[i] * d.Res[r]
			}
		}
	}
	maxGroup := 0
	for _, t := range h.tasks {
		if t.Group > maxGroup {
			maxGroup = t.Group
		}
	}
	groupRate := make([]float64, maxGroup+1)
	for i, d := range eff {
		s := d.Serial
		for r := 0; r < proc.NumResources; r++ {
			dem := d.Res[r]
			if dem == 0 {
				continue
			}
			slow := 1.0
			if u := util[[2]int{r, instOf(i, proc.Resource(r))}]; u > h.machine.Caps[r] {
				slow = u / h.machine.Caps[r]
			}
			s += dem * slow
		}
		g := h.tasks[i].Group
		rate := 1 / s
		if groupRate[g] == 0 || rate < groupRate[g] {
			groupRate[g] = rate
		}
	}
	var total float64
	for _, r := range groupRate {
		total += r
	}
	pps := total * h.machine.ClockHz

	if h.RelError > 0 {
		hash := fnv.New64a()
		fmt.Fprintf(hash, "predict|%s|%d", a.CanonicalKey(), h.Seed)
		pps *= 1 + h.RelError*(2*keyrand.Float64(int64(hash.Sum64()))-1)
	}
	return pps, nil
}

// Runner adapts the predictor to the core.Runner shape so CollectSample,
// EstimateOptimal and Iterate work unchanged on predictions — the
// "integrated approach" of §5.4.
type Runner struct{ P Predictor }

// Measure implements core.Runner by predicting.
func (r Runner) Measure(a assign.Assignment) (float64, error) { return r.P.Predict(a) }
