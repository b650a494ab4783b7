package sched

import (
	"fmt"
	"sort"

	"optassign/internal/assign"
	"optassign/internal/proc"
)

// GreedyDemand is a demand-aware heuristic in the spirit of the
// profile-driven assignment algorithms the paper surveys (El-Moursy et al.,
// McGregor et al., §6): it knows each task's resource demand vector and the
// pipeline communication structure, sorts tasks by their dominant demand
// and places each one on the free hardware context that minimizes the
// predicted marginal contention, preferring to keep communicating threads
// inside one core.
//
// Unlike the statistical method it cannot say how far from optimal its
// answer is — that is precisely the gap the paper's estimator fills.
type GreedyDemand struct {
	Machine *proc.Machine
	Tasks   []proc.Task
	Links   []proc.Link
}

// Name returns the policy's display name.
func (GreedyDemand) Name() string { return "Greedy-demand" }

// Assign places the workload. The topology is taken from the machine.
func (g GreedyDemand) Assign() (assign.Assignment, error) {
	if g.Machine == nil {
		return assign.Assignment{}, fmt.Errorf("sched: greedy needs a machine model")
	}
	topo := g.Machine.Topo
	if err := topo.Validate(); err != nil {
		return assign.Assignment{}, err
	}
	n := len(g.Tasks)
	if n < 1 || n > topo.Contexts() {
		return assign.Assignment{}, fmt.Errorf("sched: %d tasks do not fit %s", n, topo)
	}

	// Uncontended rates approximate each task's activity level.
	rate := make([]float64, n)
	for i, t := range g.Tasks {
		base := t.Demand.Base()
		if base <= 0 {
			return assign.Assignment{}, fmt.Errorf("sched: task %d has non-positive demand", i)
		}
		rate[i] = 1 / base
	}

	// Process the heaviest IEU consumers first: they are the hardest to
	// place well.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Tasks[order[a]].Demand.Res[proc.IEU]*rate[order[a]] >
			g.Tasks[order[b]].Demand.Res[proc.IEU]*rate[order[b]]
	})

	partners := make([][]int, n)
	for _, l := range g.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return assign.Assignment{}, fmt.Errorf("sched: link %v references unknown task", l)
		}
		partners[l.A] = append(partners[l.A], l.B)
		partners[l.B] = append(partners[l.B], l.A)
	}

	pipeIEU := make([]float64, topo.Pipes())
	coreLSU := make([]float64, topo.Cores)
	used := make([]bool, topo.Contexts())
	ctxOf := make([]int, n)
	for i := range ctxOf {
		ctxOf[i] = -1
	}

	remoteCommCost := (g.Machine.RemoteCommL2 + g.Machine.RemoteCommXBar - g.Machine.LocalCommL1)
	if remoteCommCost < 0 {
		remoteCommCost = 0
	}

	for _, task := range order {
		d := g.Tasks[task].Demand
		bestCtx, bestCost := -1, 0.0
		for ctx := 0; ctx < topo.Contexts(); ctx++ {
			if used[ctx] {
				continue
			}
			pipe, core := topo.PipeOf(ctx), topo.CoreOf(ctx)
			// Predicted over-subscription after placing here.
			newIEU := pipeIEU[pipe] + d.Res[proc.IEU]*rate[task]
			newLSU := coreLSU[core] + d.Res[proc.LSU]*rate[task]
			cost := 0.0
			if over := newIEU - g.Machine.Caps[proc.IEU]; over > 0 {
				cost += 10 * over
			}
			if over := newLSU - g.Machine.Caps[proc.LSU]; over > 0 {
				cost += 6 * over
			}
			// Keep communicating threads in one core where possible.
			for _, p := range partners[task] {
				if ctxOf[p] >= 0 && topo.CoreOf(ctxOf[p]) != core {
					cost += remoteCommCost * rate[task] * 0.01
				}
			}
			// Mild preference for low indices keeps the result canonical.
			cost += float64(ctx) * 1e-9
			if bestCtx < 0 || cost < bestCost {
				bestCtx, bestCost = ctx, cost
			}
		}
		used[bestCtx] = true
		ctxOf[task] = bestCtx
		pipe, core := topo.PipeOf(bestCtx), topo.CoreOf(bestCtx)
		pipeIEU[pipe] += d.Res[proc.IEU] * rate[task]
		coreLSU[core] += d.Res[proc.LSU] * rate[task]
	}
	return assign.Assignment{Topo: topo, Ctx: ctxOf}, nil
}
