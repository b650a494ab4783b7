// Package sched provides the baseline task-assignment policies the paper
// compares against (§2, Figure 1): the naive scheduler, which assigns tasks
// to virtual CPUs at random, and a Linux-like scheduler, which balances the
// number of tasks per core and per scheduling domain the way a
// load-balancing OS scheduler would.
package sched

import (
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/t2"
)

// Naive assigns tasks to hardware contexts uniformly at random — the
// paper's "naive task assignment" baseline.
type Naive struct {
	Rng *rand.Rand
}

// Name returns the policy's display name.
func (Naive) Name() string { return "Naive" }

// Assign places tasks tasks on topo.
func (n Naive) Assign(topo t2.Topology, tasks int) (assign.Assignment, error) {
	rng := n.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return assign.RandomPermutation(rng, topo, tasks)
}

// LinuxLike balances the task count across cores and, within each core,
// across hardware pipelines — the "number of tasks per core or scheduling
// domain is balanced" policy the paper attributes to Linux-style
// schedulers. Ties break toward lower indices, so the result is
// deterministic.
type LinuxLike struct{}

// Name returns the policy's display name.
func (LinuxLike) Name() string { return "Linux-like" }

// Assign places tasks tasks on topo.
func (LinuxLike) Assign(topo t2.Topology, tasks int) (assign.Assignment, error) {
	if err := topo.Validate(); err != nil {
		return assign.Assignment{}, err
	}
	if tasks < 1 || tasks > topo.Contexts() {
		return assign.Assignment{}, fmt.Errorf("sched: %d tasks do not fit %s", tasks, topo)
	}
	coreLoad := make([]int, topo.Cores)
	pipeLoad := make([]int, topo.Pipes())
	ctx := make([]int, tasks)
	for task := 0; task < tasks; task++ {
		// Least-loaded core, then least-loaded pipe inside it.
		core := 0
		for c := 1; c < topo.Cores; c++ {
			if coreLoad[c] < coreLoad[core] {
				core = c
			}
		}
		pipe := 0
		for p := 1; p < topo.PipesPerCore; p++ {
			if pipeLoad[core*topo.PipesPerCore+p] < pipeLoad[core*topo.PipesPerCore+pipe] {
				pipe = p
			}
		}
		slot := pipeLoad[core*topo.PipesPerCore+pipe]
		if slot >= topo.ContextsPerPipe {
			return assign.Assignment{}, fmt.Errorf("sched: internal balance overflow on core %d pipe %d", core, pipe)
		}
		ctx[task] = topo.Context(core, pipe, slot)
		coreLoad[core]++
		pipeLoad[core*topo.PipesPerCore+pipe]++
	}
	return assign.Assignment{Topo: topo, Ctx: ctx}, nil
}
