package sched

import (
	"context"
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/t2"
)

// BestOfN is the sampling scheduler implicit in the paper's own method (and
// in SOS-style symbiotic job schedulers, §6): measure N random assignments
// and keep the best. It is exactly Step 1 of the statistical approach
// without the estimation step, so it can find good assignments but cannot
// bound their distance from the optimum.
type BestOfN struct {
	N    int
	Seed int64
}

// Name identifies the scheduler.
func (s BestOfN) Name() string { return fmt.Sprintf("Best-of-%d", s.N) }

// Assign measures s.N random assignments with the runner and returns the
// best one with its measured performance.
func (s BestOfN) Assign(topo t2.Topology, tasks int, runner core.ContextRunner) (assign.Assignment, float64, error) {
	if s.N < 1 {
		return assign.Assignment{}, 0, fmt.Errorf("sched: best-of-N needs N >= 1, got %d", s.N)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	results, skipped, err := core.CollectSampleContext(context.Background(), rng, topo, tasks, s.N, runner)
	if err == nil && len(skipped) > 0 {
		err = skipped[0].Err
	}
	if err != nil {
		return assign.Assignment{}, 0, err
	}
	best := results[core.Best(results)]
	return best.Assignment, best.Perf, nil
}

// LocalSearch is measurement-driven hill climbing: start from a seed
// assignment (Linux-like by default), then repeatedly propose a random
// single-task move to a free context or a swap of two tasks, keep the
// proposal if the measured performance improves, and stop after Budget
// measurements. This is the strongest classical baseline here — and, like
// every heuristic the paper discusses, it terminates with no idea how much
// performance is still on the table.
type LocalSearch struct {
	Budget int
	Seed   int64
	// Start provides the initial assignment; nil starts from Linux-like.
	Start *assign.Assignment
}

// Name identifies the scheduler.
func (s LocalSearch) Name() string { return fmt.Sprintf("Local-search-%d", s.Budget) }

// Assign runs the search and returns the best assignment found with its
// measured performance. The runner is consulted exactly Budget+1 times.
func (s LocalSearch) Assign(topo t2.Topology, tasks int, runner core.ContextRunner) (assign.Assignment, float64, error) {
	if s.Budget < 0 {
		return assign.Assignment{}, 0, fmt.Errorf("sched: negative budget %d", s.Budget)
	}
	var cur assign.Assignment
	if s.Start != nil {
		cur = s.Start.Clone()
	} else {
		var err error
		cur, err = LinuxLike{}.Assign(topo, tasks)
		if err != nil {
			return assign.Assignment{}, 0, err
		}
	}
	if err := cur.Validate(); err != nil {
		return assign.Assignment{}, 0, err
	}
	curPerf, err := runner.MeasureContext(context.Background(), cur)
	if err != nil {
		return assign.Assignment{}, 0, err
	}

	rng := rand.New(rand.NewSource(s.Seed))
	v := topo.Contexts()
	usedBy := make([]int, v) // context -> task+1, 0 = free
	for task, ctx := range cur.Ctx {
		usedBy[ctx] = task + 1
	}

	for step := 0; step < s.Budget; step++ {
		task := rng.Intn(tasks)
		target := rng.Intn(v)
		oldCtx := cur.Ctx[task]
		if target == oldCtx {
			continue
		}
		occupant := usedBy[target] - 1

		// Propose: move or swap.
		cur.Ctx[task] = target
		if occupant >= 0 {
			cur.Ctx[occupant] = oldCtx
		}
		perf, err := runner.MeasureContext(context.Background(), cur)
		if err != nil {
			return assign.Assignment{}, 0, err
		}
		if perf > curPerf {
			curPerf = perf
			usedBy[oldCtx] = 0
			if occupant >= 0 {
				usedBy[oldCtx] = occupant + 1
			}
			usedBy[target] = task + 1
			continue
		}
		// Revert.
		cur.Ctx[task] = oldCtx
		if occupant >= 0 {
			cur.Ctx[occupant] = target
		}
	}
	return cur, curPerf, nil
}
