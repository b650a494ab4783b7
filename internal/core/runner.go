package core

import (
	"context"
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/t2"
)

// Runner is what a remote.Server backend implements: it executes one
// task assignment on the target system, with no context, and reports its
// measured performance (higher is better; the case study measures
// packets per second). Core's loops, samplers and middleware take a
// ContextRunner instead.
type Runner interface {
	Measure(a assign.Assignment) (float64, error)
}

// SampleResult pairs an executed assignment with its measured performance.
type SampleResult struct {
	Assignment assign.Assignment
	Perf       float64
}

// Best returns the index of the best-performing result, or -1 for an empty
// slice.
func Best(results []SampleResult) int {
	best := -1
	for i, r := range results {
		if best < 0 || r.Perf > results[best].Perf {
			best = i
		}
	}
	return best
}

// Perfs extracts the performance values from results.
func Perfs(results []SampleResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.Perf
	}
	return out
}

// Skipped records an assignment that was drawn for a sample but never
// yielded a measurement because its runner quarantined it.
type Skipped struct {
	Assignment assign.Assignment
	Err        error
}

// CollectSampleContext generates n iid random assignments of `tasks`
// tasks on topo (the paper's §3.3.2 Step 1), measures each with runner
// under ctx, and returns the results in execution order. It degrades
// gracefully: an assignment whose measurement reports ErrQuarantined (see
// ResilientRunner) is recorded in skipped and the campaign continues, so
// partial testbed failures cost only the quarantined points. Any other
// error (including ctx cancellation) aborts and returns the results
// measured so far, so a journaling caller keeps everything completed.
//
// Sample-size accounting (§3.1): only len(results) measurements contribute
// to the capture probability — compute it with
// CaptureProbability(len(results), p), not with the number drawn.
func CollectSampleContext(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, runner ContextRunner) (results []SampleResult, skipped []Skipped, err error) {
	if runner == nil {
		return nil, nil, fmt.Errorf("core: nil runner")
	}
	return collectSample(ctx, rng, topo, tasks, n, onePool(runner), BatchOptions{}, nil)
}

// collectSample is the one collector behind the CollectSample* entry
// points: it draws n iid assignments from rng, measures them as one
// round on pool, and splits the outcomes into results and skipped.
func collectSample(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, pool *PoolRunner, opts BatchOptions, commit CommitFunc) (results []SampleResult, skipped []Skipped, err error) {
	as, err := assign.Sample(rng, topo, tasks, n)
	if err != nil {
		return nil, nil, err
	}
	outs, err := pool.measure(ctx, as, opts, commit)
	results = make([]SampleResult, 0, len(as))
	for i, o := range outs {
		if o.Err != nil {
			skipped = append(skipped, Skipped{Assignment: as[i], Err: o.Err})
		} else {
			results = append(results, SampleResult{Assignment: as[i], Perf: o.Perf})
		}
	}
	return results, skipped, err
}
