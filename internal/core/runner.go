package core

import (
	"context"
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/search"
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
// points: a draw stage streams n iid assignments from rng through
// search.Uniform, whose stream is assign.Sample's draw for draw, and pool
// measures them unit by unit while the stage draws (and, for the one
// worker of a cached batch path, renders the keys of) the units after
// them; the outcomes split into results and skipped. A chunk's cache
// writes become durable beside the measurement, and the sample waits for
// the last of them before it returns (and for each chunk's before its
// outcomes reach commit). Units are whole
// chunks, so every chunk, and with it every cache probe, dedup and
// commit, is the one a single n-draw round has. On success rng ends
// where assign.Sample(rng, topo, tasks, n) leaves it; an error return
// leaves it at most streamDepth+1 units past the end of the unit that
// failed: the units waiting for the measurer and the one being drawn.
func collectSample(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, pool *PoolRunner, opts BatchOptions, commit CommitFunc) (results []SampleResult, skipped []Skipped, err error) {
	stage := &drawStage{strategy: search.Uniform{}, rng: rng, hist: search.NewHistory(topo, tasks), keyer: pool.keyRunner(opts)}
	stop := make(chan struct{})
	units := stage.stream(n, sampleUnit(max(1, opts.Size), pool.Workers()), stop)
	defer func() {
		close(stop)
		for range units {
		}
		pool.syncStores(opts)
	}()
	results = make([]SampleResult, 0, max(n, 0))
	for r := range units {
		if r.err != nil {
			return results, skipped, r.err
		}
		outs, err := pool.measure(ctx, r.batch, r.keys, opts, commit)
		for i, o := range outs {
			if o.Err != nil {
				skipped = append(skipped, Skipped{Assignment: r.batch[i], Err: o.Err})
			} else {
				results = append(results, SampleResult{Assignment: r.batch[i], Perf: o.Perf})
			}
		}
		if err != nil {
			return results, skipped, err
		}
	}
	return results, skipped, nil
}

// sampleStreamDraws is the least number of draws per worker a sample's
// unit holds: enough that handing a unit between the stages costs little
// beside measuring it, and that a pool's workers rarely wait for each
// other at a unit's end. Like streamDepth, it was chosen, not tuned.
const sampleStreamDraws = 256

// sampleUnit returns the number of draws of a sample's unit on a pool of
// workers measuring chunks of size draws: the fewest whole chunks that
// hold sampleStreamDraws draws per worker.
func sampleUnit(size, workers int) int {
	want := sampleStreamDraws * workers
	return (want + size - 1) / size * size
}
