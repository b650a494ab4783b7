package campaign

// Batching composes with worker counts: Run measures every combination
// of chunk size, workers, cache and faults on the one measurer, and each
// writes the reference journal. A one-worker pool is the serial loop,
// lock-step: it measures nothing past a fatal draw.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/obs"
)

// batchable gives a source the core.BatchMeasurer capability, the shape
// of netdps.Testbed, so that Batch chunks take the batch path. Each draw
// costs a few microseconds; a non-nil gate holds the first batch until a
// second one has started.
type batchable struct {
	core.ContextRunner
	batches *atomic.Int64
	gate    *pairGate
}

func (b batchable) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	time.Sleep(5 * time.Microsecond)
	return b.ContextRunner.MeasureContext(ctx, a)
}

func (b batchable) MeasureBatch(as []assign.Assignment) ([]float64, []error) {
	b.gate.enter(context.Background())
	b.batches.Add(1)
	perfs, errs := make([]float64, len(as)), make([]error, len(as))
	for i, a := range as {
		perfs[i], errs[i] = b.MeasureContext(context.Background(), a)
	}
	return perfs, errs
}

// pairGate holds the first measurement that enters it until a second one
// has entered, so several pool workers are sure to share a round however
// fast cache hits let one worker drain the chunks. The second caller
// comes from another worker, since the first one's is held. A nil gate
// lets every call through.
type pairGate struct {
	entered atomic.Int64
	second  chan struct{}
}

func newPairGate() *pairGate { return &pairGate{second: make(chan struct{})} }

func (g *pairGate) enter(ctx context.Context) {
	if g == nil {
		return
	}
	switch g.entered.Add(1) {
	case 1:
		select {
		case <-g.second:
		case <-ctx.Done():
		}
	case 2:
		close(g.second)
	}
}

// gated holds its runner's first measurement at gate, for stacks whose
// outer runner already hides any batch capability.
type gated struct {
	core.ContextRunner
	gate *pairGate
}

func (g gated) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	g.gate.enter(ctx)
	return g.ContextRunner.MeasureContext(ctx, a)
}

// TestBatchComposesWithWorkers: Batch{Size: 16} on 1 and 3 workers, with
// the cache on and off and faults on and off, writes the journal and
// returns the result of the serial reference stack. Without faults the
// source is batch-capable, so chunks really go through the batch path;
// with faults the resilient runner hides that capability and chunks are
// measured draw by draw. Three workers really share the work: the first
// measurement waits at a pairGate until a second worker has started one.
func TestBatchComposesWithWorkers(t *testing.T) {
	const seed = 3
	for _, withFaults := range []bool{false, true} {
		// The cache needs a class-deterministic source, so the cached
		// variants run cacheEquivStack against its own serial reference.
		refBytes, refRes, refErr := runReference(t, seed, withFaults)
		cacheRefBytes, cacheRefRes, cacheRefErr := runCacheEquivSerial(t, seed, withFaults)
		for _, cached := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("faults=%v-cache=%v-workers%d", withFaults, cached, workers), func(t *testing.T) {
					var batches atomic.Int64
					var gate *pairGate
					if workers > 1 {
						gate = newPairGate()
					}
					var runner core.ContextRunner
					cfg, wantBytes, wantRes, wantErr := streamKillConfig(seed), refBytes, refRes, refErr
					switch {
					case !cached && !withFaults:
						runner = batchable{equivStack(false), &batches, gate}
					case !cached:
						runner = gated{equivStack(true), gate}
					case !withFaults:
						runner = core.NewCachedContextRunner(batchable{cacheEquivStack(false, nil), &batches, gate},
							core.NewCache(0, nil), "cache-equiv-tb")
					default:
						runner = gated{cacheEquivStack(true, core.NewCache(0, nil)), gate}
					}
					if cached {
						cfg, wantBytes, wantRes, wantErr = equivConfig(seed), cacheRefBytes, cacheRefRes, cacheRefErr
					}
					path := filepath.Join(t.TempDir(), "run.journal")
					j, err := CreateJournal(path, equivHeader(seed))
					if err != nil {
						t.Fatal(err)
					}
					pm := core.NewPoolMetrics(obs.NewRegistry(), workers)
					res, runErr := Run(context.Background(), runner, cfg, RunConfig{
						Journal:     j,
						Workers:     workers,
						Batch:       core.BatchOptions{Size: 16},
						PoolMetrics: pm,
					})
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(runErr) != fmt.Sprint(wantErr) {
						t.Fatalf("err = %v, reference %v", runErr, wantErr)
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, wantBytes) {
						t.Fatalf("journal differs from the reference: %d bytes vs %d", len(data), len(wantBytes))
					}
					assertSameResult(t, res, wantRes)

					if !withFaults && batches.Load() == 0 {
						t.Error("batch-capable source was never measured in a batch")
					}
					if draws := res.Samples + len(res.Quarantined); pm.Dispatched.Value() < float64(draws) {
						t.Errorf("pool dispatched %v draws for %d measured", pm.Dispatched.Value(), draws)
					}
					busy := 0
					for _, c := range pm.BusySeconds {
						if c.Value() > 0 {
							busy++
						}
					}
					if workers > 1 && busy < 2 {
						t.Errorf("%d of %d workers measured anything", busy, workers)
					}
				})
			}
		}
	}
}

// TestOneWorkerStopsAtFatalDraw: a runner that fails fatally on its
// k-th call is called exactly k times by every one-worker path — the
// serial entry points, a one-worker pool, and Run with Workers: 1.
// Anything more would journal, or trace, a draw past the failure.
func TestOneWorkerStopsAtFatalDraw(t *testing.T) {
	const seed = 3
	cfg := streamKillConfig(seed)
	paths := []struct {
		name string
		run  func(core.ContextRunner) error
	}{
		{"IterateContext", func(r core.ContextRunner) error {
			_, err := core.IterateContext(context.Background(), cfg, r)
			return err
		}},
		{"CollectSampleContext", func(r core.ContextRunner) error {
			_, _, err := core.CollectSampleContext(context.Background(), rand.New(rand.NewSource(seed)),
				cfg.Topo, cfg.Tasks, cfg.Ninit, r)
			return err
		}},
		{"IterateParallel", func(r core.ContextRunner) error {
			pool, err := core.NewReplicatedPool(r, 1)
			if err != nil {
				return err
			}
			_, err = core.IterateParallel(context.Background(), cfg, pool, nil)
			return err
		}},
		{"Run", func(r core.ContextRunner) error {
			_, err := Run(context.Background(), r, cfg, RunConfig{Workers: 1})
			return err
		}},
	}
	errDied := errors.New("testbed died")
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			for rep := 0; rep < 50; rep++ {
				k := int64(1 + rep%cfg.Ninit)
				var calls atomic.Int64
				r := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
					if calls.Add(1) == k {
						return 0, errDied
					}
					return equivPerf(a), nil
				})
				if err := p.run(r); !errors.Is(err, errDied) {
					t.Fatalf("k=%d: err = %v, want the fatal draw's", k, err)
				}
				if got := calls.Load(); got != k {
					t.Fatalf("k=%d: runner called %d times", k, got)
				}
			}
		})
	}
}
