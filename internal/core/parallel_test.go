package core_test

// Deterministic-equivalence suite: a parallel campaign must be
// indistinguishable from a serial one — same measured sequence, same
// skipped draws, same iterative-algorithm trace — for any worker count,
// any seed, and under injected faults. These tests are the contract that
// lets operators fan a campaign out across N testbeds and still trust
// -resume, recorded campaigns and published results byte for byte.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/faulty"
	"optassign/internal/t2"
)

// smallTopo keeps the assignment population small enough that campaigns
// with duplicate draws are likely — the hard case for order independence.
func smallTopo() t2.Topology { return t2.Topology{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 2} }

// hashPerf is a pure measurement function: performance depends only on
// the assignment, like the simulated testbed's analytic solver.
func hashPerf(a assign.Assignment) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", a.Ctx)
	return 1e6 * (1 + float64(h.Sum64()%1000)/1000)
}

// hashRunner measures hashPerf after a deterministic per-assignment delay,
// so parallel completions genuinely arrive out of draw order.
func hashRunner(maxDelay time.Duration) core.ContextRunner {
	return core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		if maxDelay > 0 {
			h := fnv.New64a()
			fmt.Fprintf(h, "d|%v", a.Ctx)
			time.Sleep(time.Duration(h.Sum64() % uint64(maxDelay)))
		}
		return hashPerf(a), nil
	})
}

var equivalenceWorkers = []int{1, 4, 16}
var equivalenceSeeds = []int64{1, 7, 42}

func TestCollectSampleParallelMatchesSerial(t *testing.T) {
	topo, tasks, n := smallTopo(), 3, 150
	runner := hashRunner(200 * time.Microsecond)
	for _, seed := range equivalenceSeeds {
		serial, serialSkipped, err := core.CollectSampleContext(context.Background(),
			rand.New(rand.NewSource(seed)), topo, tasks, n, runner)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range equivalenceWorkers {
			t.Run(fmt.Sprintf("seed%d-workers%d", seed, workers), func(t *testing.T) {
				pool, err := core.NewReplicatedPool(runner, workers)
				if err != nil {
					t.Fatal(err)
				}
				var committed []core.SampleResult
				commit := func(a assign.Assignment, perf float64, err error) error {
					if err != nil {
						t.Errorf("unexpected commit failure for %v: %v", a.Ctx, err)
						return nil
					}
					committed = append(committed, core.SampleResult{Assignment: a, Perf: perf})
					return nil
				}
				parallel, skipped, err := core.CollectSampleParallel(context.Background(),
					rand.New(rand.NewSource(seed)), topo, tasks, n, pool, commit)
				if err != nil {
					t.Fatal(err)
				}
				if len(skipped) != len(serialSkipped) {
					t.Fatalf("skipped %d, serial skipped %d", len(skipped), len(serialSkipped))
				}
				if !reflect.DeepEqual(parallel, serial) {
					t.Fatal("parallel results differ from serial")
				}
				if !reflect.DeepEqual(committed, serial) {
					t.Fatal("commit order differs from serial measurement order")
				}
			})
		}
	}
}

// faultStack builds the full fault-tolerant measurement stack over a
// deterministic injector: faults are keyed by (assignment, attempt), so
// serial and parallel runs meet the identical fault sequence.
func faultStack() core.ContextRunner {
	inj := faulty.NewRunner(hashRunner(100*time.Microsecond), faulty.Config{
		Seed:            3,
		PermanentRate:   0.03,
		TransientRate:   0.2,
		KeyByAssignment: true,
	})
	return core.NewResilientRunner(inj, core.ResilientConfig{
		MaxAttempts: 3,
		BaseDelay:   time.Nanosecond,
		MaxDelay:    time.Microsecond,
	})
}

func TestCollectSampleParallelMatchesSerialUnderFaults(t *testing.T) {
	topo, tasks, n := smallTopo(), 3, 200
	for _, seed := range equivalenceSeeds {
		serial, serialSkipped, err := core.CollectSampleContext(context.Background(),
			rand.New(rand.NewSource(seed)), topo, tasks, n, faultStack())
		if err != nil {
			t.Fatal(err)
		}
		if len(serialSkipped) == 0 {
			t.Fatalf("seed %d: no quarantines injected; the test proves nothing", seed)
		}
		for _, workers := range equivalenceWorkers {
			t.Run(fmt.Sprintf("seed%d-workers%d", seed, workers), func(t *testing.T) {
				pool, err := core.NewReplicatedPool(faultStack(), workers)
				if err != nil {
					t.Fatal(err)
				}
				parallel, skipped, err := core.CollectSampleParallel(context.Background(),
					rand.New(rand.NewSource(seed)), topo, tasks, n, pool, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(parallel, serial) {
					t.Fatal("parallel results differ from serial under faults")
				}
				if len(skipped) != len(serialSkipped) {
					t.Fatalf("quarantined %d, serial quarantined %d", len(skipped), len(serialSkipped))
				}
				for i := range skipped {
					if !reflect.DeepEqual(skipped[i].Assignment, serialSkipped[i].Assignment) {
						t.Fatalf("quarantine %d: assignment %v, serial %v",
							i, skipped[i].Assignment.Ctx, serialSkipped[i].Assignment.Ctx)
					}
					if skipped[i].Err.Error() != serialSkipped[i].Err.Error() {
						t.Fatalf("quarantine %d error %q, serial %q", i, skipped[i].Err, serialSkipped[i].Err)
					}
				}
			})
		}
	}
}

// estimatedRounds returns an OnRound hook that appends each estimated
// round to *log.
func estimatedRounds(log *[]core.Round) func(core.Round) {
	return func(r core.Round) {
		if r.Kind == core.RoundEstimated {
			*log = append(*log, r)
		}
	}
}

func TestIterateParallelMatchesSerial(t *testing.T) {
	cfg := core.IterConfig{
		Topo:          smallTopo(),
		Tasks:         3,
		AcceptLossPct: 8,
		Ninit:         120,
		Ndelta:        40,
		MaxSamples:    400,
	}
	for _, seed := range equivalenceSeeds {
		cfg.Seed = seed
		var serialRounds []core.Round
		cfg.OnRound = estimatedRounds(&serialRounds)
		serial, serialErr := core.IterateContext(context.Background(), cfg, faultStack())
		for _, workers := range equivalenceWorkers {
			t.Run(fmt.Sprintf("seed%d-workers%d", seed, workers), func(t *testing.T) {
				pool, err := core.NewReplicatedPool(faultStack(), workers)
				if err != nil {
					t.Fatal(err)
				}
				var rounds []core.Round
				cfg := cfg
				cfg.OnRound = estimatedRounds(&rounds)
				parallel, parallelErr := core.IterateParallel(context.Background(), cfg, pool, nil)
				if !errors.Is(parallelErr, serialErr) && fmt.Sprint(parallelErr) != fmt.Sprint(serialErr) {
					t.Fatalf("error %v, serial %v", parallelErr, serialErr)
				}
				if !reflect.DeepEqual(rounds, serialRounds) {
					t.Fatal("estimated rounds differ from serial")
				}
				if !reflect.DeepEqual(parallel.Best, serial.Best) {
					t.Fatalf("best %v (%v), serial %v (%v)",
						parallel.Best.Assignment.Ctx, parallel.Best.Perf,
						serial.Best.Assignment.Ctx, serial.Best.Perf)
				}
				if parallel.Samples != serial.Samples || parallel.Satisfied != serial.Satisfied {
					t.Fatalf("samples/satisfied = %d/%v, serial %d/%v",
						parallel.Samples, parallel.Satisfied, serial.Samples, serial.Satisfied)
				}
				if len(parallel.Quarantined) != len(serial.Quarantined) {
					t.Fatalf("quarantined %d, serial %d", len(parallel.Quarantined), len(serial.Quarantined))
				}
			})
		}
	}
}

// TestCollectSampleParallelCommitError proves a failing commit aborts the
// campaign with everything already committed intact — the journal-write-
// failure path of a parallel campaign.
func TestCollectSampleParallelCommitError(t *testing.T) {
	topo, tasks, n := smallTopo(), 3, 60
	const killAt = 25
	errKill := errors.New("commit rejected")
	pool, err := core.NewReplicatedPool(hashRunner(50*time.Microsecond), 8)
	if err != nil {
		t.Fatal(err)
	}
	var commits int
	commit := func(a assign.Assignment, perf float64, err error) error {
		if commits == killAt {
			return errKill
		}
		commits++
		return nil
	}
	results, _, err := core.CollectSampleParallel(context.Background(),
		rand.New(rand.NewSource(1)), topo, tasks, n, pool, commit)
	if !errors.Is(err, errKill) {
		t.Fatalf("err = %v, want the commit error", err)
	}
	if len(results) != killAt {
		t.Fatalf("kept %d results, want the %d committed before the failure", len(results), killAt)
	}
	// The committed prefix must equal the serial prefix.
	serial, _, err := core.CollectSampleContext(context.Background(),
		rand.New(rand.NewSource(1)), topo, tasks, n, hashRunner(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, serial[:killAt]) {
		t.Fatal("committed prefix differs from serial prefix")
	}
}

// TestCollectSampleParallelCancellation: cancelling the context stops the
// campaign with a valid in-order prefix and the context's error, like the
// serial loop's measurement-boundary stop.
func TestCollectSampleParallelCancellation(t *testing.T) {
	topo, tasks, n := smallTopo(), 3, 500
	pool, err := core.NewReplicatedPool(hashRunner(200*time.Microsecond), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var commits atomic.Int64
	commit := func(a assign.Assignment, perf float64, err error) error {
		if commits.Add(1) == 20 {
			cancel()
		}
		return nil
	}
	results, _, err := core.CollectSampleParallel(ctx, rand.New(rand.NewSource(9)),
		topo, tasks, n, pool, commit)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) >= n || len(results) < 20 {
		t.Fatalf("cancelled campaign kept %d results", len(results))
	}
	serial, _, serr := core.CollectSampleContext(context.Background(),
		rand.New(rand.NewSource(9)), topo, tasks, n, hashRunner(0))
	if serr != nil {
		t.Fatal(serr)
	}
	if !reflect.DeepEqual(results, serial[:len(results)]) {
		t.Fatal("cancelled prefix differs from serial prefix")
	}
}

func TestAttemptContext(t *testing.T) {
	ctx := context.Background()
	if got := core.Attempt(ctx); got != 1 {
		t.Fatalf("Attempt(background) = %d, want 1", got)
	}
	if got := core.Attempt(core.WithAttempt(ctx, 3)); got != 3 {
		t.Fatalf("Attempt = %d, want 3", got)
	}
}

func TestChainCommits(t *testing.T) {
	var order []string
	mk := func(name string, err error) core.CommitFunc {
		return func(assign.Assignment, float64, error) error {
			order = append(order, name)
			return err
		}
	}
	boom := errors.New("boom")
	chain := core.ChainCommits(mk("a", nil), nil, mk("b", boom), mk("c", nil))
	if err := chain(assign.Assignment{}, 1, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !reflect.DeepEqual(order, []string{"a", "b"}) {
		t.Fatalf("order = %v", order)
	}
}
