package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/obs"
	"optassign/internal/t2"
)

func batchTopo() t2.Topology { return t2.Topology{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 2} }

// batchSource mimics netdps.Testbed's shape: a ContextRunner that also
// exposes MeasureBatch, both class-deterministic, with counters proving
// which path ran and how many assignments were actually measured.
type batchSource struct {
	batches  atomic.Int64 // MeasureBatch invocations
	measured atomic.Int64 // individual assignments measured, either path
	fail     func(a assign.Assignment) error
}

func (s *batchSource) measure(a assign.Assignment) (float64, error) {
	s.measured.Add(1)
	if s.fail != nil {
		if err := s.fail(a); err != nil {
			return 0, err
		}
	}
	return classPerf(a), nil
}

func (s *batchSource) MeasureContext(_ context.Context, a assign.Assignment) (float64, error) {
	return s.measure(a)
}

func (s *batchSource) MeasureBatch(as []assign.Assignment) ([]float64, []error) {
	s.batches.Add(1)
	perfs := make([]float64, len(as))
	errs := make([]error, len(as))
	for i, a := range as {
		perfs[i], errs[i] = s.measure(a)
	}
	return perfs, errs
}

// TestBatchMeasurerOfSeesThroughAdapters: the testbed is its own
// ContextRunner, so AsContextRunner hands it back unwrapped with its
// batch capability in view, and a CachedRunner over it gets the batch
// path; a source without the capability must not claim it.
func TestBatchMeasurerOfSeesThroughAdapters(t *testing.T) {
	tb := newTestbed(t, 2)
	runner := AsContextRunner(tb)
	if runner != ContextRunner(tb) {
		t.Fatalf("AsContextRunner wrapped a testbed that implements MeasureContext: %T", runner)
	}
	if _, ok := runner.(BatchMeasurer); !ok {
		t.Fatal("BatchMeasurer hidden by AsContextRunner")
	}
	batched := func(r ContextRunner) bool {
		return onePool(r).round(nil, BatchOptions{Size: 8}).batch[0] != nil
	}
	if !batched(NewCachedContextRunner(runner, NewCache(64, nil), tb.Identity())) {
		t.Fatal("CachedRunner over the testbed has no batch path")
	}
	if batched(&countingRunner{}) {
		t.Fatal("plain ContextRunner claimed batch capability")
	}
}

// TestMeasureBatchContextMatchesSerialAndDedups: the batched cache path
// must return bit-identical values to per-draw MeasureContext, while
// measuring each canonical class at most once.
func TestMeasureBatchContextMatchesSerialAndDedups(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	as, err := assign.Sample(rng, batchTopo(), 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	src := &batchSource{}
	r := NewCachedContextRunner(src, NewCache(1024, nil), "tb")
	perfs, errs := r.MeasureBatchContext(context.Background(), as)

	ref := NewCachedContextRunner(&batchSource{}, NewCache(1024, nil), "tb")
	classes := map[string]struct{}{}
	for i, a := range as {
		classes[string(r.appendKey(nil, a))] = struct{}{}
		want, werr := ref.MeasureContext(context.Background(), a)
		if errs[i] != nil || werr != nil {
			t.Fatalf("draw %d: errs %v / %v", i, errs[i], werr)
		}
		if math.Float64bits(perfs[i]) != math.Float64bits(want) {
			t.Fatalf("draw %d: batch %v != serial %v", i, perfs[i], want)
		}
	}
	if got := int(src.measured.Load()); got != len(classes) {
		t.Fatalf("batch path measured %d assignments, want one per class (%d)", got, len(classes))
	}
	if src.batches.Load() == 0 {
		t.Fatal("batch-capable source was measured serially")
	}
	// A second pass over the same draws is answered entirely by the cache.
	before := src.measured.Load()
	r.MeasureBatchContext(context.Background(), as)
	if src.measured.Load() != before {
		t.Fatalf("warm batch re-measured %d assignments", src.measured.Load()-before)
	}
}

// TestMeasureBatchContextFailedClassDuplicates: when a class's batch
// measurement fails, the error belongs to the first draw of the class and
// every duplicate re-measures individually — the single-flight follower
// rule, so transient failures don't fan out across a batch.
func TestMeasureBatchContextFailedClassDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, err := assign.RandomPermutation(rng, batchTopo(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	src := &batchSource{fail: func(assign.Assignment) error {
		if failures.Add(1) == 1 {
			return errors.New("transient")
		}
		return nil
	}}
	r := NewCachedContextRunner(src, NewCache(64, nil), "tb")
	as := []assign.Assignment{a, a, a}
	perfs, errs := r.MeasureBatchContext(context.Background(), as)
	if errs[0] == nil {
		t.Fatal("leader's failure was not reported on the first draw")
	}
	for i := 1; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("duplicate %d inherited the leader's error: %v", i, errs[i])
		}
		if math.Float64bits(perfs[i]) != math.Float64bits(classPerf(a)) {
			t.Fatalf("duplicate %d: perf %v != %v", i, perfs[i], classPerf(a))
		}
	}
	// Leader + one re-measure; the third draw hits the cache the re-measure
	// populated.
	if got := src.measured.Load(); got != 2 {
		t.Fatalf("measured %d times, want 2 (failed leader + one follower)", got)
	}
}

// TestMeasureBatchedCommitSemantics: on the one measurer, for 1 and 3
// workers and chunks of 1 and 8 draws, outcomes commit strictly in draw
// order; quarantines commit and continue; the first fatal error aborts
// with every earlier commit intact and nothing after it. One worker is
// lock-step: it measures nothing past the chunk holding the fatal draw.
func TestMeasureBatchedCommitSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	as, err := assign.Sample(rng, batchTopo(), 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	quarantineClass := as[7].CanonicalKey()
	fatalClass := as[41].CanonicalKey()
	if quarantineClass == fatalClass {
		t.Fatal("test setup: classes collide, pick new seeds")
	}
	fatalAt := -1
	for i, a := range as {
		if a.CanonicalKey() == fatalClass {
			fatalAt = i
			break
		}
	}
	for _, workers := range []int{1, 3} {
		for _, size := range []int{1, 8} {
			t.Run(fmt.Sprintf("workers%d-size%d", workers, size), func(t *testing.T) {
				src := &batchSource{fail: func(a assign.Assignment) error {
					switch a.CanonicalKey() {
					case quarantineClass:
						return fmt.Errorf("%w: flaky context", ErrQuarantined)
					case fatalClass:
						return errors.New("testbed died")
					}
					return nil
				}}
				// No cache: exercises the raw chunking and commit walk.
				r := NewCachedContextRunner(src, nil, "tb")
				pool, err := NewReplicatedPool(r, workers)
				if err != nil {
					t.Fatal(err)
				}
				var committedKeys []string
				commit := func(a assign.Assignment, perf float64, cerr error) error {
					committedKeys = append(committedKeys, a.CanonicalKey())
					if cerr == nil && math.Float64bits(perf) != math.Float64bits(classPerf(a)) {
						t.Fatalf("committed perf %v != class perf %v", perf, classPerf(a))
					}
					return nil
				}
				outs, err := pool.measure(context.Background(), as, classKeys{}, BatchOptions{Size: size}, commit)
				if err == nil || !strings.Contains(err.Error(), "testbed died") {
					t.Fatalf("fatal error not surfaced: %v", err)
				}
				if len(outs) != fatalAt {
					t.Fatalf("got %d outcomes before the fatal draw, want %d", len(outs), fatalAt)
				}
				if len(committedKeys) != fatalAt {
					t.Fatalf("committed %d outcomes, want %d (everything before the fatal draw)", len(committedKeys), fatalAt)
				}
				for i, k := range committedKeys {
					if k != as[i].CanonicalKey() {
						t.Fatalf("commit %d out of draw order", i)
					}
				}
				sawQuarantine := false
				for i, o := range outs {
					wantQ := as[i].CanonicalKey() == quarantineClass
					if gotQ := o.Err != nil; gotQ != wantQ {
						t.Fatalf("outcome %d: quarantined=%v, want %v", i, gotQ, wantQ)
					}
					sawQuarantine = sawQuarantine || wantQ
				}
				if !sawQuarantine {
					t.Fatal("test setup: no quarantined draw before the fatal one")
				}
				if workers == 1 {
					want := min((fatalAt/size+1)*size, len(as))
					if got := int(src.measured.Load()); got != want {
						t.Fatalf("one worker measured %d draws, want %d (through the fatal draw's chunk)", got, want)
					}
				}
			})
		}
	}
}

// TestIterateBatchedMatchesIterateContext is the batch differential gate
// at the campaign level: IteratePool on one worker with the same config
// and seed gives the same IterResult — Best, Final estimate, history,
// everything — across batch sizes, with and without the cache dedup in
// the loop.
func TestIterateBatchedMatchesIterateContext(t *testing.T) {
	cfg := IterConfig{
		Topo:          batchTopo(),
		Tasks:         4,
		AcceptLossPct: 8,
		Ninit:         120,
		Ndelta:        40,
		MaxSamples:    400,
	}
	for _, seed := range []int64{1, 5} {
		cfg.Seed = seed
		serial, serialErr := IterateContext(context.Background(), cfg, &batchSource{})
		for _, size := range []int{1, 7, 64} {
			for _, cacheSize := range []int{0, 4096} {
				var cache *Cache
				if cacheSize > 0 {
					cache = NewCache(cacheSize, nil)
				}
				runner := NewCachedContextRunner(&batchSource{}, cache, "tb")
				got, err := IteratePool(context.Background(), cfg, onePool(runner), BatchOptions{Size: size}, nil)
				if fmt.Sprint(err) != fmt.Sprint(serialErr) {
					t.Fatalf("seed %d size %d cache %d: err %v vs serial %v", seed, size, cacheSize, err, serialErr)
				}
				if !reflect.DeepEqual(got, serial) {
					t.Fatalf("seed %d size %d cache %d: IterResult diverged:\nbatch:  %+v\nserial: %+v", seed, size, cacheSize, got, serial)
				}
			}
		}
	}
}

// TestCollectSampleBatchedMatchesSerial: one sampling round, identical
// results and RNG consumption as CollectSampleContext.
func TestCollectSampleBatchedMatchesSerial(t *testing.T) {
	topo := batchTopo()
	rngA := rand.New(rand.NewSource(77))
	rngB := rand.New(rand.NewSource(77))
	serialRes, serialSkip, serialErr := CollectSampleContext(context.Background(), rngA, topo, 5, 150, &batchSource{})
	runner := NewCachedContextRunner(&batchSource{}, NewCache(1024, nil), "tb")
	batchRes, batchSkip, batchErr := CollectSampleBatched(context.Background(), rngB, topo, 5, 150, runner, BatchOptions{Size: 32}, nil)
	if serialErr != nil || batchErr != nil {
		t.Fatalf("errs: %v / %v", serialErr, batchErr)
	}
	if !reflect.DeepEqual(serialRes, batchRes) || !reflect.DeepEqual(serialSkip, batchSkip) {
		t.Fatal("batched sampling round diverged from serial")
	}
	// Same RNG consumption: the next draw from both streams agrees.
	if rngA.Int63() != rngB.Int63() {
		t.Fatal("batched sampling consumed a different amount of RNG state")
	}
}

// TestBatchMetricsObserved: a batched IteratePool records batch counts and
// the deduped batch sizes into the registry's histogram.
func TestBatchMetricsObserved(t *testing.T) {
	reg := obs.NewRegistry()
	bm := NewBatchMetrics(reg)
	cfg := IterConfig{
		Topo: batchTopo(), Tasks: 4,
		AcceptLossPct: 8, Ninit: 120, Ndelta: 40, MaxSamples: 240, Seed: 2,
	}
	runner := NewCachedContextRunner(&batchSource{}, NewCache(4096, nil), "tb")
	// The campaign itself may fail estimation at this tiny sample size;
	// only the batch accounting is under test here.
	IteratePool(context.Background(), cfg, onePool(runner), BatchOptions{Size: 16, Metrics: bm}, nil)
	if bm.Batches.Value() == 0 {
		t.Fatal("no batches counted")
	}
	if bm.Size.Count() != uint64(bm.Batches.Value()) {
		t.Fatalf("batch size observations %d != batches %v", bm.Size.Count(), bm.Batches.Value())
	}
	if bm.Size.Sum() > float64(cfg.MaxSamples) {
		t.Fatalf("measured %v assignments in batches, cache dedup should keep it <= %d draws", bm.Size.Sum(), cfg.MaxSamples)
	}
}
