package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/netdps"
	"optassign/internal/obs"
	"optassign/internal/raceflag"
	"optassign/internal/t2"
)

// classPerf is a class-deterministic performance function: bit-identical
// for symmetric assignments, spread out enough that distinct classes
// essentially never collide.
func classPerf(a assign.Assignment) float64 {
	h := fnv.New64a()
	fmt.Fprint(h, a.CanonicalKey())
	return 1e6 + float64(h.Sum64()%1e9)/1e3
}

// countingRunner counts inner measurements and (optionally) injects
// latency so single-flight windows are wide.
type countingRunner struct {
	calls atomic.Int64
	delay time.Duration
	perf  func(a assign.Assignment) (float64, error)
}

func (c *countingRunner) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		select {
		case <-time.After(c.delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	if c.perf != nil {
		return c.perf(a)
	}
	return classPerf(a), nil
}

// symmetricVariant relabels an assignment by a random hardware symmetry:
// permute cores, permute pipes within each core, permute strand slots
// within each pipe. By construction the result is in the same canonical
// class.
func symmetricVariant(rng *rand.Rand, a assign.Assignment) assign.Assignment {
	topo := a.Topo
	corePerm := rng.Perm(topo.Cores)
	pipePerms := make([][]int, topo.Cores)
	slotPerms := make([][][]int, topo.Cores)
	for c := range pipePerms {
		pipePerms[c] = rng.Perm(topo.PipesPerCore)
		slotPerms[c] = make([][]int, topo.PipesPerCore)
		for p := range slotPerms[c] {
			slotPerms[c][p] = rng.Perm(topo.ContextsPerPipe)
		}
	}
	out := a.Clone()
	for i, ctx := range a.Ctx {
		core := topo.CoreOf(ctx)
		pipe := topo.PipeOf(ctx) % topo.PipesPerCore
		slot := topo.SlotOf(ctx)
		out.Ctx[i] = topo.Context(corePerm[core], pipePerms[core][pipe], slotPerms[core][pipe][slot])
	}
	return out
}

// TestCachedRunnerServesSymmetricPairs is the cache-soundness property
// test: for random assignment pairs related by a hardware symmetry, the
// second measurement is served from the cache bit-identical to the first,
// without touching the wrapped runner again.
func TestCachedRunnerServesSymmetricPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo := t2.UltraSPARCT2()
	inner := &countingRunner{}
	cached := NewCachedContextRunner(inner, NewCache(0, nil), "tb-A")
	ctx := context.Background()
	for trial := 0; trial < 100; trial++ {
		tasks := 1 + rng.Intn(topo.Contexts())
		a, err := assign.RandomPermutation(rng, topo, tasks)
		if err != nil {
			t.Fatal(err)
		}
		b := symmetricVariant(rng, a)
		if a.CanonicalKey() != b.CanonicalKey() {
			t.Fatalf("symmetricVariant left the class: %q vs %q", a.CanonicalKey(), b.CanonicalKey())
		}
		before := inner.calls.Load()
		pa, err := cached.MeasureContext(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := cached.MeasureContext(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pa) != math.Float64bits(pb) {
			t.Fatalf("symmetric pair measured differently: %v vs %v", pa, pb)
		}
		if got := inner.calls.Load() - before; got > 1 {
			t.Fatalf("symmetric pair hit the runner %d times, want at most 1", got)
		}
	}
}

// TestCachedRunnerNeverCrossesTestbeds shares one Cache between runners
// for different testbeds and for different topologies whose canonical keys
// collide, and requires complete isolation.
func TestCachedRunnerNeverCrossesTestbeds(t *testing.T) {
	cache := NewCache(0, nil)
	topo := t2.UltraSPARCT2()
	a := assign.Assignment{Topo: topo, Ctx: []int{0, 1, 4}}
	ctx := context.Background()

	mk := func(perf float64) *countingRunner {
		return &countingRunner{perf: func(assign.Assignment) (float64, error) { return perf, nil }}
	}
	innerA, innerB := mk(111), mk(222)
	runnerA := NewCachedContextRunner(innerA, cache, "tb-A")
	runnerB := NewCachedContextRunner(innerB, cache, "tb-B")
	if p, _ := runnerA.MeasureContext(ctx, a); p != 111 {
		t.Fatalf("tb-A perf %v", p)
	}
	if p, _ := runnerB.MeasureContext(ctx, a); p != 222 {
		t.Fatalf("tb-B got %v: a hit crossed testbed identities", p)
	}
	if innerB.calls.Load() != 1 {
		t.Fatal("tb-B runner was never consulted")
	}

	// Two topologies whose canonical keys are the identical string "[0]":
	// one task in the first pipe. Only the topology shape in the key keeps
	// them apart.
	t1 := t2.Topology{Cores: 2, PipesPerCore: 1, ContextsPerPipe: 2}
	t2x := t2.Topology{Cores: 1, PipesPerCore: 2, ContextsPerPipe: 2}
	a1 := assign.Assignment{Topo: t1, Ctx: []int{0}}
	a2 := assign.Assignment{Topo: t2x, Ctx: []int{0}}
	if a1.CanonicalKey() != a2.CanonicalKey() {
		t.Fatalf("test premise broken: keys %q vs %q", a1.CanonicalKey(), a2.CanonicalKey())
	}
	inner1, inner2 := mk(331), mk(332)
	r1 := NewCachedContextRunner(inner1, cache, "tb-C")
	r2 := NewCachedContextRunner(inner2, cache, "tb-C")
	if p, _ := r1.MeasureContext(ctx, a1); p != 331 {
		t.Fatalf("topo1 perf %v", p)
	}
	if p, _ := r2.MeasureContext(ctx, a2); p != 332 {
		t.Fatalf("topo2 got %v: a hit crossed topologies", p)
	}
}

// TestCacheSingleFlight launches many concurrent measurements of one
// canonical class through a slow runner: exactly one must reach the
// runner, everyone must get its value.
func TestCacheSingleFlight(t *testing.T) {
	inner := &countingRunner{delay: 50 * time.Millisecond}
	reg := obs.NewRegistry()
	m := NewCacheMetrics(reg)
	cached := NewCachedContextRunner(inner, NewCache(0, m), "tb")
	topo := t2.UltraSPARCT2()
	a := assign.Assignment{Topo: topo, Ctx: []int{3, 9, 27}}

	const callers = 32
	perfs := make([]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half measure a symmetric variant, not a itself.
			use := a
			if i%2 == 1 {
				use = symmetricVariant(rand.New(rand.NewSource(int64(i))), a)
			}
			p, err := cached.MeasureContext(context.Background(), use)
			if err != nil {
				t.Error(err)
			}
			perfs[i] = p
		}(i)
	}
	wg.Wait()
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("single-flight leaked: %d inner measurements, want 1", got)
	}
	for i, p := range perfs {
		if math.Float64bits(p) != math.Float64bits(perfs[0]) {
			t.Fatalf("caller %d got %v, caller 0 got %v", i, p, perfs[0])
		}
	}
	if m.Misses.Value() != 1 || m.Hits.Value() != callers-1 {
		t.Fatalf("metrics: hits %v misses %v, want %d/1", m.Hits.Value(), m.Misses.Value(), callers-1)
	}
	if m.Coalesced.Value() == 0 {
		t.Error("no caller recorded as coalesced despite a 50ms flight")
	}
}

// TestCacheDoesNotMemoizeErrors verifies failures and quarantines always
// propagate and are re-measured by the next draw — the property that keeps
// journals identical with the cache on or off.
func TestCacheDoesNotMemoizeErrors(t *testing.T) {
	fail := errors.New("testbed down")
	var n atomic.Int64
	inner := ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		if n.Add(1) <= 2 {
			return 0, fail
		}
		return 42, nil
	})
	cached := NewCachedContextRunner(inner, NewCache(0, nil), "tb")
	a := assign.Assignment{Topo: t2.UltraSPARCT2(), Ctx: []int{5}}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := cached.MeasureContext(ctx, a); !errors.Is(err, fail) {
			t.Fatalf("draw %d: error not propagated", i)
		}
	}
	if p, err := cached.MeasureContext(ctx, a); err != nil || p != 42 {
		t.Fatalf("recovery draw: %v, %v", p, err)
	}
	if p, err := cached.MeasureContext(ctx, a); err != nil || p != 42 {
		t.Fatalf("hit after recovery: %v, %v", p, err)
	}
	if n.Load() != 3 {
		t.Fatalf("inner measured %d times, want 3 (two failures + one success)", n.Load())
	}
}

// TestCacheLRUBound fills a 2-entry cache with 3 classes and checks the
// coldest is evicted and re-measured.
func TestCacheLRUBound(t *testing.T) {
	inner := &countingRunner{}
	reg := obs.NewRegistry()
	m := NewCacheMetrics(reg)
	cache := NewCache(2, m)
	cached := NewCachedContextRunner(inner, cache, "tb")
	topo := t2.UltraSPARCT2()
	ctx := context.Background()
	// Three distinct classes: task 0 alone in pipes of 1, 2 and 3 strands.
	as := []assign.Assignment{
		{Topo: topo, Ctx: []int{0}},
		{Topo: topo, Ctx: []int{0, 1}},
		{Topo: topo, Ctx: []int{0, 1, 2}},
	}
	for _, a := range as {
		if _, err := cached.MeasureContext(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
	if m.Evictions.Value() != 1 {
		t.Fatalf("evictions %v, want 1", m.Evictions.Value())
	}
	before := inner.calls.Load()
	if _, err := cached.MeasureContext(ctx, as[0]); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != before+1 {
		t.Fatal("evicted class was served from the cache")
	}
}

// TestCacheUnderPoolWorkers hammers a single cache from 16 pool workers
// measuring a duplicate-heavy sample; run with -race this is the cache's
// concurrency proof. Every measured perf must still be class-deterministic.
func TestCacheUnderPoolWorkers(t *testing.T) {
	topo := t2.UltraSPARCT2()
	inner := &countingRunner{delay: time.Millisecond}
	cached := NewCachedContextRunner(inner, NewCache(0, nil), "tb")
	pool, err := NewReplicatedPool(cached, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// 3 tasks on 64 contexts: 11 canonical classes, so 300 draws are ~96%
	// duplicates and workers constantly collide on the same keys.
	results, skipped, err := CollectSampleParallel(context.Background(), rng, topo, 3, 300, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(results) != 300 {
		t.Fatalf("results %d skipped %d", len(results), len(skipped))
	}
	for _, r := range results {
		if want := classPerf(r.Assignment); math.Float64bits(r.Perf) != math.Float64bits(want) {
			t.Fatalf("class-nondeterministic perf for %v: %v vs %v", r.Assignment.Ctx, r.Perf, want)
		}
	}
	if calls := inner.calls.Load(); calls >= 100 {
		t.Fatalf("cache ineffective under pool: %d inner measurements for 300 draws", calls)
	}
}

// TestCacheWaiterHonorsContext cancels a waiter stuck behind a slow
// leader and expects a prompt context error, not the leader's result.
func TestCacheWaiterHonorsContext(t *testing.T) {
	inner := &countingRunner{delay: 200 * time.Millisecond}
	cached := NewCachedContextRunner(inner, NewCache(0, nil), "tb")
	a := assign.Assignment{Topo: t2.UltraSPARCT2(), Ctx: []int{7}}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, err := cached.MeasureContext(context.Background(), a); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the leader take the flight
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cached.MeasureContext(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter returned %v, want deadline exceeded", err)
	}
	<-leaderDone
}

// cacheKeyGolden is a CachedRunner key for the 6-task netdps testbed and
// the assignment below: identity, \x1f, topology shape, \x1f, canonical
// form.
const cacheKeyGolden = "netdps|IPFwd-L1|i2|s1|n0.004|pf4096,1.2,64-800,0.8,0.1\x1f8x2x4\x1f[0 1]|[2] / [3 5] / [4]"

// TestCacheKeyGolden pins the exact bytes of a cache key. cas persists
// these bytes, so a drift would silently turn every existing cache
// directory into misses (netdps's TestIdentityGolden pins only the
// identity part). Both the one-draw path and the batch path must hand the
// L2 store the golden key.
func TestCacheKeyGolden(t *testing.T) {
	tb := newTestbed(t, 2)
	// Pipe 3 holds tasks 0 and 1, pipe 2 task 2 (both on core 1), pipe 8
	// tasks 3 and 5 (core 4) and pipe 0 task 4 (core 0).
	a := assign.Assignment{Topo: tb.Machine.Topo, Ctx: []int{13, 12, 8, 33, 2, 34}}
	newRunner := func() (*CachedRunner, *fakeStore) {
		c := NewCache(0, nil)
		st := newFakeStore()
		c.AttachStore(st)
		return NewCachedContextRunner(AsContextRunner(tb), c, tb.Identity()), st
	}
	r, _ := newRunner()
	if got := string(r.appendKey([]byte("p:"), a)); got != "p:"+cacheKeyGolden {
		t.Fatalf("appendKey = %q, golden %q", got, "p:"+cacheKeyGolden)
	}
	r, st := newRunner()
	if _, err := r.MeasureContext(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.data[cacheKeyGolden]; !ok || len(st.data) != 1 {
		t.Fatalf("MeasureContext stored %v, want only the golden key", st.data)
	}
	r, st = newRunner()
	if _, errs := r.MeasureBatchContext(context.Background(), []assign.Assignment{a, a}); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if _, ok := st.data[cacheKeyGolden]; !ok || len(st.data) != 1 {
		t.Fatalf("MeasureBatchContext stored %v, want only the golden key", st.data)
	}
}

// TestCachedRunnerHitAllocatesNothing: a draw served by L1 renders its
// key into a stack buffer and probes the map without building a string.
func TestCachedRunnerHitAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tb := newTestbed(t, 2)
	r := NewCachedContextRunner(AsContextRunner(tb), NewCache(0, nil), tb.Identity())
	a := assign.Assignment{Topo: tb.Machine.Topo, Ctx: []int{13, 12, 8, 33, 2, 34}}
	ctx := context.Background()
	if _, err := r.MeasureContext(ctx, a); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { r.MeasureContext(ctx, a) }); n != 0 {
		t.Errorf("MeasureContext on an L1 hit allocates %v times, want 0", n)
	}
	var buf [keyBytes]byte
	if n := testing.AllocsPerRun(100, func() { r.cache.probe(r.appendKey(buf[:0], a)) }); n != 0 {
		t.Errorf("the batch path's L1 probe allocates %v times, want 0", n)
	}
}

// TestMeasureBatchL1HitsAllocateOnlyResults: a chunk whose every draw is
// an L1 hit allocates its perfs and errs and nothing else; the
// bookkeeping for misses is built on a chunk's first L1 miss.
func TestMeasureBatchL1HitsAllocateOnlyResults(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tb := newTestbed(t, 2)
	r := NewCachedContextRunner(AsContextRunner(tb), NewCache(0, nil), tb.Identity())
	as, err := assign.Sample(rand.New(rand.NewSource(1)), tb.Machine.Topo, tb.TaskCount(), DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r.MeasureBatchContext(ctx, as)
	if n := testing.AllocsPerRun(100, func() { r.MeasureBatchContext(ctx, as) }); n != 2 {
		t.Errorf("a chunk of L1 hits allocates %v times, want 2 (perfs and errs)", n)
	}
}

// BenchmarkCachedRunnerKey times the draw that ends at an L1 hit, the
// common draw of a cached sample: rendering the key and probing L1, on
// its own (the batch path's probe) and behind MeasureContext. Draws are
// perfbench sample-cached's shape, 6 tasks on a T2.
func BenchmarkCachedRunnerKey(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 2)
	if err != nil {
		b.Fatal(err)
	}
	as, err := assign.Sample(rand.New(rand.NewSource(1)), tb.Machine.Topo, tb.TaskCount(), 64)
	if err != nil {
		b.Fatal(err)
	}
	r := NewCachedContextRunner(AsContextRunner(tb), NewCache(0, nil), tb.Identity())
	ctx := context.Background()
	for _, a := range as {
		if _, err := r.MeasureContext(ctx, a); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("probe", func(b *testing.B) {
		b.ReportAllocs()
		var buf [keyBytes]byte
		for i := 0; i < b.N; i++ {
			if _, ok := r.cache.probe(r.appendKey(buf[:0], as[i%len(as)])); !ok {
				b.Fatal("L1 miss")
			}
		}
	})
	b.Run("measure", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.MeasureContext(ctx, as[i%len(as)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
