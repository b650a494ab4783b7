package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/cas"
	"optassign/internal/obs"
	"optassign/internal/t2"
)

// fakeStore is a CacheStore with scriptable failures and call counts.
type fakeStore struct {
	data     map[string]float64
	gets     int
	puts     int
	failPuts bool
}

func newFakeStore() *fakeStore { return &fakeStore{data: map[string]float64{}} }

func (f *fakeStore) Get(key string) (float64, bool) {
	f.gets++
	v, ok := f.data[key]
	return v, ok
}

func (f *fakeStore) Put(key string, perf float64) error {
	f.puts++
	if f.failPuts {
		return errors.New("disk full")
	}
	f.data[key] = perf
	return nil
}

func (f *fakeStore) Bytes() int64 { return int64(len(f.data)) * 32 }

// batchFakeStore is a fakeStore that is also a BatchCacheStore, keeping
// the keys of each PutBatch call.
type batchFakeStore struct {
	*fakeStore
	batches [][]string
}

func (f *batchFakeStore) PutBatch(keys []string, perfs []float64) error {
	f.batches = append(f.batches, append([]string(nil), keys...))
	if f.failPuts {
		return errors.New("disk full")
	}
	for i, k := range keys {
		f.data[k] = perfs[i]
	}
	return nil
}

func (f *batchFakeStore) Sync() error { return nil }

// TestDiskTierServesAcrossProcessLifetimes is the point of the L2: a
// class measured under one Cache+Store is served by a COMPLETELY fresh
// Cache (fresh LRU, fresh store handle on the same directory) without
// ever reaching the wrapped runner — the "any prior run on this host"
// guarantee.
func TestDiskTierServesAcrossProcessLifetimes(t *testing.T) {
	dir := t.TempDir()
	topo := t2.UltraSPARCT2()
	a := assign.Assignment{Topo: topo, Ctx: []int{0, 1, 9}}
	ctx := context.Background()

	st1, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inner1 := &countingRunner{}
	c1 := NewCache(0, nil)
	c1.AttachStore(st1)
	want, err := NewCachedContextRunner(inner1, c1, "tb-A").MeasureContext(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if inner1.calls.Load() != 1 {
		t.Fatalf("first run measured %d times, want 1", inner1.calls.Load())
	}
	st1.Close()

	// "Next process": nothing survives but the directory.
	st2, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m := NewCacheMetrics(obs.NewRegistry())
	inner2 := &countingRunner{}
	c2 := NewCache(0, m)
	c2.AttachStore(st2)
	got, err := NewCachedContextRunner(inner2, c2, "tb-A").MeasureContext(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("disk-served perf %v != originally measured %v", got, want)
	}
	if inner2.calls.Load() != 0 {
		t.Fatalf("second run re-measured a persisted class (%d inner calls)", inner2.calls.Load())
	}
	if m.DiskHits.Value() != 1 {
		t.Fatalf("DiskHits = %v, want 1", m.DiskHits.Value())
	}
	if m.Hits.Value() != 1 {
		t.Fatalf("a disk hit must also count as a cache hit; Hits = %v", m.Hits.Value())
	}
}

// TestDiskHitPromotesToL1: after one disk hit the class lives in the LRU,
// so repeat lookups stop touching the store entirely.
func TestDiskHitPromotesToL1(t *testing.T) {
	topo := t2.UltraSPARCT2()
	a := assign.Assignment{Topo: topo, Ctx: []int{3}}
	ctx := context.Background()

	st := newFakeStore()
	inner := &countingRunner{}
	c := NewCache(0, nil)
	c.AttachStore(st)
	r := NewCachedContextRunner(inner, c, "tb-A")

	if _, err := r.MeasureContext(ctx, a); err != nil { // miss → measure → write-through
		t.Fatal(err)
	}
	if st.puts != 1 {
		t.Fatalf("write-through Puts = %d, want 1", st.puts)
	}
	getsAfterFill := st.gets
	for i := 0; i < 5; i++ {
		if _, err := r.MeasureContext(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	if st.gets != getsAfterFill {
		t.Fatalf("L1-resident class still probed the store (%d extra Gets)", st.gets-getsAfterFill)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("inner calls = %d, want 1", inner.calls.Load())
	}
}

// TestDiskTierStoresOnlySuccesses: failed measurements must stay
// un-memoized at both tiers, exactly like the L1 rule.
func TestDiskTierStoresOnlySuccesses(t *testing.T) {
	topo := t2.UltraSPARCT2()
	a := assign.Assignment{Topo: topo, Ctx: []int{5}}
	st := newFakeStore()
	boom := errors.New("transient")
	inner := &countingRunner{perf: func(assign.Assignment) (float64, error) { return 0, boom }}
	c := NewCache(0, nil)
	c.AttachStore(st)
	r := NewCachedContextRunner(inner, c, "tb-A")
	if _, err := r.MeasureContext(context.Background(), a); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if st.puts != 0 {
		t.Fatalf("a failed measurement reached the persistent store (%d Puts)", st.puts)
	}
}

// TestDiskErrorsDegradeNotFail: a store that cannot persist must not fail
// the measurement — the campaign keeps running on L1 alone, with the
// failure counted.
func TestDiskErrorsDegradeNotFail(t *testing.T) {
	topo := t2.UltraSPARCT2()
	a := assign.Assignment{Topo: topo, Ctx: []int{2, 7}}
	st := newFakeStore()
	st.failPuts = true
	m := NewCacheMetrics(obs.NewRegistry())
	inner := &countingRunner{}
	c := NewCache(0, m)
	c.AttachStore(st)
	r := NewCachedContextRunner(inner, c, "tb-A")
	perf, err := r.MeasureContext(context.Background(), a)
	if err != nil {
		t.Fatalf("measurement failed because the disk cache did: %v", err)
	}
	if perf != classPerf(a) {
		t.Fatalf("perf = %v, want %v", perf, classPerf(a))
	}
	if m.DiskErrors.Value() != 1 {
		t.Fatalf("DiskErrors = %v, want 1", m.DiskErrors.Value())
	}
	// The class is still served from L1 afterwards.
	if _, err := r.MeasureContext(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("inner calls = %d, want 1", inner.calls.Load())
	}
}

// TestLookupInsertRoundTrip covers the batch-path probes directly: lookup
// misses cold, insert populates both tiers, lookup then hits L1, and a
// fresh cache sharing the store hits via L2 promotion.
func TestLookupInsertRoundTrip(t *testing.T) {
	st := newFakeStore()
	c := NewCache(0, nil)
	c.AttachStore(st)
	const key = "tb\x1f8x2x4\x1fK"
	if _, ok := c.lookup(key); ok {
		t.Fatal("cold lookup hit")
	}
	c.insert([]string{key}, []float64{321})
	if v, ok := c.lookup(key); !ok || v != 321 {
		t.Fatalf("lookup after insert = %v, %v", v, ok)
	}
	c2 := NewCache(0, nil)
	c2.AttachStore(st)
	if v, ok := c2.lookup(key); !ok || v != 321 {
		t.Fatalf("fresh-cache lookup via store = %v, %v", v, ok)
	}
}

// groupCommitChunk returns three draws of distinct classes on batchTopo,
// a, b and c, as the chunk [a b c a b], with a source on which c fails.
func groupCommitChunk(t *testing.T) ([]assign.Assignment, *batchSource) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	r := NewCachedContextRunner(nil, nil, "tb")
	var as []assign.Assignment
	seen := map[string]bool{}
	for len(as) < 3 {
		a, err := assign.RandomPermutation(rng, batchTopo(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if k := string(r.appendKey(nil, a)); !seen[k] {
			seen[k] = true
			as = append(as, a)
		}
	}
	c := string(r.appendKey(nil, as[2]))
	src := &batchSource{fail: func(a assign.Assignment) error {
		if string(r.appendKey(nil, a)) == c {
			return errors.New("quarantined")
		}
		return nil
	}}
	return append(as, as[0], as[1]), src
}

// TestDiskTierGroupCommitsAChunk: a chunk's successful misses reach a
// BatchCacheStore in ONE PutBatch (never a Put), failures excluded, and
// before the duplicates' lookups: with a one-entry L1, a duplicate finds
// its class only in L2, so a late write would re-measure it and move the
// counts. The single-flight path keeps one Put per flight.
func TestDiskTierGroupCommitsAChunk(t *testing.T) {
	as, src := groupCommitChunk(t)
	st := &batchFakeStore{fakeStore: newFakeStore()}
	m := NewCacheMetrics(obs.NewRegistry())
	c := NewCache(1, m)
	c.AttachStore(st)
	r := NewCachedContextRunner(src, c, "tb")
	perfs, errs := r.MeasureBatchContext(context.Background(), as)
	for i, a := range as {
		if i == 2 {
			if errs[i] == nil {
				t.Fatal("the failing class reported no error")
			}
			continue
		}
		if errs[i] != nil || perfs[i] != classPerf(a) {
			t.Fatalf("draw %d: %v, %v; want %v", i, perfs[i], errs[i], classPerf(a))
		}
	}
	want := [][]string{{string(r.appendKey(nil, as[0])), string(r.appendKey(nil, as[1]))}}
	if !reflect.DeepEqual(st.batches, want) || st.puts != 0 {
		t.Fatalf("store saw batches %q and %d Puts, want one batch %q", st.batches, st.puts, want)
	}
	if got := src.measured.Load(); got != 3 {
		t.Fatalf("measured %d assignments, want the 3 classes once each", got)
	}
	if m.Misses.Value() != 2 || m.Hits.Value() != 2 || m.DiskHits.Value() != 2 || m.DiskMisses.Value() != 5 {
		t.Fatalf("misses %v, hits %v, disk hits %v, disk misses %v; want 2, 2, 2, 5",
			m.Misses.Value(), m.Hits.Value(), m.DiskHits.Value(), m.DiskMisses.Value())
	}

	src.fail = nil
	if _, err := r.MeasureContext(context.Background(), as[2]); err != nil {
		t.Fatal(err)
	}
	if st.puts != 1 || len(st.batches) != 1 {
		t.Fatalf("a flight wrote %d Puts and %d more batches, want one Put", st.puts, len(st.batches)-1)
	}
}

// TestDiskTierBatchFallsBackToPut: a store without PutBatch gets one Put
// per successful miss, and each failed Put is counted.
func TestDiskTierBatchFallsBackToPut(t *testing.T) {
	as, src := groupCommitChunk(t)
	st := newFakeStore()
	st.failPuts = true
	m := NewCacheMetrics(obs.NewRegistry())
	c := NewCache(0, m)
	c.AttachStore(st)
	r := NewCachedContextRunner(src, c, "tb")
	if _, errs := r.MeasureBatchContext(context.Background(), as); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if st.puts != 2 || m.DiskErrors.Value() != 2 {
		t.Fatalf("%d Puts, %v disk errors; want 2 of each", st.puts, m.DiskErrors.Value())
	}
}
