package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/cas"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/obs"
	"optassign/internal/search"
)

// sample-cached collects large fixed-size samples on the batched path:
// core.CollectSampleBatched behind a core.CachedRunner whose L1 is
// smaller than the working set, over an initially empty cas store (the
// optassign -batch -cache-dir stack).
const (
	sampleApp       = "IPFwd-L1"
	sampleInstances = 2 // 6 tasks: about 1,470 canonical classes
	// sampleDraws makes the fill's fsyncs (about 1,200 cas Puts a pass) a
	// minority of the pass, so disk latency does not dominate it.
	sampleDraws = 100000
	sampleL1    = 512
	sampleChunk = core.DefaultBatchSize
	// spotEvery picks the results re-measured uncached by the check.
	spotEvery = 97
)

// samplePass is one fixed-size sample and what the cache tiers did.
type samplePass struct {
	id   string
	secs float64
	// unstolen is secs scaled by the share the machine did not steal.
	unstolen float64
	results  []core.SampleResult
	skipped  int
	hits     float64 // served by either tier (core's hit counter)
	l2Hits   float64 // of which the cas store answered
	misses   float64 // measured on the testbed
	probes   float64 // draws that missed both tiers when probed
}

func (p samplePass) l1Hits() float64 { return p.hits - p.l2Hits }

// runSampleCached runs fixed-size sample passes until the timed phase is
// over. Pass p draws from seed search.RepSeed(seed, p) into a fresh cache
// and a fresh, empty cas store, so each pass's mix of L1 hits, L2 hits
// and misses is fixed by the seed.
func runSampleCached(ctx context.Context, o options) (*result, error) {
	res := &result{}
	var tb *netdps.Testbed
	for rep := 0; rep < setupReps; rep++ {
		clock := startSteal()
		app, err := apps.ByName(sampleApp, netgen.DefaultProfile())
		if err != nil {
			return nil, err
		}
		if tb, err = netdps.NewTestbed(app, sampleInstances, netdps.WithSeed(search.RepSeed(o.seed, testbedRep))); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, core.AsContextRunner(tb), tb.Machine.Topo, tb.TaskCount(), o.seed, 1); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, clock.unstolen())
	}

	var tr *tracer
	var refSecs float64
	if o.trace {
		ref, err := runSamplePass(ctx, o, "ref", search.RepSeed(o.seed, 0), tb, nil)
		if err != nil {
			return nil, err
		}
		if err := checkSamplePass(ref, tb); err != nil {
			return nil, err
		}
		refSecs = ref.secs
		tr = newTracer()
	}
	var passes []samplePass
	cpu := cpuTime()
	deadline := time.Now().Add(o.seconds)
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		pass, err := runSamplePass(ctx, o, fmt.Sprintf("pass%04d", p), search.RepSeed(o.seed, p), tb, tr)
		if err != nil {
			return nil, err
		}
		// Checked outside the timed phase: the deadline moves by the check,
		// and its CPU time is not the program's.
		checkStart, checkCPU := time.Now(), cpuTime()
		if err := checkSamplePass(pass, tb); err != nil {
			return nil, err
		}
		deadline = deadline.Add(time.Since(checkStart))
		cpu += cpuTime() - checkCPU
		res.wall += pass.secs
		res.draws += len(pass.results)
		res.attempted += len(pass.results) + pass.skipped
		res.failed += pass.skipped
		res.campaigns = append(res.campaigns, pass.unstolen)
		res.unstolen += pass.unstolen
		pass.results = nil // checked; dropped to keep memory flat
		passes = append(passes, pass)
	}
	res.cpu = (cpuTime() - cpu).Seconds()
	res.passed("%d passes: L1 hits + L2 hits + misses equal the draw count", len(passes))
	res.passed("%d passes: every %dth result equals uncached MeasureAnalytic bit for bit", len(passes), spotEvery)
	first := passes[0]
	res.drawsToCert = sampleDraws
	res.counts = map[string]float64{
		"draws_to_cert": sampleDraws,
		"pass0.l1_hits": first.l1Hits(),
		"pass0.l2_hits": first.l2Hits,
		"pass0.misses":  first.misses,
		"pass0.probes":  first.probes,
	}
	if tr != nil {
		res.layers = sampleLayers(tr, passes, res)
		res.layers["trace.overhead_frac"] = first.secs/refSecs - 1
		if err := writeTrace(tr, o, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runSamplePass collects one sample of sampleDraws draws from seed.
func runSamplePass(ctx context.Context, o options, id string, seed int64, tb *netdps.Testbed, tr *tracer) (samplePass, error) {
	pass := samplePass{id: id}
	clock := startSteal()
	root := -1
	if tr != nil {
		root = tr.begin("sample", -1, id)
	}
	dir := filepath.Join(o.dir, id)
	store, err := cas.Open(dir)
	if err != nil {
		return pass, err
	}
	defer os.RemoveAll(dir)
	cm := core.NewCacheMetrics(obs.NewRegistry())
	cache := core.NewCache(sampleL1, cm)
	inner := core.AsContextRunner(tb)
	var commit core.CommitFunc
	var commits []int64
	if tr != nil {
		ref := spanRef{tr: tr, id: root, track: id}
		cache.AttachStore(tracedStore{store: store, ref: ref})
		inner = tracedTestbed{tb: tb, ref: ref}
		commits = make([]int64, 0, sampleDraws)
		commit = func(assign.Assignment, float64, error) error {
			commits = append(commits, tr.now())
			return nil
		}
	} else {
		cache.AttachStore(store)
	}
	runner := core.NewCachedContextRunner(inner, cache, tb.Identity())
	rng := rand.New(rand.NewSource(seed))
	called := int64(0)
	if tr != nil {
		called = tr.now()
	}
	results, skipped, err := core.CollectSampleBatched(ctx, rng, tb.Machine.Topo, tb.TaskCount(), sampleDraws, runner,
		core.BatchOptions{Size: sampleChunk}, commit)
	if cerr := store.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the cas store: %w", cerr)
	}
	if err != nil {
		return pass, err
	}
	pass.secs, pass.unstolen = time.Since(clock.at).Seconds(), clock.unstolen()
	if tr != nil {
		tr.end(root, len(results))
		spanSample(tr, root, id, called, commits)
	}
	pass.results, pass.skipped = results, len(skipped)
	pass.hits, pass.misses = cm.Hits.Value(), cm.Misses.Value()
	pass.l2Hits, pass.probes = cm.DiskHits.Value(), cm.DiskMisses.Value()
	return pass, nil
}

// spanSample synthesizes the spans CollectSampleBatched's internals leave
// no call for: "search.next" (the sample's draws, from the call until the
// first cache-tier or testbed span) and one "core.batch" per chunk (from
// the previous chunk's last commit to this chunk's first), which adopts
// the cas and netdps spans recorded inside it.
func spanSample(tr *tracer, root int, track string, called int64, commits []int64) {
	first := tr.firstAfter(root, track)
	if first < 0 || len(commits) == 0 {
		return
	}
	tr.add(span{name: "search.next", start: called, end: first, parent: root, track: track, n: len(commits)})
	for c := 0; c*sampleChunk < len(commits); c++ {
		start := first
		if c > 0 {
			start = commits[c*sampleChunk-1]
		}
		n := min(sampleChunk, len(commits)-c*sampleChunk)
		tr.add(span{name: "core.batch", start: start, end: commits[c*sampleChunk], parent: root, track: track, n: n, contain: true})
	}
}

var (
	errCacheAccounting = errors.New("cache accounting does not add up to the draw count")
	errSpotCheck       = errors.New("cached result differs from an uncached measurement")
)

// checkSamplePass verifies one pass: every draw is accounted for by
// exactly one of an L1 hit, an L2 hit or a miss, and a spot-check subset
// matches uncached MeasureAnalytic bit for bit.
func checkSamplePass(p samplePass, tb *netdps.Testbed) error {
	if n := len(p.results) + p.skipped; n != sampleDraws {
		return fmt.Errorf("%w: pass %s returned %d draws, want %d", errCacheAccounting, p.id, n, sampleDraws)
	}
	if got := p.l1Hits() + p.l2Hits + p.misses; got != float64(sampleDraws) {
		return fmt.Errorf("%w: pass %s: %v L1 + %v L2 + %v misses = %v, want %d",
			errCacheAccounting, p.id, p.l1Hits(), p.l2Hits, p.misses, got, sampleDraws)
	}
	for i := 0; i < len(p.results); i += spotEvery {
		r := p.results[i]
		want, err := tb.MeasureAnalytic(r.Assignment)
		if err != nil {
			return fmt.Errorf("pass %s: re-measuring draw %d: %w", p.id, i, err)
		}
		if math.Float64bits(want) != math.Float64bits(r.Perf) {
			return fmt.Errorf("%w: pass %s draw %d: %v, uncached %v", errSpotCheck, p.id, i, r.Perf, want)
		}
	}
	return nil
}

// sampleLayers computes sample-cached's per-layer figures.
func sampleLayers(tr *tracer, passes []samplePass, res *result) map[string]float64 {
	sum := summarize(tr.snapshot())
	l := map[string]float64{}
	draws := float64(res.draws)
	next := sum.stat("search.next")
	l["search.next_us"] = perItem(next.total, next.items) / 1e3
	l["search.draws"] = float64(next.items)
	batch := sum.stat("netdps.batch")
	l["netdps.batch_us"] = perItem(batch.total, batch.items) / 1e3
	l["netdps.measures"] = float64(batch.items + sum.stat("netdps.measure").count)
	chunks := sum.stat("core.batch")
	l["core.cache_self_us"] = float64(chunks.self) / draws / 1e3
	var l1, probes, misses, l2 float64
	for _, p := range passes {
		l1 += p.l1Hits()
		probes += p.probes
		misses += p.misses
		l2 += p.l2Hits
	}
	l["core.cache_l1_hit_ratio"] = l1 / draws
	if probes > 0 {
		l["core.batch_dedup_ratio"] = (probes - misses) / probes
	}
	get, put := sum.stat("cas.get"), sum.stat("cas.put")
	l["cas.get_us"] = perItem(get.total, get.count) / 1e3
	l["cas.gets"] = float64(get.count)
	l["cas.put_us"] = perItem(put.total, put.count) / 1e3
	l["cas.puts"] = float64(put.count)
	if get.count > 0 {
		l["cas.disk_hit_ratio"] = l2 / float64(get.count)
	}
	l["draws_to_cert"] = sampleDraws
	l["trace.unaccounted_frac"] = float64(sum.rootSelf) / float64(sum.rootTotal)

	// The first pass's tier traffic repeats exactly at one seed.
	gets, puts := 0, 0
	for _, s := range tr.snapshot() {
		if s.track == passes[0].id {
			switch s.name {
			case "cas.get":
				gets++
			case "cas.put":
				puts++
			}
		}
	}
	res.counts["pass0.cas_gets"] = float64(gets)
	res.counts["pass0.cas_puts"] = float64(puts)
	return l
}

// tracedStore times the cas store's Get and Put as core's cache calls
// them.
type tracedStore struct {
	store *cas.Store
	ref   spanRef
}

func (s tracedStore) Get(key string) (float64, bool) {
	id := s.ref.tr.begin("cas.get", s.ref.id, s.ref.track)
	perf, ok := s.store.Get(key)
	s.ref.tr.end(id, 1)
	return perf, ok
}

func (s tracedStore) Put(key string, perf float64) error {
	id := s.ref.tr.begin("cas.put", s.ref.id, s.ref.track)
	err := s.store.Put(key, perf)
	s.ref.tr.end(id, 1)
	return err
}

func (s tracedStore) Bytes() int64 { return s.store.Bytes() }

// tracedTestbed times the testbed's batch path (and its serial path, for
// duplicates of a failed class) under the cache.
type tracedTestbed struct {
	tb  *netdps.Testbed
	ref spanRef
}

func (t tracedTestbed) MeasureBatch(as []assign.Assignment) ([]float64, []error) {
	id := t.ref.tr.begin("netdps.batch", t.ref.id, t.ref.track)
	perfs, errs := t.tb.MeasureBatch(as)
	t.ref.tr.end(id, len(as))
	return perfs, errs
}

func (t tracedTestbed) MeasureContext(_ context.Context, a assign.Assignment) (float64, error) {
	id := t.ref.tr.begin("netdps.measure", t.ref.id, t.ref.track)
	perf, err := t.tb.MeasureAnalytic(a)
	t.ref.tr.end(id, 1)
	return perf, err
}
