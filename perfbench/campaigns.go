package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"optassign/internal/assign"
	"optassign/internal/campaign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/search"
	"optassign/internal/t2"
)

// This file runs the journaled, checkpointed campaigns of certify-local
// and fleet-parallel: the serial path (core.IterateContext behind
// campaign.JournalRunner, as optassign and campaignd take it) and the
// parallel path (core.IterateParallel over a core.PoolRunner committing
// through Journal.Commit, as optassign -connect a,b takes it).

// plan is a campaign's stopping rule: the acceptable loss and the draw
// budget. Every campaign starts from the paper's schedule: a first fit at
// 1,000 draws, then a refit every 100.
type plan struct {
	lossPct    float64
	maxSamples int
}

var (
	// certifyPlan is the certificate the reference unit's campaigns seek;
	// most of them reach it before the budget.
	certifyPlan = plan{lossPct: 1.0, maxSamples: 8000}
	// schedulePlan is the timed campaigns' rule. Its 0.01% target is out
	// of reach, so each campaign runs the whole schedule to its budget,
	// refits and checkpoints included, and every timed campaign of every
	// run costs the same: the time a certificate costs at that many draws,
	// without the luck of when the stopping rule fires.
	schedulePlan = plan{lossPct: 0.01, maxSamples: 10000}
)

// unitCampaigns is how many certifying campaigns make up the reference
// unit; draws_to_cert sums their draws.
const unitCampaigns = 2

// measureSource is one campaign's measurement source.
type measureSource struct {
	name   string // benchmark name for the journal header
	topo   t2.Topology
	tasks  int
	runner core.ContextRunner // the serial path's source
	pool   *core.PoolRunner   // when set, the parallel path's source
}

// campaignRun is one finished (or cut) campaign.
type campaignRun struct {
	id      string
	plan    plan
	journal string
	res     core.IterResult
	cut     bool // stopped by the end of the timed phase
	secs    float64
	// unstolen is secs scaled by the share the machine did not steal.
	unstolen float64
}

func (c campaignRun) draws() int { return c.res.Samples + len(c.res.Quarantined) }

// runCampaign runs one journaled campaign to its end, or until ctx ends.
// mk builds its measurement source; its ct is nil when tr is.
func runCampaign(ctx context.Context, dir, id string, seed int64, p plan, mk func(ct *campaignTracer) (measureSource, error), tr *tracer) (campaignRun, error) {
	clock := startSteal()
	out := campaignRun{id: id, plan: p, journal: filepath.Join(dir, id+".journal")}
	var ct *campaignTracer
	if tr != nil {
		ct = newCampaignTracer(tr, id)
		ctx = withSpan(ctx, tr, ct.root, id)
	}
	src, err := mk(ct)
	if err != nil {
		return out, err
	}
	hdr := campaign.JournalHeader{Benchmark: src.name, Topo: src.topo, Tasks: src.tasks, Seed: seed}
	j, err := campaign.CreateJournal(out.journal, hdr)
	if err != nil {
		return out, err
	}
	defer j.Close()
	ckpt := campaign.EstimatorCheckpointPath(out.journal)
	cfg := core.IterConfig{
		Topo:          src.topo,
		Tasks:         src.tasks,
		AcceptLossPct: p.lossPct,
		MaxSamples:    p.maxSamples,
		Seed:          seed,
		OnRefit: func(st evt.StreamState) error {
			return campaign.SaveEstimatorCheckpoint(ckpt, st)
		},
	}
	// The serial path journals through runner, the parallel path through
	// commit.
	runner := core.ContextRunner(campaign.JournalRunner{Journal: j, Runner: src.runner})
	commit := core.CommitFunc(j.Commit)
	if ct != nil {
		cfg.Strategy = tracedStrategy{Strategy: search.Uniform{}, ct: ct}
		cfg.OnRefit = ct.refit(cfg.OnRefit)
		runner = tracedRunner{name: "campaign.commit", inner: runner, after: ct.committed}
		commit = ct.commit(commit)
	}

	if src.pool != nil {
		out.res, err = core.IterateParallel(ctx, cfg, src.pool, commit)
	} else {
		out.res, err = core.IterateContext(ctx, cfg, runner)
	}
	out.secs, out.unstolen = time.Since(clock.at).Seconds(), clock.unstolen()
	if ct != nil {
		tr.end(ct.root, out.draws())
	}
	switch {
	case err == nil, errors.Is(err, core.ErrBudgetExhausted):
	case ctx.Err() != nil:
		// The timed phase ended mid-campaign. A remote measurement torn
		// down by the cancellation surfaces as a transport error; either
		// way everything committed before the cut is journaled.
		out.cut = true
	default:
		return out, fmt.Errorf("campaign %s: %w", id, err)
	}
	if err := j.Close(); err != nil {
		return out, fmt.Errorf("campaign %s: closing journal: %w", id, err)
	}
	return out, nil
}

// campaignTracer wraps one campaign's calls into its layers in spans.
type campaignTracer struct {
	tr   *tracer
	root int
	id   string
	// lastCommit is when the latest commit finished: an estimation round's
	// refit runs from there to the OnRefit callback.
	lastCommit atomic.Int64
	// done holds when each in-flight draw's measurement completed, keyed
	// by its assignment's context slice, so the in-order commit can tell
	// how long the draw waited to be committed.
	mu    sync.Mutex
	done  map[*int]int64
	waits []int64
}

func newCampaignTracer(tr *tracer, id string) *campaignTracer {
	return &campaignTracer{tr: tr, id: id, root: tr.begin("campaign", -1, id), done: make(map[*int]int64)}
}

// committed notes the end of a serial-path commit.
func (ct *campaignTracer) committed(_ assign.Assignment, end int64) { ct.lastCommit.Store(end) }

// refit wraps the OnRefit hook: the refit span runs from the round's last
// commit to the callback, and the checkpoint save is a span of its own.
func (ct *campaignTracer) refit(save func(evt.StreamState) error) func(evt.StreamState) error {
	return func(st evt.StreamState) error {
		now := ct.tr.now()
		ct.tr.add(span{name: "evt.refit", start: ct.lastCommit.Load(), end: now, parent: ct.root, track: ct.id, n: 1})
		id := ct.tr.begin("campaign.checkpoint", ct.root, ct.id)
		err := save(st)
		ct.lastCommit.Store(ct.tr.end(id, 1))
		return err
	}
}

// commit wraps the parallel path's in-order commit.
func (ct *campaignTracer) commit(inner core.CommitFunc) core.CommitFunc {
	return func(a assign.Assignment, perf float64, err error) error {
		if len(a.Ctx) > 0 {
			now := ct.tr.now()
			ct.mu.Lock()
			if done, ok := ct.done[&a.Ctx[0]]; ok {
				ct.waits = append(ct.waits, now-done)
				delete(ct.done, &a.Ctx[0])
			}
			ct.mu.Unlock()
		}
		id := ct.tr.begin("campaign.commit", ct.root, ct.id)
		cerr := inner(a, perf, err)
		ct.lastCommit.Store(ct.tr.end(id, 1))
		return cerr
	}
}

// measured notes that a draw's measurement completed at end.
func (ct *campaignTracer) measured(a assign.Assignment, end int64) {
	if len(a.Ctx) == 0 {
		return
	}
	ct.mu.Lock()
	ct.done[&a.Ctx[0]] = end
	ct.mu.Unlock()
}

// commitWaits returns the recorded commit waits in ns.
func (ct *campaignTracer) commitWaits() []int64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return append([]int64(nil), ct.waits...)
}

// tracedStrategy times the strategy's Next, assignment generation
// included.
type tracedStrategy struct {
	search.Strategy
	ct *campaignTracer
}

func (s tracedStrategy) Next(rng *rand.Rand, h *search.History) (search.Draw, error) {
	id := s.ct.tr.begin("search.next", s.ct.root, s.ct.id)
	d, err := s.Strategy.Next(rng, h)
	s.ct.tr.end(id, 1)
	return d, err
}

// tracedRunner times a measurement runner in spans named name. The
// parent span comes from ctx (or from root when ctx carries none), and the
// runner beneath sees the new span as its parent. Without a span in
// either place the call is not traced.
type tracedRunner struct {
	name  string
	inner core.ContextRunner
	root  *spanRef
	// after, when set, receives each measured assignment and the span's
	// end time.
	after func(a assign.Assignment, end int64)
	// classes, when set, counts draws whose canonical class was seen
	// before.
	classes *classCounter
}

func (r tracedRunner) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	ref, ok := spanOf(ctx)
	if !ok && r.root != nil {
		ref, ok = *r.root, true
	}
	if !ok {
		return r.inner.MeasureContext(ctx, a)
	}
	id := ref.tr.begin(r.name, ref.id, ref.track)
	perf, err := r.inner.MeasureContext(withSpan(ctx, ref.tr, id, ref.track), a)
	end := ref.tr.end(id, 1)
	if r.after != nil {
		r.after(a, end)
	}
	if r.classes != nil {
		r.classes.see(a)
	}
	return perf, err
}

// classCounter counts draws whose canonical class an earlier draw already
// had: the hits an L1 cache in front of the testbed would serve. It
// records outside every span, on the serial path only.
type classCounter struct {
	seen    map[string]bool
	draws   int
	repeats int
}

func newClassCounter() *classCounter { return &classCounter{seen: make(map[string]bool)} }

func (c *classCounter) see(a assign.Assignment) {
	k := a.CanonicalKey()
	c.draws++
	if c.seen[k] {
		c.repeats++
		return
	}
	c.seen[k] = true
}

// warmDraws is how many draws each set-up measures before timing starts,
// so the timed phase begins with warm caches, connections and heap.
const warmDraws = 1000

// warmRep derives the warm-up draws' stream from the workload seed.
const warmRep = testbedRep + 3

// warmUp measures warmDraws uniform draws through r on workers workers.
func warmUp(ctx context.Context, r core.ContextRunner, topo t2.Topology, tasks int, seed int64, workers int) error {
	as, err := assign.Sample(rand.New(rand.NewSource(search.RepSeed(seed, warmRep))), topo, tasks, warmDraws)
	if err != nil {
		return err
	}
	pool, err := core.NewReplicatedPool(r, workers)
	if err != nil {
		return err
	}
	for _, o := range pool.MeasureBatch(ctx, as) {
		if o.Err != nil {
			return fmt.Errorf("warming up: %w", o.Err)
		}
	}
	return nil
}
