package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"optassign/internal/apps"
	"optassign/internal/campaign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/obs"
	"optassign/internal/search"
)

// certifyApps are certify-local's benchmarks, each with 8 pipeline
// instances (24 tasks). The timed campaigns run the first; the certifying
// unit runs one campaign of each.
var certifyApps = []string{"IPFwd-L1", "Aho-Corasick"}

const certifyInstances = 8

// runCertifyLocal runs local, journaled, checkpointed campaigns one at a
// time on the serial path until the timed phase is over.
func runCertifyLocal(ctx context.Context, o options) (*result, error) {
	res := &result{}
	var suite []apps.App
	for rep := 0; rep < setupReps; rep++ {
		clock := startSteal()
		suite = suite[:0]
		for _, name := range certifyApps {
			app, err := apps.ByName(name, netgen.DefaultProfile())
			if err != nil {
				return nil, err
			}
			tb, err := netdps.NewTestbed(app, certifyInstances, netdps.WithSeed(search.RepSeed(o.seed, warmRep)))
			if err != nil {
				return nil, err
			}
			if err := warmUp(ctx, core.AsContextRunner(tb), tb.Machine.Topo, tb.TaskCount(), o.seed, 1); err != nil {
				return nil, err
			}
			suite = append(suite, app)
		}
		res.setup = append(res.setup, clock.unstolen())
	}
	var classes []*classCounter
	source := func(app apps.App, seed int64, ct *campaignTracer) (measureSource, error) {
		tb, err := netdps.NewTestbed(app, certifyInstances, netdps.WithSeed(seed))
		if err != nil {
			return measureSource{}, err
		}
		src := measureSource{name: app.Name(), topo: tb.Machine.Topo, tasks: tb.TaskCount(), runner: core.AsContextRunner(tb)}
		if ct != nil {
			cc := newClassCounter()
			classes = append(classes, cc)
			src.runner = tracedRunner{name: "netdps.measure", inner: src.runner, classes: cc}
		}
		return src, nil
	}
	w := campaignWorkload{
		source: func(_ int, seed int64, ct *campaignTracer) (measureSource, error) {
			return source(suite[0], seed, ct)
		},
		unit: func(i int, seed int64, ct *campaignTracer) (measureSource, error) {
			return source(suite[i%len(suite)], seed, ct)
		},
	}
	w.layers = func(sum traceSummary) {
		draws, repeats := 0, 0
		for _, cc := range classes {
			draws += cc.draws
			repeats += cc.repeats
		}
		if draws > 0 {
			res.layers["core.cache_l1_hit_ratio"] = float64(repeats) / float64(draws)
		}
	}
	return res, runCampaigns(ctx, o, res, w)
}

// runFleetParallel runs journaled campaigns one at a time through
// core.IterateParallel over a two-worker replicated pool on a
// remote.ClientPool of two loopback servers.
func runFleetParallel(ctx context.Context, o options) (*result, error) {
	res := &result{}
	var f *fleet
	for rep := 0; rep < setupReps; rep++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		clock := startSteal()
		var err error
		if f, err = startFleet(o.seed); err != nil {
			return nil, err
		}
		if err := f.warmUp(ctx, o.seed); err != nil {
			f.close()
			return nil, err
		}
		res.setup = append(res.setup, clock.unstolen())
	}
	defer f.close()

	var pm *core.PoolMetrics
	if o.trace {
		pm = core.NewPoolMetrics(obs.NewRegistry(), fleetServers)
	}
	var cts []*campaignTracer
	hello := f.pool.Hello()
	mk := func(_ int, _ int64, ct *campaignTracer) (measureSource, error) {
		runner := core.ContextRunner(f.pool)
		if ct != nil {
			cts = append(cts, ct)
			runner = tracedRunner{name: "remote.roundtrip", inner: runner, after: ct.measured}
		}
		pool, err := core.NewReplicatedPool(runner, fleetServers)
		if err != nil {
			return measureSource{}, err
		}
		pool.Instrument(pm)
		return measureSource{name: hello.Name, topo: hello.Topology, tasks: hello.Tasks, pool: pool}, nil
	}
	err := runCampaigns(ctx, o, res, campaignWorkload{source: mk, trace: f.trace, layers: func(sum traceSummary) {
		busy := 0.0
		for _, c := range pm.BusySeconds {
			busy += c.Value()
		}
		res.layers["core.pool_busy_ratio"] = busy / (fleetServers * res.wall)
		var waits []int64
		for _, ct := range cts {
			waits = append(waits, ct.commitWaits()...)
		}
		res.layers["core.pool_commit_wait_us"] = meanNs(waits) / 1e3
		server := sum.stat("remote.server")
		res.layers["remote.server_us"] = perItem(server.total, server.count) / 1e3
		res.layers["remote.wire_us"] = res.layers["remote.roundtrip_us"] - res.layers["remote.server_us"]
		res.layers["netdps.measure_us"] = res.layers["remote.server_us"]
		res.layers["netdps.measures"] = float64(server.count)
	}})
	if err != nil {
		return res, err
	}
	return res, f.close()
}

// campaignSourceFunc builds campaign i's measurement source; ct is nil
// when the campaign is not traced.
type campaignSourceFunc func(i int, seed int64, ct *campaignTracer) (measureSource, error)

// campaignWorkload is what certify-local and fleet-parallel plug into
// runCampaigns.
type campaignWorkload struct {
	source campaignSourceFunc
	// unit, when set, builds the certifying unit's sources in place of
	// source.
	unit campaignSourceFunc
	// trace, when set, receives the timed phase's tracer before the phase
	// starts.
	trace func(tr *tracer)
	// layers, when set, adds the workload's own per-layer figures.
	layers func(sum traceSummary)
}

// runCampaigns is what certify-local and fleet-parallel share. The timed
// phase runs schedule campaigns 0, 1, 2, ... one at a time, campaign i
// with seed search.RepSeed(seed, i), until the phase is over; the first
// always runs to its end and the last is cut at the deadline. After it,
// untimed, the reference unit's certifying campaigns give draws_to_cert.
// A traced run first runs campaign 0 untraced, for the tracing overhead.
func runCampaigns(ctx context.Context, o options, res *result, w campaignWorkload) error {
	var tr *tracer
	var refSecs float64
	if o.trace {
		ref, _, err := campaignLoop(ctx, o, "ref", schedulePlan, 0, 1, w.source, nil)
		if err != nil {
			return err
		}
		if err := checkCampaigns(ref, res); err != nil {
			return err
		}
		refSecs = ref[0].secs
		tr = newTracer()
		if w.trace != nil {
			w.trace(tr)
		}
	}
	clock, cpu := startSteal(), cpuTime()
	runs, wall, err := campaignLoop(ctx, o, "c", schedulePlan, o.seconds, 1, w.source, tr)
	res.cpu, res.unstolen = (cpuTime() - cpu).Seconds(), clock.unstolen()
	if err != nil {
		return err
	}
	res.wall = wall.Seconds()
	for _, c := range runs {
		res.draws += c.draws()
		res.attempted += c.draws() + 1
		res.failed += len(c.res.Quarantined)
		if !c.cut {
			res.campaigns = append(res.campaigns, c.unstolen)
		}
	}
	if err := checkCampaigns(runs, res); err != nil {
		return err
	}

	unitSource := w.unit
	if unitSource == nil {
		unitSource = w.source
	}
	unit, _, err := campaignLoop(ctx, o, "cert", certifyPlan, 0, unitCampaigns, unitSource, nil)
	if err != nil {
		return err
	}
	if err := checkCampaigns(unit, res); err != nil {
		return err
	}
	for _, c := range unit {
		res.drawsToCert += c.draws()
		res.attempted += c.draws() + 1
		res.failed += len(c.res.Quarantined)
	}
	res.counts = map[string]float64{"draws_to_cert": float64(res.drawsToCert), "c0000.draws": float64(runs[0].draws())}

	if tr != nil {
		sum := summarize(tr.snapshot())
		res.layers = campaignLayers(sum, tr, runs, res)
		res.layers["trace.overhead_frac"] = runs[0].secs/refSecs - 1
		if w.layers != nil {
			w.layers(sum)
		}
		if err := writeTrace(tr, o, res); err != nil {
			return err
		}
	}
	return nil
}

// campaignLoop runs campaigns of plan p until the phase (of length until)
// is over, always running the first minRuns to their end.
func campaignLoop(ctx context.Context, o options, prefix string, p plan, until time.Duration, minRuns int, mk campaignSourceFunc, tr *tracer) ([]campaignRun, time.Duration, error) {
	dir := filepath.Join(o.dir, prefix)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	deadline := start.Add(until)
	var runs []campaignRun
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		cctx, cancel := ctx, context.CancelFunc(func() {})
		if i >= minRuns {
			cctx, cancel = context.WithDeadline(ctx, deadline)
		}
		seed := search.RepSeed(o.seed, i)
		c, err := runCampaign(cctx, dir, fmt.Sprintf("%s%04d", prefix, i), seed, p,
			func(ct *campaignTracer) (measureSource, error) { return mk(i, seed, ct) }, tr)
		cancel()
		if err != nil {
			return runs, 0, err
		}
		runs = append(runs, c)
	}
	return runs, time.Since(start), nil
}

// checkCampaigns verifies every campaign's outputs and removes its
// journal and checkpoint.
func checkCampaigns(runs []campaignRun, res *result) error {
	certified := 0
	for _, c := range runs {
		if err := checkCampaign(c); err != nil {
			return err
		}
		if c.res.Satisfied {
			certified++
		}
		os.Remove(c.journal)
		os.Remove(campaign.EstimatorCheckpointPath(c.journal))
	}
	res.passed("%d journals reload to their campaigns' draw counts", len(runs))
	res.passed("%d certified campaigns: gap within target and UPB bitwise equal to evt.Analyze over the journal", certified)
	return nil
}

var (
	errJournalMismatch = errors.New("journal disagrees with the campaign result")
	errGapAboveTarget  = errors.New("certified gap above the target")
	errUPBMismatch     = errors.New("final UPB differs from evt.Analyze over the journal")
)

// checkCampaign verifies one campaign against its journal: the journal
// reloads to the result's draw count; a certified campaign's gap,
// recomputed from the journal, is within the target; and its final UPB is
// bitwise equal to a from-scratch evt.Analyze of the journal's values.
func checkCampaign(c campaignRun) error {
	st, err := campaign.LoadJournal(c.journal)
	if err != nil {
		return fmt.Errorf("campaign %s: %w", c.id, err)
	}
	if st.Draws != c.draws() || len(st.Results) != c.res.Samples {
		return fmt.Errorf("%w: %s journals %d draws (%d measured), the result says %d (%d measured)",
			errJournalMismatch, c.id, st.Draws, len(st.Results), c.draws(), c.res.Samples)
	}
	if !c.res.Satisfied {
		return nil
	}
	est, err := core.EstimateOptimal(core.Perfs(st.Results), evt.POTOptions{})
	if err != nil {
		return fmt.Errorf("campaign %s: re-analyzing the journal: %w", c.id, err)
	}
	if est.HeadroomHiPct > c.plan.lossPct {
		return fmt.Errorf("%w: %s certified at %.4f%% > %.2f%%", errGapAboveTarget, c.id, est.HeadroomHiPct, c.plan.lossPct)
	}
	if math.Float64bits(est.Optimal) != math.Float64bits(c.res.Final.Optimal) ||
		math.Float64bits(est.Hi) != math.Float64bits(c.res.Final.Hi) {
		return fmt.Errorf("%w: %s: %v (hi %v) vs %v (hi %v)", errUPBMismatch, c.id,
			c.res.Final.Optimal, c.res.Final.Hi, est.Optimal, est.Hi)
	}
	return nil
}

// campaignLayers computes the per-layer figures every journaled-campaign
// workload shares from its trace.
func campaignLayers(sum traceSummary, tr *tracer, runs []campaignRun, res *result) map[string]float64 {
	l := map[string]float64{}
	next := sum.stat("search.next")
	l["search.next_us"] = perItem(next.total, next.count) / 1e3
	l["search.draws"] = float64(next.count)
	measure := sum.stat("netdps.measure")
	l["netdps.measure_us"] = perItem(measure.total, measure.count) / 1e3
	l["netdps.measures"] = float64(measure.count)
	commit := sum.stat("campaign.commit")
	l["campaign.commit_us"] = perItem(commit.self, commit.count) / 1e3
	l["campaign.commits"] = float64(commit.count)
	ckpt := sum.stat("campaign.checkpoint")
	l["campaign.checkpoint_ms"] = perItem(ckpt.total, ckpt.count) / 1e6
	l["campaign.checkpoints"] = float64(ckpt.count)
	refit := sum.stat("evt.refit")
	l["evt.refit_ms"] = perItem(refit.total, refit.count) / 1e6
	l["evt.refits"] = float64(refit.count)
	rt := sum.stat("remote.roundtrip")
	l["remote.roundtrip_us"] = perItem(rt.total, rt.count) / 1e3
	l["draws_to_cert"] = float64(res.drawsToCert)
	l["trace.unaccounted_frac"] = float64(sum.rootSelf) / float64(sum.rootTotal)

	// The first timed campaign's draws repeat exactly at one seed.
	first := 0
	for _, sp := range tr.snapshot() {
		if sp.name == "search.next" && sp.track == runs[0].id {
			first++
		}
	}
	res.counts["c0000.search_draws"] = float64(first)
	return l
}

// perItem divides a total in ns by a count, or returns 0 for no items.
func perItem(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func meanNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += float64(x)
	}
	return t / float64(len(xs))
}

// writeTrace saves the run's spans under .bench_build/traces/.
func writeTrace(tr *tracer, o options, res *result) error {
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", o.name, o.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	res.passed("spans written to %s", path)
	return nil
}
