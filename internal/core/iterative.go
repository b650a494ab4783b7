package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/evt"
	"optassign/internal/obs"
	"optassign/internal/search"
	"optassign/internal/t2"
)

// IterConfig parameterizes the iterative task-assignment algorithm of §5.3
// (Fig. 13).
type IterConfig struct {
	Topo  t2.Topology
	Tasks int
	// AcceptLossPct is the customer's requirement X: the algorithm stops
	// once the best observed assignment is within X% of the estimated
	// optimal system performance.
	AcceptLossPct float64
	// Ninit and Ndelta are the initial sample size and the per-iteration
	// increment. The paper's case study uses 1000 and 100; those are the
	// defaults.
	Ninit, Ndelta int
	// MaxSamples bounds the total number of executed assignments (default
	// 20·Ninit) so an unreachable requirement terminates.
	MaxSamples int
	// POT configures the estimator (threshold rule and confidence level).
	POT evt.POTOptions
	// Seed makes the sampled assignments reproducible. The draw stream
	// deliberately seeds its RNG with this raw value — the journal header
	// records it and resumable journals pin the historical stream; every
	// *derived* stream in the project goes through search.RepSeed instead.
	Seed int64
	// Strategy generates the campaign's draws. nil runs the paper's
	// uniform baseline (search.Uniform), whose draw stream — and therefore
	// whose journals — are byte-identical to the historical
	// assign.Sample-based loop. A strategy with TailSafe() == false runs
	// without the EVT stopping rule: the campaign hunts a good assignment
	// until MaxSamples and always ends in ErrBudgetExhausted.
	Strategy search.Strategy
	// ResumeLog is an interrupted campaign's full per-draw outcome log in
	// draw order (campaign.JournalState.Log), and the only resume input.
	// The resumed campaign replays it through the strategy, which, given
	// the same Seed, rebuilds its internal state and continues the exact
	// assignment sequence the interrupted one was executing. Each
	// replayed draw is verified against the journaled assignment — a
	// mismatch means the journal was produced by a different strategy,
	// seed or configuration. The logged measurements seed the sample and
	// the logged quarantines keep counting toward Ninit and MaxSamples, so
	// a resumed run re-measures nothing it already has and its draw and
	// estimation schedule matches the uninterrupted one exactly.
	ResumeLog []ResumeDraw
	// Events receives one "round" event per estimation round (§5.3
	// Fig. 13 iteration): sample sizes, the best observed performance,
	// ÛPB with its confidence interval, and the convergence gap. This is
	// what live progress displays subscribe to. nil disables.
	Events obs.EventSink
	// Metrics publishes the same per-round state as gauges for scraping.
	// nil disables. Neither hook influences the campaign: draws, RNG
	// consumption and results are identical with observability on or off.
	Metrics *IterMetrics
	// SearchMetrics counts draws, exploration draws and best-improvements,
	// labeled by strategy. nil disables; never influences the campaign.
	SearchMetrics *search.Metrics
	// StreamMetrics publishes the streaming tail estimator's live state —
	// committed observations, current threshold exceedances, UPB point and
	// CI width — updated per committed batch, not just per estimation
	// round. nil disables; never influences the campaign.
	StreamMetrics *obs.StreamMetrics
	// OnRefit runs after every scheduled refit; a journaled campaign
	// syncs its journal there, once per estimation round. It runs on a
	// second goroutine while the next round is measured and committed, so
	// any state it shares with the runner or the commit chain must be
	// synchronized. At most one call is in flight, and calls arrive in
	// refit order. An error, wrapped as "core: refit hook at <n> samples"
	// with n the sample count of the hook's own refit, aborts the campaign
	// after the round measured beside the failed call — at most Ndelta
	// draws past it — or at once if that refit ended the campaign. The
	// wording names no operation because the caller chooses the hook:
	// campaign.Run's is a journal sync. The estimator state it receives,
	// a Snapshot of its own, is kept only for the benchmark module, which
	// persists it; the argument goes with the benchmark revision.
	OnRefit func(evt.StreamState) error
}

// ResumeDraw is one journaled draw of an interrupted campaign: the
// assignment, and either its measured performance or the fact it was
// quarantined.
type ResumeDraw struct {
	Assignment  assign.Assignment
	Perf        float64
	Quarantined bool
}

func (c IterConfig) withDefaults() IterConfig {
	if c.Ninit <= 0 {
		c.Ninit = 1000
	}
	if c.Ndelta <= 0 {
		c.Ndelta = 100
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 20 * c.Ninit
	}
	return c
}

// IterStep records one round of the algorithm: the sample size after the
// round's measurements and the resulting estimate.
type IterStep struct {
	Samples  int
	Estimate Estimate
}

// IterResult is the algorithm's final outcome.
type IterResult struct {
	// Best is the best assignment observed across all samples, with its
	// measured performance.
	Best SampleResult
	// Final is the last estimate (the one that satisfied the requirement,
	// or the state at MaxSamples).
	Final Estimate
	// Samples is the total number of assignments measured successfully.
	// Quarantined assignments are not included: the §3.1 capture
	// probability of the campaign is CaptureProbability(Samples, p).
	Samples int
	// Quarantined lists the assignments abandoned by a resilient runner
	// after exhausting their retry budget. They consumed draws (and
	// testbed time) but contribute nothing to the sample.
	Quarantined []Skipped
	// Satisfied reports whether the acceptable-loss requirement was met.
	Satisfied bool
	// History holds every round's estimate, for convergence studies.
	History []IterStep
}

// CaptureProb returns the §3.1 probability that this campaign's measured
// sample contains at least one of the best-performing topPct% of all
// assignments. It deliberately counts only successful measurements, so
// quarantined failures do not inflate the claimed coverage.
func (r IterResult) CaptureProb(topPct float64) (float64, error) {
	return CaptureProbability(r.Samples, topPct)
}

// ErrBudgetExhausted is returned when MaxSamples assignments have been
// executed without meeting the requirement; the partial result is still
// returned alongside it.
var ErrBudgetExhausted = errors.New("core: sample budget exhausted before reaching acceptable loss")

// IterateContext runs the §5.3 algorithm on runner:
//
//	Step 1: execute Ninit random assignments and measure each;
//	Step 2: estimate the optimal system performance from the sample;
//	Step 3: if the best observed assignment is within AcceptLossPct of the
//	        estimate, stop;
//	Step 4: otherwise execute Ndelta more random assignments, extend the
//	        sample, and repeat from Step 2.
//
// Larger samples both raise the chance of capturing a top assignment
// (§3.1) and tighten the estimate (§5.2), so the loop converges from both
// sides.
//
// With cfg.Strategy set, "random" in Steps 1 and 4 becomes whatever the
// strategy proposes; the estimate in Step 2 is fitted to the strategy's
// tail-eligible draws only, while Step 3 compares against the best
// assignment observed anywhere.
//
// Measurements run under ctx: cancellation stops the campaign at a
// measurement boundary, returning everything measured so far alongside
// ctx's error. Quarantined assignments are skipped rather than fatal, and
// cfg.ResumeLog restarts an interrupted campaign where it stopped instead
// of from zero.
func IterateContext(ctx context.Context, cfg IterConfig, runner ContextRunner) (IterResult, error) {
	if runner == nil {
		return IterResult{}, fmt.Errorf("core: nil runner")
	}
	return IteratePool(ctx, cfg, onePool(runner), BatchOptions{}, nil)
}

// IteratePool runs the §5.3 loop with every sampling round executed by
// the one measurer on pool: the strategy draws each round serially from
// the campaign RNG, the pool measures it in chunks of opts.Size draws
// (one draw when unset) — inline on one worker, fanned out on several —
// and commit observes the outcomes in draw order. Completed rounds are
// committed to the search history as units. A strategy sees outcomes
// only at those commits, so with a tail-safe strategy the next round is
// drawn on a second goroutine while the committed round is estimated;
// when the stopping rule ends the campaign that round is dropped, and
// neither measured, committed nor counted. Each refit's OnRefit hook runs
// on a goroutine of its own beside the next round's measurements and
// commits, and is joined before that round's refit. Given the same IterConfig
// (seed included) and a deterministic measurement source, every worker
// count and chunk size visits the identical assignment sequence and
// produces the identical result and commit stream. IterateContext and
// IterateParallel are fixed-option wrappers over it.
func IteratePool(ctx context.Context, cfg IterConfig, pool *PoolRunner, opts BatchOptions, commit CommitFunc) (IterResult, error) {
	if pool == nil {
		return IterResult{}, fmt.Errorf("core: nil pool")
	}
	cfg = cfg.withDefaults()
	if cfg.AcceptLossPct <= 0 {
		return IterResult{}, fmt.Errorf("core: acceptable loss must be positive, got %v", cfg.AcceptLossPct)
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = search.Uniform{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hist := search.NewHistory(cfg.Topo, cfg.Tasks)

	var res IterResult
	// results and tailPerfs start as the resumed prefix: its measured
	// draws, and the estimator's sample among them (successful, non-Explore
	// draws). priorQuarantined counts the prefix draws that were
	// quarantined rather than measured. They are gone, but they consumed
	// draws, so they keep counting toward Ninit and MaxSamples exactly as
	// they did before the interruption; otherwise a resumed campaign draws
	// extra assignments and diverges from the uninterrupted sequence.
	results, tailPerfs, err := replayResume(cfg, strategy, rng, hist)
	if err != nil {
		return IterResult{}, err
	}
	priorQuarantined := len(cfg.ResumeLog) - len(results)
	// stream maintains the estimator's sample incrementally: the order
	// statistics, exceedance counts and best-observed update per committed
	// draw, and each estimation round is a scheduled refit of the same
	// pipeline Analyze runs — bitwise-identical by construction, proven by
	// the differential suite in internal/evt. A resumed campaign feeds
	// the replayed sample in journal order, reproducing the uninterrupted
	// stream exactly.
	stream := evt.NewStreamEstimator(evt.StreamOptions{POT: cfg.POT})
	if err := stream.ObserveAll(tailPerfs); err != nil {
		return IterResult{}, fmt.Errorf("core: resumed sample: %w", err)
	}
	publishStream := func() {
		m := cfg.StreamMetrics
		if m == nil {
			return
		}
		l := stream.Live()
		m.Observed.Set(float64(l.N))
		m.Best.Set(l.Best)
		m.TailExceedances.Set(float64(l.TailCount))
		m.TailMass.Set(l.TailMass)
		m.RefitCount.Set(float64(l.RefitCount))
		if l.Fitted {
			m.UPBPoint.Set(l.UPB)
			m.UPBCIWidth.Set(l.CIWidth())
		}
	}
	sm := cfg.SearchMetrics
	bestPerf, haveBest := 0.0, false
	if i := Best(results); i >= 0 {
		bestPerf, haveBest = results[i].Perf, true
	}
	drawn := func() int { return len(results) + len(res.Quarantined) + priorQuarantined }

	// draw proposes the next `add` assignments and pushes them to the
	// history. It reads and advances only the strategy, rng and hist, so
	// once a round is committed the next round's draws are fixed: the main
	// goroutine runs draw inline for the first round (and for strategies
	// without a refit to overlap), and on a second goroutine for every
	// later round while the previous round is estimated.
	draw := func(add int) drawnRound {
		r := drawnRound{base: hist.Len(), batch: make([]assign.Assignment, 0, add), explore: make([]bool, 0, add)}
		for i := 0; i < add; i++ {
			d, err := strategy.Next(rng, hist)
			if err != nil {
				r.err = fmt.Errorf("core: strategy %s: %w", strategy.Name(), err)
				return r
			}
			hist.Push(d)
			r.batch = append(r.batch, d.Assignment)
			r.explore = append(r.explore, d.Explore)
		}
		return r
	}

	// collect consumes a drawn round: it counts the round's draws, then
	// measures them as one batch, committing it to the history when
	// complete. A round whose drawing failed returns the strategy's error
	// once its successful draws are counted, as the serial loop did.
	// lastAdded feeds the round event: Ninit on the first round, Ndelta
	// (or the budget remainder) afterwards.
	lastAdded := 0
	collect := func(r drawnRound) error {
		if sm != nil {
			sm.Draws.Add(float64(len(r.batch)))
			for _, e := range r.explore {
				if e {
					sm.Explore.Inc()
				}
			}
		}
		if r.err != nil {
			return r.err
		}
		base := r.base
		outs, err := pool.measure(ctx, r.batch, opts, commit)
		for i, o := range outs {
			hist.Resolve(base+i, o.Perf, o.Err != nil)
			if o.Err != nil {
				res.Quarantined = append(res.Quarantined, Skipped{Assignment: r.batch[i], Err: o.Err})
				continue
			}
			results = append(results, SampleResult{Assignment: r.batch[i], Perf: o.Perf})
			if !r.explore[i] {
				if serr := stream.Observe(o.Perf); serr != nil {
					return fmt.Errorf("core: draw %d: %w", base+i+1, serr)
				}
			}
			if !haveBest || o.Perf > bestPerf {
				bestPerf, haveBest = o.Perf, true
				if sm != nil {
					sm.Improved.Inc()
				}
			}
		}
		hist.Commit()
		publishStream()
		lastAdded = len(r.batch)
		return err
	}

	// fitAt walks the estimation schedule: Ninit, then +Ndelta per round,
	// with a final clamped fit at MaxSamples. A resumed campaign starts at
	// the first scheduled point not yet passed, so its batch boundaries —
	// and therefore the outcomes each strategy draw can see — line up with
	// the uninterrupted run's no matter where the interruption fell.
	fitAt := nextFitPoint(cfg, drawn())
	tailSafe := strategy.TailSafe()
	// ahead is the next round, drawn on a second goroutine while this
	// round is estimated. Until it is received the main goroutine leaves
	// the strategy, rng and hist alone. It is received before the next
	// round is measured and on every return, so no goroutine outlives the
	// call; a campaign that stops drops it unmeasured, unjournaled and
	// uncounted, as if it had never been drawn.
	var ahead chan drawnRound
	defer func() {
		if ahead != nil {
			<-ahead
		}
	}()
	// checkpoint carries the in-flight OnRefit call's error. The call
	// runs beside the next round and is joined after that round's
	// collect, before its refit, and on every return, so at most one is
	// in flight and none outlives the call. Its state is a Snapshot taken
	// before any further Observe: the hook shares nothing with the loop.
	var checkpoint chan error
	join := func() error {
		if checkpoint == nil {
			return nil
		}
		err := <-checkpoint
		checkpoint = nil
		return err
	}
	defer join()
	round := 0
	for {
		var err error
		if add := fitAt - drawn(); add > 0 {
			var r drawnRound
			if ahead != nil {
				r = <-ahead
				ahead = nil
			} else {
				r = draw(add)
			}
			err = collect(r)
		}
		// If the previous refit's checkpoint failed, the campaign stops
		// here, one round after it. Its error wins over this round's,
		// which the synchronous loop would never have reached.
		if herr := join(); herr != nil {
			err = herr
		}
		if err != nil {
			res.Samples = len(results)
			if len(results) > 0 {
				res.Best = results[Best(results)]
			}
			return res, err
		}
		res.Samples = len(results)
		if len(results) == 0 {
			return res, fmt.Errorf("core: every assignment of the initial sample was quarantined: %w", ErrQuarantined)
		}
		res.Best = results[Best(results)]
		round++
		if m := cfg.Metrics; m != nil {
			m.Rounds.Inc()
			m.Samples.Set(float64(len(results)))
			m.Quarantined.Set(float64(len(res.Quarantined)))
			m.BestObserved.Set(res.Best.Perf)
		}
		// The next fit point; a round that ends below the budget draws
		// towards it during this round's estimation.
		next := min(fitAt+cfg.Ndelta, cfg.MaxSamples)
		if !tailSafe {
			// No i.i.d. tail exists, so no estimate and no stopping rule:
			// the campaign hunts until the budget runs out.
			if cfg.Events != nil {
				cfg.Events.Emit(obs.Event{Name: "round", Fields: []obs.Field{
					{Key: "round", Value: round},
					{Key: "samples", Value: len(results)},
					{Key: "quarantined", Value: len(res.Quarantined)},
					{Key: "added", Value: lastAdded},
					{Key: "best", Value: res.Best.Perf},
					{Key: "tail_unsafe", Value: true},
				}})
			}
		} else {
			if drawn() < cfg.MaxSamples {
				// Step 4's draws see only the committed history, which
				// Step 2 does not change: draw them beside the refit.
				ch := make(chan drawnRound, 1)
				go func(add int) { ch <- draw(add) }(next - drawn())
				ahead = ch
			}
			// Step 2 is a scheduled refit of the streaming estimator: the
			// full threshold scan + MLE + Wilks interval on the maintained
			// order statistics — the same analysis, on the same sample, as
			// the historical from-scratch EstimateOptimalAgainst, with the
			// O(n log n) re-sort amortized away.
			rep, err := stream.Refit()
			var est Estimate
			if err == nil {
				est = estimateFromReport(rep, res.Best.Perf)
			}
			publishStream()
			if hook := cfg.OnRefit; hook != nil && (err == nil || errors.Is(err, evt.ErrUnboundedTail)) {
				ch := make(chan error, 1)
				go func(st evt.StreamState, n int) {
					herr := hook(st)
					if herr != nil {
						herr = fmt.Errorf("core: refit hook at %d samples: %w", n, herr)
					}
					ch <- herr
				}(stream.Snapshot(), len(results))
				checkpoint = ch
			}
			switch {
			case errors.Is(err, evt.ErrUnboundedTail):
				// The sample's tail is not yet distinguishable from an
				// unbounded one (ξ̂ >= 0), so the optimum cannot be bounded.
				// More observations sharpen the tail; keep sampling.
				if cfg.Events != nil {
					cfg.Events.Emit(obs.Event{Name: "round", Fields: []obs.Field{
						{Key: "round", Value: round},
						{Key: "samples", Value: len(results)},
						{Key: "quarantined", Value: len(res.Quarantined)},
						{Key: "added", Value: lastAdded},
						{Key: "best", Value: res.Best.Perf},
						{Key: "tail_unbounded", Value: true},
					}})
				}
			case err != nil:
				return res, fmt.Errorf("core: estimation at %d samples: %w", len(results), err)
			default:
				res.Final = est
				res.History = append(res.History, IterStep{Samples: len(results), Estimate: est})
				// Threshold on the conservative headroom: the requirement is
				// met only when even the 0.95-confidence upper bound on the
				// optimum is within the acceptable loss of the best observed
				// assignment.
				satisfied := est.HeadroomHiPct <= cfg.AcceptLossPct
				if m := cfg.Metrics; m != nil {
					m.UPB.Set(est.Optimal)
					m.UPBLo.Set(est.Lo)
					m.UPBHi.Set(est.Hi)
					m.HeadroomHiPct.Set(est.HeadroomHiPct)
					if satisfied {
						m.Satisfied.Set(1)
					}
				}
				if cfg.Events != nil {
					cfg.Events.Emit(obs.Event{Name: "round", Fields: []obs.Field{
						{Key: "round", Value: round},
						{Key: "samples", Value: len(results)},
						{Key: "quarantined", Value: len(res.Quarantined)},
						{Key: "added", Value: lastAdded},
						{Key: "best", Value: res.Best.Perf},
						{Key: "upb", Value: est.Optimal},
						{Key: "upb_lo", Value: est.Lo},
						{Key: "upb_hi", Value: est.Hi},
						{Key: "headroom_hi_pct", Value: est.HeadroomHiPct},
						{Key: "satisfied", Value: satisfied},
					}})
				}
				if satisfied {
					// A stop still waits for its round's checkpoint.
					if herr := join(); herr != nil {
						return res, herr
					}
					res.Satisfied = true
					return res, nil
				}
			}
		}
		// Quarantined draws count against the budget too: at a 100%
		// failure rate the loop must still terminate.
		if drawn() >= cfg.MaxSamples {
			if herr := join(); herr != nil {
				return res, herr
			}
			return res, ErrBudgetExhausted
		}
		fitAt = next
	}
}

// drawnRound is one round of strategy draws, pushed to the history but
// not yet measured: the assignments and their Explore flags from history
// index base on, and the strategy's error if drawing stopped short.
type drawnRound struct {
	base    int
	batch   []assign.Assignment
	explore []bool
	err     error
}

// nextFitPoint returns the first point of the estimation schedule
// (Ninit, Ninit+Ndelta, ..., clamped to MaxSamples) at or beyond `drawn`
// draws. A resumed campaign that died mid-batch finishes that batch
// before estimating, exactly as the uninterrupted run would have; one
// that died past the budget estimates once on what it has.
func nextFitPoint(cfg IterConfig, drawn int) int {
	if drawn <= cfg.Ninit {
		return cfg.Ninit
	}
	k := (drawn - cfg.Ninit + cfg.Ndelta - 1) / cfg.Ndelta
	at := cfg.Ninit + k*cfg.Ndelta
	if at > cfg.MaxSamples {
		at = cfg.MaxSamples
	}
	if at < drawn {
		at = drawn
	}
	return at
}

// replayResume drives the interrupted campaign's journaled draws
// (cfg.ResumeLog) back through the strategy: the RNG advances exactly as
// it did originally, the strategy rebuilds its internal state from the
// logged outcomes, and batches commit at the original estimation schedule
// so post-resume draws see the same committed horizon they would have
// seen uninterrupted. Each regenerated draw is checked against the
// journal — divergence means the journal belongs to a different strategy,
// seed or configuration. It returns the prefix's measured draws and the
// tail-eligible performance sample among them.
func replayResume(cfg IterConfig, strategy search.Strategy, rng *rand.Rand, hist *search.History) ([]SampleResult, []float64, error) {
	log := cfg.ResumeLog
	var results []SampleResult
	var tailPerfs []float64
	for i := range log {
		if i > 0 && onFitSchedule(cfg, i) {
			hist.Commit()
		}
		d, err := strategy.Next(rng, hist)
		if err != nil {
			return nil, nil, fmt.Errorf("core: resume replay: strategy %s: %w", strategy.Name(), err)
		}
		hist.Push(d)
		if !sameCtx(d.Assignment.Ctx, log[i].Assignment.Ctx) {
			return nil, nil, fmt.Errorf("core: resume replay diverged at draw %d: journal has %v, strategy %s regenerated %v (journal from a different strategy, parameters or seed?)",
				i+1, log[i].Assignment.Ctx, strategy.Name(), d.Assignment.Ctx)
		}
		hist.Resolve(i, log[i].Perf, log[i].Quarantined)
		if log[i].Quarantined {
			continue
		}
		results = append(results, SampleResult{Assignment: log[i].Assignment, Perf: log[i].Perf})
		if !d.Explore {
			tailPerfs = append(tailPerfs, log[i].Perf)
		}
	}
	if len(log) > 0 && onFitSchedule(cfg, len(log)) {
		// The interruption fell exactly on a batch boundary: the final
		// batch completed, so its outcomes are visible.
		hist.Commit()
	}
	return results, tailPerfs, nil
}

// onFitSchedule reports whether n draws is one of the estimation points —
// a committed batch boundary.
func onFitSchedule(cfg IterConfig, n int) bool {
	if n == cfg.Ninit || n == cfg.MaxSamples {
		return true
	}
	if n < cfg.Ninit || n > cfg.MaxSamples {
		return false
	}
	return (n-cfg.Ninit)%cfg.Ndelta == 0
}

func sameCtx(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
