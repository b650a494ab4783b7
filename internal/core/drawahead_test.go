package core_test

// Draw-ahead contract: IteratePool draws round k+1 while round k is
// estimated. These tests pin what that may and may not change. Every
// draw still sees the history the serial loop showed it; a campaign that
// stops journals, observes and counts only its committed rounds; a
// strategy error in the ahead round surfaces only if the loop goes on;
// and no goroutine outlives the call. Run them under -race: the ahead
// round and the refit share nothing, and the detector checks it.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/obs"
	"optassign/internal/search"
)

// drawAheadConfig is a small campaign on the hash testbed: a first fit at
// 100 draws, a refit every 30, a 250-draw budget. At seed 5 it certifies
// in round 1 at a 5% loss, in round 3 (160 draws) at 1%, and runs to the
// budget at 0.1%.
func drawAheadConfig(lossPct float64) core.IterConfig {
	return core.IterConfig{
		Topo:          smallTopo(),
		Tasks:         3,
		AcceptLossPct: lossPct,
		Ninit:         100,
		Ndelta:        30,
		MaxSamples:    250,
		Seed:          5,
		POT:           evt.POTOptions{Threshold: evt.ThresholdOptions{MaxExceedFraction: 0.3}},
	}
}

// horizon is what one Next call saw.
type horizon struct{ len, committed int }

// probeStrategy is the uniform strategy with instruments: it records the
// history each Next sees, counts calls in flight, can sleep in every call
// and can fail at one draw index.
type probeStrategy struct {
	search.Uniform
	seen   []horizon
	active atomic.Int32
	calls  atomic.Int32
	delay  time.Duration
	failAt int // draw index whose Next fails; 0 never
	// started, when set, is closed by the first Next whose draw index is
	// at least startAt: the ahead round has begun.
	started chan struct{}
	startAt int
}

var errProbe = errors.New("probe strategy failed")

func (p *probeStrategy) Next(rng *rand.Rand, h *search.History) (search.Draw, error) {
	p.active.Add(1)
	defer p.active.Add(-1)
	p.calls.Add(1)
	p.seen = append(p.seen, horizon{h.Len(), h.Committed()})
	if p.started != nil && h.Len() >= p.startAt {
		close(p.started)
		p.started = nil
	}
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.failAt > 0 && h.Len() == p.failAt {
		return search.Draw{}, errProbe
	}
	return p.Uniform.Next(rng, h)
}

// roundStart is the committed horizon draw i must see: the fit point
// before it on cfg's schedule.
func roundStart(cfg core.IterConfig, i int) int {
	if i < cfg.Ninit {
		return 0
	}
	return cfg.Ninit + (i-cfg.Ninit)/cfg.Ndelta*cfg.Ndelta
}

// drawAheadPaths run a config on one worker and on three.
var drawAheadPaths = []struct {
	name string
	run  func(context.Context, core.IterConfig, core.CommitFunc) (core.IterResult, error)
}{
	{"serial", func(ctx context.Context, cfg core.IterConfig, commit core.CommitFunc) (core.IterResult, error) {
		pool, err := core.NewReplicatedPool(hashRunner(0), 1)
		if err != nil {
			return core.IterResult{}, err
		}
		return core.IteratePool(ctx, cfg, pool, core.BatchOptions{}, commit)
	}},
	{"workers3", func(ctx context.Context, cfg core.IterConfig, commit core.CommitFunc) (core.IterResult, error) {
		pool, err := core.NewReplicatedPool(hashRunner(0), 3)
		if err != nil {
			return core.IterResult{}, err
		}
		return core.IteratePool(ctx, cfg, pool, core.BatchOptions{}, commit)
	}},
}

// TestDrawAheadHorizon: every Next sees Len() equal to its draw index
// and Committed() equal to the start of its round, dropped ahead rounds
// included.
func TestDrawAheadHorizon(t *testing.T) {
	for _, loss := range []float64{5, 1, 0.1} {
		for _, p := range drawAheadPaths {
			t.Run(fmt.Sprintf("loss%v-%s", loss, p.name), func(t *testing.T) {
				probe := &probeStrategy{}
				cfg := drawAheadConfig(loss)
				cfg.Strategy = probe
				if _, err := p.run(context.Background(), cfg, nil); err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
					t.Fatal(err)
				}
				if len(probe.seen) == 0 {
					t.Fatal("strategy never called")
				}
				for i, h := range probe.seen {
					if h.len != i || h.committed != roundStart(cfg, i) {
						t.Fatalf("draw %d saw Len %d, Committed %d; want %d, %d", i, h.len, h.committed, i, roundStart(cfg, i))
					}
				}
			})
		}
	}
}

// TestDrawAheadStopJournalsCommittedRounds: a campaign that stops at
// round k commits, counts and reports exactly its k rounds. A stop on
// the rule below the budget drops one drawn round of Ndelta; a stop at
// the budget draws nothing ahead.
func TestDrawAheadStopJournalsCommittedRounds(t *testing.T) {
	cases := []struct {
		loss          float64
		rounds, draws int
		dropped       int
		wantErr       error
	}{
		{5, 1, 100, 30, nil},
		{1, 3, 160, 30, nil},
		{0.1, 6, 250, 0, core.ErrBudgetExhausted},
	}
	for _, c := range cases {
		for _, p := range drawAheadPaths {
			t.Run(fmt.Sprintf("loss%v-%s", c.loss, p.name), func(t *testing.T) {
				probe := &probeStrategy{}
				reg := obs.NewRegistry()
				im := core.NewIterMetrics(reg)
				im.Search = search.NewMetrics(reg, probe.Name())
				rounds := 0
				cfg := drawAheadConfig(c.loss)
				cfg.Strategy = probe
				cfg.OnRound = func(r core.Round) {
					rounds++
					im.Observe(r)
				}
				commits := 0
				res, err := p.run(context.Background(), cfg, func(assign.Assignment, float64, error) error {
					commits++
					return nil
				})
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
				if commits != c.draws || res.Samples+len(res.Quarantined) != c.draws {
					t.Fatalf("%d commits, %d results; want %d", commits, res.Samples+len(res.Quarantined), c.draws)
				}
				if rounds != c.rounds {
					t.Fatalf("%d rounds reported, want %d", rounds, c.rounds)
				}
				if got := im.Search.Draws.Value(); got != float64(c.draws) {
					t.Fatalf("search draws counter = %v, want the %d committed draws", got, c.draws)
				}
				if got := int(probe.calls.Load()); got != c.draws+c.dropped {
					t.Fatalf("strategy drew %d, want %d committed + %d dropped", got, c.draws, c.dropped)
				}
			})
		}
	}
}

// TestDrawAheadNextErrorOnlyIfContinuing: a strategy that fails in round
// k+1 fails the campaign only when the rule lets it reach round k+1. At
// a 1% loss the campaign certifies at 160 draws, so a failure at draw
// 170 is drawn ahead and dropped; at 0.1% it surfaces once the 170
// draws before it are proposed. The failed round is not reported, so the
// search draw counter holds the 160 draws of the rounds that completed.
func TestDrawAheadNextErrorOnlyIfContinuing(t *testing.T) {
	const failAt = 170
	for _, p := range drawAheadPaths {
		t.Run(p.name, func(t *testing.T) {
			for _, loss := range []float64{1, 0.1} {
				probe := &probeStrategy{failAt: failAt}
				reg := obs.NewRegistry()
				im := core.NewIterMetrics(reg)
				im.Search = search.NewMetrics(reg, probe.Name())
				cfg := drawAheadConfig(loss)
				cfg.Strategy, cfg.OnRound = probe, im.Observe
				res, err := p.run(context.Background(), cfg, nil)
				if loss == 1 {
					if err != nil || !res.Satisfied || res.Samples != 160 {
						t.Fatalf("loss 1%%: err = %v, satisfied %v at %d samples; want certified at 160", err, res.Satisfied, res.Samples)
					}
					if got := im.Search.Draws.Value(); got != 160 {
						t.Fatalf("loss 1%%: search draws counter = %v, want 160", got)
					}
					continue
				}
				if !errors.Is(err, errProbe) {
					t.Fatalf("loss 0.1%%: err = %v, want the strategy's error", err)
				}
				if res.Samples != 160 {
					t.Fatalf("loss 0.1%%: %d samples, want the 160 committed", res.Samples)
				}
				if got := probe.calls.Load(); got != failAt+1 {
					t.Fatalf("loss 0.1%%: strategy called %d times, want %d draws and the failing call", got, failAt)
				}
				if got := im.Search.Draws.Value(); got != 160 {
					t.Fatalf("loss 0.1%%: search draws counter = %v, want the 160 of the completed rounds", got)
				}
			}
		})
	}
}

// TestDrawAheadNoGoroutineOutlivesCall: on every return path no Next is
// in flight when IteratePool returns, and none starts afterwards. Each
// path's refit hook waits until the ahead round has begun drawing, so
// the round is in flight when the campaign decides to return.
func TestDrawAheadNoGoroutineOutlivesCall(t *testing.T) {
	errHook := errors.New("checkpoint write failed")
	cases := []struct {
		name string
		loss float64
		// mod adjusts the config; cancel is the campaign's cancel.
		mod     func(cfg *core.IterConfig, cancel context.CancelFunc)
		wantErr func(error) bool
	}{
		{"certified", 5, nil, func(err error) bool { return err == nil }},
		{"budget", 0.1, nil, func(err error) bool { return errors.Is(err, core.ErrBudgetExhausted) }},
		{"refit-error", 1, func(cfg *core.IterConfig, _ context.CancelFunc) {
			cfg.Ninit = 20
			cfg.POT = evt.POTOptions{}
		}, func(err error) bool { return err != nil && errors.Is(err, evt.ErrSampleTooSmall) }},
		{"onrefit-error", 1, func(cfg *core.IterConfig, _ context.CancelFunc) {
			cfg.OnRefit = func(evt.StreamState) error { return errHook }
		}, func(err error) bool { return errors.Is(err, errHook) }},
		{"cancelled-mid-refit", 0.1, func(cfg *core.IterConfig, cancel context.CancelFunc) {
			cfg.OnRefit = func(evt.StreamState) error { cancel(); return nil }
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, c := range cases {
		for _, p := range drawAheadPaths {
			t.Run(c.name+"-"+p.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := drawAheadConfig(c.loss)
				if c.mod != nil {
					c.mod(&cfg, cancel)
				}
				started := make(chan struct{})
				probe := &probeStrategy{delay: 20 * time.Microsecond, started: started, startAt: cfg.Ninit}
				cfg.Strategy = probe
				// Hold the first refit's hook until the ahead round is
				// drawing, so it is in flight when the campaign returns.
				// A failed refit calls no hook.
				hook := cfg.OnRefit
				cfg.OnRefit = func(st evt.StreamState) error {
					select {
					case <-started:
					case <-time.After(5 * time.Second):
						t.Error("the next round was not drawn during the refit")
					}
					if hook != nil {
						return hook(st)
					}
					return nil
				}
				_, err := p.run(ctx, cfg, nil)
				if !c.wantErr(err) {
					t.Fatalf("err = %v", err)
				}
				if n := probe.active.Load(); n != 0 {
					t.Fatalf("%d Next calls in flight after return", n)
				}
				calls := probe.calls.Load()
				time.Sleep(2 * time.Millisecond)
				if got := probe.calls.Load(); got != calls {
					t.Fatalf("Next called %d times after return", got-calls)
				}
			})
		}
	}
}
