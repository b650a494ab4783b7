package campaign

// Strategy-level journal equivalence: an explicitly configured uniform
// strategy must be observationally absent (byte-identical journals to the
// historical nil-strategy path, at any worker count, cache on or off,
// faults or not), and every strategy — stateful or not — must survive a
// mid-campaign kill and -resume with a journal byte-identical to its
// uninterrupted run, including kills past the first estimation boundary
// where the committed-horizon replay actually matters.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"optassign/internal/core"
	"optassign/internal/search"
)

// strategyHeader is equivHeader plus the strategy spec the journal pins.
func strategyHeader(seed int64, spec string) JournalHeader {
	h := equivHeader(seed)
	h.Strategy = spec
	return h
}

// TestUniformStrategyJournalMatchesNilStrategy: configuring the uniform
// strategy explicitly must write byte-identical journals to the legacy
// nil-strategy campaign, across worker counts, with and without the
// measurement cache, with and without injected faults.
func TestUniformStrategyJournalMatchesNilStrategy(t *testing.T) {
	const seed = 12
	for _, withFaults := range []bool{false, true} {
		baseline, baseRes, baseErr := runCacheEquivSerial(t, seed, withFaults)
		for _, withCache := range []bool{false, true} {
			for _, workers := range []int{1, 4, 16} {
				name := fmt.Sprintf("faults=%v-cache=%v-workers%d", withFaults, withCache, workers)
				t.Run(name, func(t *testing.T) {
					strat, err := search.New("uniform", nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					var cache *core.Cache
					if withCache {
						cache = core.NewCache(0, nil)
					}
					stack := cacheEquivStack(withFaults, cache)
					path := filepath.Join(t.TempDir(), "uniform.journal")
					j, err := CreateJournal(path, strategyHeader(seed, search.Spec("uniform", nil)))
					if err != nil {
						t.Fatal(err)
					}
					cfg := equivConfig(seed)
					cfg.Strategy = strat
					var res core.IterResult
					var iterErr error
					if workers > 1 {
						pool, err := core.NewReplicatedPool(stack, workers)
						if err != nil {
							t.Fatal(err)
						}
						res, iterErr = core.IterateParallel(context.Background(), cfg, pool, j.Commit)
					} else {
						res, iterErr = core.IterateContext(context.Background(), cfg,
							JournalRunner{Journal: j, Runner: stack})
					}
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(iterErr) != fmt.Sprint(baseErr) {
						t.Fatalf("iterate error %v, baseline %v", iterErr, baseErr)
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, baseline) {
						t.Fatalf("explicit-uniform journal differs from nil-strategy baseline:\nuniform %d bytes\nbaseline %d bytes",
							len(data), len(baseline))
					}
					if res.Samples != baseRes.Samples || !reflect.DeepEqual(res.Best, baseRes.Best) {
						t.Fatalf("result (%d, %v) differs from baseline (%d, %v)",
							res.Samples, res.Best, baseRes.Samples, baseRes.Best)
					}
				})
			}
		}
	}
}

// strategyEquivSpecs are the kill/resume test's strategy configurations.
// Parameters are scaled to the tiny equivConfig campaign (Ninit=100,
// Ndelta=30, MaxSamples=250) so the adaptive strategies actually leave
// their init phases before the budget ends. Stratified gets its
// enumeration capped into rejection mode: the 8-context test topology has
// so few canonical classes that enumerated passes would serve the same
// handful of representative values over and over and degenerate the fit.
func strategyEquivSpecs() []struct {
	name   string
	params search.Params
} {
	return []struct {
		name   string
		params search.Params
	}{
		{"uniform", nil},
		{"stratified", search.Params{"classes": 4, "retries": 8}},
		{"greedy", search.Params{"init": 40, "explore": 0.25}},
		{"anneal", search.Params{"init": 40, "decay": 0.99}},
	}
}

// strategyKillConfig is equivConfig with an unreachable 1% loss promise,
// so every campaign runs past the first estimation boundary and the
// killAt=137 case genuinely exercises the committed-horizon replay.
func strategyKillConfig(seed int64) core.IterConfig {
	cfg := equivConfig(seed)
	cfg.AcceptLossPct = 1
	return cfg
}

// runStrategyJournaled runs one uninterrupted serial campaign under the
// given strategy and returns the journal bytes and result.
func runStrategyJournaled(t *testing.T, name string, params search.Params, seed int64, withFaults bool) ([]byte, core.IterResult, error) {
	t.Helper()
	strat, err := search.New(name, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "full.journal")
	j, err := CreateJournal(path, strategyHeader(seed, search.Spec(name, params)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := strategyKillConfig(seed)
	cfg.Strategy = strat
	res, iterErr := core.IterateContext(context.Background(), cfg,
		JournalRunner{Journal: j, Runner: equivStack(withFaults)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, res, iterErr
}

// TestStrategyKillResumeMatchesUninterrupted kills a campaign per strategy
// at two points — mid-initial-batch and past the first estimation
// boundary, where resume must replay the journal through the strategy with
// the original committed horizons — then resumes serially and on a
// 4-worker pool, requiring the final journal to be byte-identical to the
// uninterrupted run's.
func TestStrategyKillResumeMatchesUninterrupted(t *testing.T) {
	const seed = 3
	for _, withFaults := range []bool{false, true} {
		for _, spec := range strategyEquivSpecs() {
			specStr := search.Spec(spec.name, spec.params)
			uninterrupted, fullRes, fullErr := runStrategyJournaled(t, spec.name, spec.params, seed, withFaults)
			if fullErr != nil && !errors.Is(fullErr, core.ErrBudgetExhausted) {
				t.Fatalf("%s: uninterrupted run: %v", spec.name, fullErr)
			}
			for _, killAt := range []int{57, 137} {
				name := fmt.Sprintf("%s-faults=%v-kill%d", spec.name, withFaults, killAt)
				t.Run(name, func(t *testing.T) {
					// Kill: the campaign dies after killAt journaled draws.
					path := filepath.Join(t.TempDir(), "killed.journal")
					jk, err := CreateJournal(path, strategyHeader(seed, specStr))
					if err != nil {
						t.Fatal(err)
					}
					strat, err := search.New(spec.name, spec.params, nil)
					if err != nil {
						t.Fatal(err)
					}
					cfg := strategyKillConfig(seed)
					cfg.Strategy = strat
					stack := core.ContextRunner(JournalRunner{Journal: jk, Runner: equivStack(withFaults)})
					_, iterErr := core.IterateContext(context.Background(), cfg, killSerialAfter(stack, jk, killAt))
					if !errors.Is(iterErr, errKilled) {
						t.Fatalf("kill: err = %v", iterErr)
					}
					jk.Close()

					for _, workers := range []int{0, 4} {
						// Resume with a fresh strategy instance: its state must
						// be rebuilt entirely from the journal replay.
						j, st, err := ResumeJournal(path, strategyHeader(seed, specStr))
						if err != nil {
							t.Fatal(err)
						}
						if st.Draws != killAt {
							t.Fatalf("recovered %d draws, want %d", st.Draws, killAt)
						}
						rcfg := strategyKillConfig(seed)
						rcfg.Strategy, err = search.New(spec.name, spec.params, nil)
						if err != nil {
							t.Fatal(err)
						}
						rcfg.ResumeLog = st.Log
						var res core.IterResult
						if workers > 0 {
							pool, err := core.NewReplicatedPool(equivStack(withFaults), workers)
							if err != nil {
								t.Fatal(err)
							}
							res, iterErr = core.IterateParallel(context.Background(), rcfg, pool, j.Commit)
						} else {
							res, iterErr = core.IterateContext(context.Background(), rcfg,
								JournalRunner{Journal: j, Runner: equivStack(withFaults)})
						}
						if fmt.Sprint(iterErr) != fmt.Sprint(fullErr) {
							t.Fatalf("workers=%d: resume err %v, uninterrupted %v", workers, iterErr, fullErr)
						}
						j.Close()
						resumed, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(resumed, uninterrupted) {
							t.Fatalf("workers=%d: resumed journal differs from uninterrupted run's:\nresumed %d bytes\nuninterrupted %d bytes",
								workers, len(resumed), len(uninterrupted))
						}
						if res.Samples != fullRes.Samples || !reflect.DeepEqual(res.Best, fullRes.Best) {
							t.Fatalf("workers=%d: resumed result (%d, %v) differs from uninterrupted (%d, %v)",
								workers, res.Samples, res.Best, fullRes.Samples, fullRes.Best)
						}
						// Reset the journal file for the next execution mode.
						if workers == 0 {
							if err := os.WriteFile(path, journalPrefix(t, uninterrupted, killAt), 0o644); err != nil {
								t.Fatal(err)
							}
						}
					}
				})
			}
		}
	}
}

// journalPrefix returns the header plus the first k entry lines of a
// journal — the state a campaign killed after k journaled draws leaves
// behind.
func journalPrefix(t *testing.T, data []byte, k int) []byte {
	t.Helper()
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < k+1 {
		t.Fatalf("journal has %d lines, need %d", len(lines), k+1)
	}
	return bytes.Join(lines[:k+1], nil)
}

// TestResumeRejectsStrategyMismatch: a journal written under one strategy
// must refuse to resume under another — the draw sequences would diverge
// silently otherwise.
func TestResumeRejectsStrategyMismatch(t *testing.T) {
	const seed = 3
	path := filepath.Join(t.TempDir(), "strat.journal")
	j, err := CreateJournal(path, strategyHeader(seed, "stratified"))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := search.New("stratified", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := equivConfig(seed)
	cfg.Strategy = strat
	stack := core.ContextRunner(JournalRunner{Journal: j, Runner: equivStack(false)})
	if _, iterErr := core.IterateContext(context.Background(), cfg, killSerialAfter(stack, j, 40)); !errors.Is(iterErr, errKilled) {
		t.Fatalf("kill: %v", iterErr)
	}
	j.Close()

	if _, _, err := ResumeJournal(path, strategyHeader(seed, "")); err == nil {
		t.Fatal("resume as uniform accepted a stratified journal")
	}
	if _, _, err := ResumeJournal(path, strategyHeader(seed, "greedy(init=40)")); err == nil {
		t.Fatal("resume as greedy accepted a stratified journal")
	}
	if _, _, err := ResumeJournal(path, strategyHeader(seed, "stratified")); err != nil {
		t.Fatalf("matching strategy refused: %v", err)
	}
}

// TestResumeReplayDetectsWrongStrategyState: even with a matching header,
// the replay verifies every regenerated draw against the journal — a
// strategy with different parameters diverges and must be caught, not
// silently continued.
func TestResumeReplayDetectsWrongStrategyState(t *testing.T) {
	const seed = 3
	path := filepath.Join(t.TempDir(), "greedy.journal")
	spec := search.Params{"init": 40, "explore": 0.25}
	j, err := CreateJournal(path, strategyHeader(seed, search.Spec("greedy", spec)))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := search.New("greedy", spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := strategyKillConfig(seed)
	cfg.Strategy = strat
	stack := core.ContextRunner(JournalRunner{Journal: j, Runner: equivStack(false)})
	if _, iterErr := core.IterateContext(context.Background(), cfg, killSerialAfter(stack, j, 137)); !errors.Is(iterErr, errKilled) {
		t.Fatalf("kill: %v", iterErr)
	}
	j.Close()

	jr, st, err := ResumeJournal(path, strategyHeader(seed, search.Spec("greedy", spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	rcfg := strategyKillConfig(seed)
	// Same strategy family, different parameters: the header check cannot
	// see it (the caller lied about the spec), the replay must.
	rcfg.Strategy, err = search.New("greedy", search.Params{"init": 10, "explore": 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rcfg.ResumeLog = st.Log
	_, iterErr := core.IterateContext(context.Background(), rcfg,
		JournalRunner{Journal: jr, Runner: equivStack(false)})
	if iterErr == nil || !bytes.Contains([]byte(iterErr.Error()), []byte("diverged")) {
		t.Fatalf("replay under wrong parameters: err = %v, want divergence", iterErr)
	}
}
