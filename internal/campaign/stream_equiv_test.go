package campaign

// Streaming-estimator equivalence at the campaign layer: the journal is
// the only resume input. A campaign killed mid-flight and resumed from
// its journal alone must write a journal byte-identical to the
// uninterrupted run's AND produce the identical refit sequence (every
// scheduled refit's full state, its refit count restarting at the
// resume), across worker counts, with the measurement cache on or off,
// per strategy, faults included. And every refit must be bitwise-faithful
// to the journal: an estimator rebuilt from the journal's committed tail
// prefix, as a resume rebuilds it, must refit as a from-scratch
// evt.Analyze of that prefix.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/search"
)

// captureRefits returns an OnRefit hook that appends every refit state to
// dst — the campaign's refit sequence, in order.
func captureRefits(dst *[]evt.StreamState) func(evt.StreamState) error {
	return func(st evt.StreamState) error {
		*dst = append(*dst, st)
		return nil
	}
}

// streamKillConfig is equivConfig with an effectively unreachable loss
// promise. The cache-equivalence measurement stack's heavily duplicated
// perf distribution converges fast enough to satisfy strategyKillConfig's
// 1% before the late kill point, which would leave nothing to kill.
func streamKillConfig(seed int64) core.IterConfig {
	cfg := equivConfig(seed)
	cfg.AcceptLossPct = 1e-9
	return cfg
}

// runStreamUninterrupted runs one uninterrupted serial campaign under the
// cache-capable stack, capturing its refit sequence.
func runStreamUninterrupted(t *testing.T, name string, params search.Params, seed int64, withFaults bool, states *[]evt.StreamState) ([]byte, core.IterResult, error) {
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
	cfg := streamKillConfig(seed)
	cfg.Strategy = strat
	cfg.OnRefit = captureRefits(states)
	res, iterErr := core.IterateContext(context.Background(), cfg,
		JournalRunner{Journal: j, Runner: cacheEquivStack(withFaults, nil)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, res, iterErr
}

// TestStreamCheckpointKillResumeMatchesUninterrupted kills a campaign per
// strategy at two points — mid-initial-batch, before any refit, and past
// the first estimation boundaries, where the estimator holds fitted
// state — then resumes from the journal alone serially and on 4- and
// 16-worker pools, cache off and on. The resumed journal must be
// byte-identical to the uninterrupted run's, and the killed run's refit
// sequence followed by the resumed run's must equal the uninterrupted
// sequence state-for-state, except that the resumed estimator, rebuilt
// from the journal, counts its refits from 1 again.
func TestStreamCheckpointKillResumeMatchesUninterrupted(t *testing.T) {
	const seed = 3
	for _, withFaults := range []bool{false, true} {
		for _, spec := range strategyEquivSpecs() {
			specStr := search.Spec(spec.name, spec.params)
			var fullStates []evt.StreamState
			uninterrupted, fullRes, fullErr := runStreamUninterrupted(t, spec.name, spec.params, seed, withFaults, &fullStates)
			if fullErr != nil && !errors.Is(fullErr, core.ErrBudgetExhausted) {
				t.Fatalf("%s: uninterrupted run: %v", spec.name, fullErr)
			}
			strat, err := search.New(spec.name, spec.params, nil)
			if err != nil {
				t.Fatal(err)
			}
			if strat.TailSafe() && len(fullStates) == 0 {
				t.Fatalf("%s: tail-safe campaign produced no refits — sequence equality would be vacuous", spec.name)
			}
			if !strat.TailSafe() && len(fullStates) != 0 {
				t.Fatalf("%s: tail-unsafe campaign refitted %d times", spec.name, len(fullStates))
			}
			for _, killAt := range []int{57, 137} {
				name := fmt.Sprintf("%s-faults=%v-kill%d", spec.name, withFaults, killAt)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					path := filepath.Join(dir, "killed.journal")

					// Kill: the campaign dies after killAt journaled draws.
					jk, err := CreateJournal(path, strategyHeader(seed, specStr))
					if err != nil {
						t.Fatal(err)
					}
					kstrat, err := search.New(spec.name, spec.params, nil)
					if err != nil {
						t.Fatal(err)
					}
					cfg := streamKillConfig(seed)
					cfg.Strategy = kstrat
					var killedStates []evt.StreamState
					cfg.OnRefit = captureRefits(&killedStates)
					stack := core.ContextRunner(JournalRunner{Journal: jk, Runner: cacheEquivStack(withFaults, nil)})
					_, iterErr := core.IterateContext(context.Background(), cfg, killSerialAfter(stack, jk, killAt))
					if !errors.Is(iterErr, errKilled) {
						t.Fatalf("kill: err = %v", iterErr)
					}
					jk.Close()

					// The killed refit sequence must be a prefix of the
					// uninterrupted one.
					if len(killedStates) > len(fullStates) ||
						(len(killedStates) > 0 && !reflect.DeepEqual(killedStates, fullStates[:len(killedStates)])) {
						t.Fatalf("killed run's %d refits are not a prefix of the uninterrupted %d", len(killedStates), len(fullStates))
					}
					if killAt == 137 && strat.TailSafe() && len(killedStates) == 0 {
						t.Fatal("kill past the estimation boundary came before any refit")
					}
					// The resumed estimator counts its own refits.
					resumedFrom := 0
					if len(killedStates) > 0 {
						resumedFrom = killedStates[len(killedStates)-1].RefitCount
					}

					for _, workers := range []int{0, 4, 16} {
						for _, withCache := range []bool{false, true} {
							// Reset the journal to the killed prefix.
							if err := os.WriteFile(path, journalPrefix(t, uninterrupted, killAt), 0o644); err != nil {
								t.Fatal(err)
							}
							j, st, err := ResumeJournal(path, strategyHeader(seed, specStr))
							if err != nil {
								t.Fatal(err)
							}
							if st.Draws != killAt {
								t.Fatalf("recovered %d draws, want %d", st.Draws, killAt)
							}
							rcfg := streamKillConfig(seed)
							rcfg.Strategy, err = search.New(spec.name, spec.params, nil)
							if err != nil {
								t.Fatal(err)
							}
							rcfg.ResumeLog = st.Log
							var resumedStates []evt.StreamState
							rcfg.OnRefit = captureRefits(&resumedStates)
							var cache *core.Cache
							if withCache {
								cache = core.NewCache(0, nil)
							}
							var res core.IterResult
							if workers > 0 {
								pool, err := core.NewReplicatedPool(cacheEquivStack(withFaults, cache), workers)
								if err != nil {
									t.Fatal(err)
								}
								res, iterErr = core.IterateParallel(context.Background(), rcfg, pool, j.Commit)
							} else {
								res, iterErr = core.IterateContext(context.Background(), rcfg,
									JournalRunner{Journal: j, Runner: cacheEquivStack(withFaults, cache)})
							}
							if fmt.Sprint(iterErr) != fmt.Sprint(fullErr) {
								t.Fatalf("workers=%d cache=%v: resume err %v, uninterrupted %v", workers, withCache, iterErr, fullErr)
							}
							j.Close()
							resumed, err := os.ReadFile(path)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(resumed, uninterrupted) {
								t.Fatalf("workers=%d cache=%v: resumed journal differs from uninterrupted run's:\nresumed %d bytes\nuninterrupted %d bytes",
									workers, withCache, len(resumed), len(uninterrupted))
							}
							if res.Samples != fullRes.Samples || !reflect.DeepEqual(res.Best, fullRes.Best) {
								t.Fatalf("workers=%d cache=%v: resumed result (%d, %v) differs from uninterrupted (%d, %v)",
									workers, withCache, res.Samples, res.Best, fullRes.Samples, fullRes.Best)
							}
							// The refit sequence is seamless across the kill:
							// killed refits + resumed refits = uninterrupted
							// refits, state for state (threshold, order
							// statistics, interval), with the resumed
							// count shifted by the killed run's.
							whole := append([]evt.StreamState(nil), killedStates...)
							for _, rs := range resumedStates {
								rs.RefitCount += resumedFrom
								whole = append(whole, rs)
							}
							if !reflect.DeepEqual(whole, fullStates) {
								t.Fatalf("workers=%d cache=%v: refit sequence differs: killed %d + resumed %d vs uninterrupted %d",
									workers, withCache, len(killedStates), len(resumedStates), len(fullStates))
							}
						}
					}
				})
			}
		}
	}
}

// bitsEqual compares two values structurally with float64s compared by
// bit pattern — the campaign-layer twin of the evt differential suite's
// comparator, so "bitwise-identical at refit boundaries" means exactly
// that here too.
func bitsEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !a.Field(i).CanInterface() {
				continue
			}
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		if !a.CanInterface() {
			return true
		}
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// TestStreamCheckpointDifferentialAtRefitBoundaries proves each refit is
// bitwise-faithful to the journal: for every refit state a uniform
// campaign emitted, the state's order statistics are the sorted journal
// tail prefix of the same length, and an estimator rebuilt from that
// prefix — as a resume rebuilds it — refits bit-for-bit as a
// from-scratch evt.Analyze of the prefix, with injected faults leaving
// quarantine holes in the draw sequence and without.
func TestStreamCheckpointDifferentialAtRefitBoundaries(t *testing.T) {
	const seed = 11
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "diff.journal")
			j, err := CreateJournal(path, equivHeader(seed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := strategyKillConfig(seed)
			var states []evt.StreamState
			cfg.OnRefit = captureRefits(&states)
			_, iterErr := core.IterateContext(context.Background(), cfg,
				JournalRunner{Journal: j, Runner: equivStack(withFaults)})
			if iterErr != nil && !errors.Is(iterErr, core.ErrBudgetExhausted) {
				t.Fatal(iterErr)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if len(states) < 2 {
				t.Fatalf("campaign emitted %d refit states, want several", len(states))
			}

			st, err := LoadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			// Uniform baseline: every successful journaled draw is
			// tail-eligible, so the estimator's commit-order sample is the
			// journal's success records, in order.
			perfs := core.Perfs(st.Results)
			for i, cs := range states {
				if cs.N > len(perfs) {
					t.Fatalf("refit %d: checkpoint holds %d observations, journal has %d", i, cs.N, len(perfs))
				}
				prefix := perfs[:cs.N]
				sorted := append([]float64(nil), prefix...)
				sort.Float64s(sorted)
				if !reflect.DeepEqual(cs.Sorted, sorted) {
					t.Fatalf("refit %d: state's order statistics are not the journal's first %d observations", i, cs.N)
				}
				rebuilt := evt.NewStreamEstimator(evt.StreamOptions{POT: cfg.POT})
				if err := rebuilt.ObserveAll(prefix); err != nil {
					t.Fatalf("refit %d: rebuild: %v", i, err)
				}
				repStream, errStream := rebuilt.Refit()
				repBatch, errBatch := evt.Analyze(prefix, cfg.POT)
				if fmt.Sprint(errStream) != fmt.Sprint(errBatch) {
					t.Fatalf("refit %d: stream err %v, batch err %v", i, errStream, errBatch)
				}
				if errStream == nil && !bitsEqual(reflect.ValueOf(repStream), reflect.ValueOf(repBatch)) {
					t.Fatalf("refit %d (n=%d): rebuilt refit differs bitwise from batch Analyze:\nstream %+v\nbatch  %+v",
						i, cs.N, repStream, repBatch)
				}
			}
		})
	}
}

// TestEstimatorCheckpointSaveLoad covers the sidecar save the benchmark
// module still calls: a saved state reads back exactly, and a re-save
// atomically replaces it.
func TestEstimatorCheckpointSaveLoad(t *testing.T) {
	path := EstimatorCheckpointPath(filepath.Join(t.TempDir(), "c.journal"))
	st := evt.StreamState{
		N:      3,
		Sorted: []float64{1.5, 2.5, 4},
		Best:   4, Fitted: true, U: 2, TailCount: 2,
		UPBPoint: 5, UPBLo: 4.5, HiUnbounded: true,
		RefitCount: 1, LastRefitN: 3,
	}
	if err := SaveEstimatorCheckpoint(path, st); err != nil {
		t.Fatal(err)
	}
	if got := readSidecar(t, path); !reflect.DeepEqual(got, st) {
		t.Fatalf("round-trip: %+v, want %+v", got, st)
	}
	st.N, st.Sorted, st.RefitCount = 4, append(st.Sorted, 9), 2
	if err := SaveEstimatorCheckpoint(path, st); err != nil {
		t.Fatal(err)
	}
	if got := readSidecar(t, path); got.N != 4 || got.RefitCount != 2 {
		t.Fatalf("re-save did not replace: %+v", got)
	}
}
