package campaign

// Run is the only campaign assembler, so it must be a pure rewiring of
// the reference stack: on every execution path (serial, fanned out,
// batched), fresh or killed and resumed, it writes the journal and
// returns the result the historical core.IterateContext + JournalRunner
// stack does, and its extra commit hook sees exactly the journal's
// successes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/obs"
)

// runPaths are the execution paths Run selects between.
var runPaths = []struct {
	name string
	rc   RunConfig
}{
	{"serial", RunConfig{}},
	{"workers4", RunConfig{Workers: 4}},
	{"batch16", RunConfig{Batch: core.BatchOptions{Size: 16}}},
}

// estimatedRound is what OnRound reports of an estimated round that does
// not depend on where the process started: its sample count and estimate.
type estimatedRound struct {
	samples  int
	estimate core.Estimate
}

// loggedResult is a campaign's result with the estimated rounds its
// OnRound hook received, which IterResult does not keep.
type loggedResult struct {
	core.IterResult
	rounds []estimatedRound
}

// logRounds returns cfg with an OnRound hook that appends each estimated
// round to *log.
func logRounds(cfg core.IterConfig, log *[]estimatedRound) core.IterConfig {
	cfg.OnRound = func(r core.Round) {
		if r.Kind == core.RoundEstimated {
			*log = append(*log, estimatedRound{r.Samples, r.Estimate})
		}
	}
	return cfg
}

// runLogged is Run with its estimated rounds logged.
func runLogged(ctx context.Context, runner core.ContextRunner, cfg core.IterConfig, rc RunConfig) (loggedResult, error) {
	var out loggedResult
	res, err := Run(ctx, runner, logRounds(cfg, &out.rounds), rc)
	out.IterResult = res
	return out, err
}

// runReference runs the historical serial stack, IterateContext behind
// JournalRunner, and returns its journal bytes, result and error.
func runReference(t *testing.T, seed int64, withFaults bool) ([]byte, loggedResult, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reference.journal")
	j, err := CreateJournal(path, equivHeader(seed))
	if err != nil {
		t.Fatal(err)
	}
	var ref loggedResult
	res, iterErr := core.IterateContext(context.Background(), logRounds(streamKillConfig(seed), &ref.rounds),
		JournalRunner{Journal: j, Runner: equivStack(withFaults)})
	ref.IterResult = res
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, ref, iterErr
}

// successRecorder is an extra commit hook recording the successes it
// sees; after kill draws it starts failing with errKilled (0 never).
type successRecorder struct {
	seen  []core.SampleResult
	draws int
	kill  int
}

func (r *successRecorder) commit(a assign.Assignment, perf float64, err error) error {
	r.draws++
	if err == nil {
		r.seen = append(r.seen, core.SampleResult{Assignment: a, Perf: perf})
	}
	if r.draws == r.kill {
		return errKilled
	}
	return nil
}

func TestRunMatchesReference(t *testing.T) {
	const seed = 3
	for _, withFaults := range []bool{false, true} {
		refBytes, refRes, refErr := runReference(t, seed, withFaults)
		if !errors.Is(refErr, core.ErrBudgetExhausted) {
			t.Fatalf("reference run: err = %v, want budget exhaustion", refErr)
		}
		for _, p := range runPaths {
			for _, killAt := range []int{0, 57, 137} {
				t.Run(fmt.Sprintf("faults=%v-%s-kill%d", withFaults, p.name, killAt), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "run.journal")
					j, err := CreateJournal(path, equivHeader(seed))
					if err != nil {
						t.Fatal(err)
					}
					rec := &successRecorder{kill: killAt}
					rc := p.rc
					rc.Journal, rc.Commit = j, rec.commit
					res, runErr := runLogged(context.Background(), equivStack(withFaults), streamKillConfig(seed), rc)
					if killAt > 0 {
						if !errors.Is(runErr, errKilled) {
							t.Fatalf("kill: err = %v", runErr)
						}
						if got := j.Len(); got != killAt {
							t.Fatalf("killed journal holds %d draws, want %d", got, killAt)
						}
						j.Close()
						var st *JournalState
						j, st, err = ResumeJournal(path, equivHeader(seed))
						if err != nil {
							t.Fatal(err)
						}
						rec.kill = 0
						rc.Journal, rc.State = j, st
						res, runErr = runLogged(context.Background(), equivStack(withFaults), streamKillConfig(seed), rc)
					}
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(runErr) != fmt.Sprint(refErr) {
						t.Fatalf("err = %v, reference %v", runErr, refErr)
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, refBytes) {
						t.Fatalf("journal differs from the reference: %d bytes vs %d", len(data), len(refBytes))
					}
					assertSameResult(t, res, refRes)

					st, err := LoadJournal(path)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rec.seen, st.Results) {
						t.Fatalf("extra commit saw %d successes, journal holds %d (or a different order)",
							len(rec.seen), len(st.Results))
					}
				})
			}
		}
	}
}

// assertSameResult compares a Run result with the reference. A resumed
// run's estimated rounds and quarantine list start at the resume point,
// so those must equal the reference's tails.
func assertSameResult(t *testing.T, got, want loggedResult) {
	t.Helper()
	if got.Samples != want.Samples || got.Satisfied != want.Satisfied ||
		!reflect.DeepEqual(got.Best, want.Best) || !reflect.DeepEqual(got.Final, want.Final) {
		t.Fatalf("result (n=%d best=%v final=%+v) differs from reference (n=%d best=%v final=%+v)",
			got.Samples, got.Best, got.Final, want.Samples, want.Best, want.Final)
	}
	if len(got.rounds) > len(want.rounds) ||
		!reflect.DeepEqual(got.rounds, want.rounds[len(want.rounds)-len(got.rounds):]) {
		t.Fatalf("estimated rounds (%d) are not the reference's tail (%d)", len(got.rounds), len(want.rounds))
	}
	if len(got.Quarantined) > len(want.Quarantined) ||
		fmt.Sprint(got.Quarantined) != fmt.Sprint(want.Quarantined[len(want.Quarantined)-len(got.Quarantined):]) {
		t.Fatalf("quarantines (%d) are not the reference's tail (%d)", len(got.Quarantined), len(want.Quarantined))
	}
}

// TestRunInterruptWrapsCanceled: a measurement source torn down with the
// campaign fails with its own transport error, not the context's. Run
// must still report an interrupt, and the journal must hold exactly the
// committed prefix.
func TestRunInterruptWrapsCanceled(t *testing.T) {
	const seed, cancelAt = 3, 57
	refBytes, _, _ := runReference(t, seed, false)
	errTransport := errors.New("remote: receive: i/o timeout")
	for _, p := range runPaths {
		t.Run(p.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			calls := 0
			runner := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
				mu.Lock()
				calls++
				if calls > cancelAt {
					cancel() // the teardown arrives while this draw is in flight
				}
				mu.Unlock()
				if ctx.Err() != nil {
					return 0, errTransport
				}
				return equivPerf(a), nil
			})
			path := filepath.Join(t.TempDir(), "run.journal")
			j, err := CreateJournal(path, equivHeader(seed))
			if err != nil {
				t.Fatal(err)
			}
			committed := 0
			rc := p.rc
			rc.Journal = j
			rc.Commit = func(assign.Assignment, float64, error) error { committed++; return nil }
			_, runErr := Run(ctx, runner, streamKillConfig(seed), rc)
			j.Close()
			if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("err = %v, want one wrapping context.Canceled", runErr)
			}
			st, err := LoadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Draws != committed || committed == 0 || committed > cancelAt {
				t.Fatalf("journal holds %d draws, %d committed (cancel after %d)", st.Draws, committed, cancelAt)
			}
			if p.rc.Workers <= 1 && p.rc.Batch.Size == 0 && committed != cancelAt {
				t.Fatalf("serial run committed %d draws, want %d", committed, cancelAt)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, journalPrefix(t, refBytes, committed)) {
				t.Fatal("interrupted journal is not the reference's committed prefix")
			}
		})
	}
}

// TestRunSyncsJournalBeforeEveryCheckpoint: a journaled Run syncs its
// journal once per estimation round, which bounds what a power loss can
// take from it, and writes no file beside it.
func TestRunSyncsJournalBeforeEveryCheckpoint(t *testing.T) {
	const seed = 3
	for _, p := range runPaths {
		t.Run(p.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal")
			j, err := CreateJournal(path, equivHeader(seed))
			if err != nil {
				t.Fatal(err)
			}
			jm := NewJournalMetrics(obs.NewRegistry())
			j.Instrument(jm)
			cfg := streamKillConfig(seed)
			n := 0
			cfg.OnRound = func(core.Round) { n++ }
			rc := p.rc
			rc.Journal = j
			if _, err := Run(context.Background(), equivStack(false), cfg, rc); !errors.Is(err, core.ErrBudgetExhausted) {
				t.Fatalf("err = %v", err)
			}
			j.Close()
			if n < 2 {
				t.Fatalf("%d rounds, want several", n)
			}
			if got := jm.Syncs.Value(); got != float64(n) {
				t.Fatalf("journal synced %v times in %d rounds", got, n)
			}
			assertOnlyJournal(t, path)
		})
	}
}

// assertOnlyJournal fails unless the journal at path is the only file in
// its directory.
func assertOnlyJournal(t *testing.T, path string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("campaign directory holds %v, want only %s", names, filepath.Base(path))
	}
}

// TestRunResumeIgnoresSidecar: the journal is a campaign's only record.
// A journaled Run writes no estimator sidecar on the serial, 3-worker
// and batched paths, and a stale or garbage <journal>.estimator beside a
// resumed journal changes neither the resumed bytes nor the result; Run
// leaves the file as it found it.
func TestRunResumeIgnoresSidecar(t *testing.T) {
	const seed, killAt = 3, 137
	refBytes, refRes, refErr := runReference(t, seed, false)
	stale, err := json.Marshal(evt.StreamState{N: 5, Sorted: []float64{1, 2, 3, 4, 5}, Best: 5, Fitted: true, U: 2, TailCount: 3, RefitCount: 9})
	if err != nil {
		t.Fatal(err)
	}
	sidecars := map[string][]byte{"stale": stale, "garbage": []byte("not an estimator state\n")}
	for _, p := range []struct {
		name string
		rc   RunConfig
	}{
		{"serial", RunConfig{}},
		{"workers3", RunConfig{Workers: 3}},
		{"batch16", RunConfig{Batch: core.BatchOptions{Size: 16}}},
	} {
		for kind, sidecar := range sidecars {
			t.Run(p.name+"-"+kind, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.journal")
				j, err := CreateJournal(path, equivHeader(seed))
				if err != nil {
					t.Fatal(err)
				}
				rec := &successRecorder{kill: killAt}
				rc := p.rc
				rc.Journal, rc.Commit = j, rec.commit
				if _, err := Run(context.Background(), equivStack(false), streamKillConfig(seed), rc); !errors.Is(err, errKilled) {
					t.Fatalf("kill: err = %v", err)
				}
				j.Close()
				assertOnlyJournal(t, path)

				ckptPath := path + ".estimator"
				if err := os.WriteFile(ckptPath, sidecar, 0o644); err != nil {
					t.Fatal(err)
				}
				j, st, err := ResumeJournal(path, equivHeader(seed))
				if err != nil {
					t.Fatal(err)
				}
				rc = p.rc
				rc.Journal, rc.State = j, st
				res, runErr := runLogged(context.Background(), equivStack(false), streamKillConfig(seed), rc)
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(runErr) != fmt.Sprint(refErr) {
					t.Fatalf("resumed: err = %v, reference %v", runErr, refErr)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, refBytes) {
					t.Fatalf("resumed journal differs from the reference: %d bytes vs %d", len(data), len(refBytes))
				}
				assertSameResult(t, res, refRes)
				if got, err := os.ReadFile(ckptPath); err != nil || !bytes.Equal(got, sidecar) {
					t.Fatalf("Run touched the sidecar beside its journal (err %v)", err)
				}
			})
		}
	}
}
