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
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/core"
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

// runReference runs the historical serial stack, IterateContext behind
// JournalRunner, and returns its journal bytes, result and error.
func runReference(t *testing.T, seed int64, withFaults bool) ([]byte, core.IterResult, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reference.journal")
	j, err := CreateJournal(path, equivHeader(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, iterErr := core.IterateContext(context.Background(), streamKillConfig(seed),
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
					res, runErr := Run(context.Background(), equivStack(withFaults), streamKillConfig(seed), rc)
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
						res, runErr = Run(context.Background(), equivStack(withFaults), streamKillConfig(seed), rc)
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
// run's history and quarantine list start at the resume point, so those
// must equal the reference's tails.
func assertSameResult(t *testing.T, got, want core.IterResult) {
	t.Helper()
	if got.Samples != want.Samples || got.Satisfied != want.Satisfied ||
		!reflect.DeepEqual(got.Best, want.Best) || !reflect.DeepEqual(got.Final, want.Final) {
		t.Fatalf("result (n=%d best=%v final=%+v) differs from reference (n=%d best=%v final=%+v)",
			got.Samples, got.Best, got.Final, want.Samples, want.Best, want.Final)
	}
	if len(got.History) > len(want.History) ||
		!reflect.DeepEqual(got.History, want.History[len(want.History)-len(got.History):]) {
		t.Fatalf("history (%d rounds) is not the reference's tail (%d rounds)", len(got.History), len(want.History))
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

// TestRunSyncsJournalBeforeEveryCheckpoint: each estimator checkpoint
// is preceded by a journal sync, so the checkpoint never covers draws
// that a power loss could take from the journal.
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
			rounds := &obs.CollectorSink{}
			cfg.Events = rounds
			rc := p.rc
			rc.Journal = j
			if _, err := Run(context.Background(), equivStack(false), cfg, rc); !errors.Is(err, core.ErrBudgetExhausted) {
				t.Fatalf("err = %v", err)
			}
			j.Close()
			ckpt, err := LoadEstimatorCheckpoint(EstimatorCheckpointPath(path))
			if err != nil {
				t.Fatal(err)
			}
			if ckpt == nil {
				t.Fatal("no checkpoint written")
			}
			checkpoints := rounds.Count("round")
			if checkpoints < 2 || ckpt.RefitCount != checkpoints {
				t.Fatalf("%d rounds, last checkpoint at refit %d", checkpoints, ckpt.RefitCount)
			}
			if got := jm.Syncs.Value(); got != float64(checkpoints) {
				t.Fatalf("journal synced %v times for %d checkpoints", got, checkpoints)
			}
		})
	}
}

// TestRunResumeVerifiesCheckpoint: a resumed Run restores the estimator
// checkpoint, and one that does not match the journal is refused rather
// than silently rebuilt.
func TestRunResumeVerifiesCheckpoint(t *testing.T) {
	const seed, killAt = 3, 137
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, equivHeader(seed))
	if err != nil {
		t.Fatal(err)
	}
	rec := &successRecorder{kill: killAt}
	if _, err := Run(context.Background(), equivStack(false), streamKillConfig(seed),
		RunConfig{Journal: j, Commit: rec.commit}); !errors.Is(err, errKilled) {
		t.Fatalf("kill: err = %v", err)
	}
	j.Close()
	ckptPath := EstimatorCheckpointPath(path)
	ckpt, err := LoadEstimatorCheckpoint(ckptPath)
	if err != nil || ckpt == nil {
		t.Fatalf("no checkpoint after the first refit: %v", err)
	}
	ckpt.Hash = "tampered"
	if err := SaveEstimatorCheckpoint(ckptPath, *ckpt); err != nil {
		t.Fatal(err)
	}
	j, st, err := ResumeJournal(path, equivHeader(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, err = Run(context.Background(), equivStack(false), streamKillConfig(seed), RunConfig{Journal: j, State: st})
	if err == nil || !strings.Contains(err.Error(), "estimator checkpoint hash") {
		t.Fatalf("resume over a tampered checkpoint: err = %v", err)
	}
}
