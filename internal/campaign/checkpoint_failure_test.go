package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optassign/internal/core"
	"optassign/internal/evt"
)

// TestRunCheckpointFailureThenResume: a checkpoint save that fails at
// one refit mid-campaign stops the campaign at most one round later. The
// sidecar it leaves is the previous refit's state and verifies against
// the journal, and a Run resumed from the two writes the journal and
// returns the result of the uninterrupted campaign.
//
// Run owns OnRefit only when it holds the journal, so the failing run
// hands Run the journal's commit and a copy of Run's own hook — sync the
// journal, then save — whose save fails at one refit.
func TestRunCheckpointFailureThenResume(t *testing.T) {
	const seed, failAt = 3, 3 // the third refit's save fails
	errSave := errors.New("no space left on device")
	for _, withFaults := range []bool{false, true} {
		refBytes, refRes, refErr := runReference(t, seed, withFaults)
		var states []evt.StreamState
		cfg := streamKillConfig(seed)
		cfg.OnRefit = captureRefits(&states)
		if _, err := core.IterateContext(context.Background(), cfg, equivStack(withFaults)); !errors.Is(err, core.ErrBudgetExhausted) {
			t.Fatalf("capture run: err = %v", err)
		}
		if len(states) <= failAt {
			t.Fatalf("%d refits; the campaign must go on past refit %d", len(states), failAt)
		}
		failed, kept := states[failAt-1], states[failAt-2]

		for _, p := range runPaths {
			t.Run(fmt.Sprintf("faults=%v-%s", withFaults, p.name), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.journal")
				ckptPath := EstimatorCheckpointPath(path)
				j, err := CreateJournal(path, equivHeader(seed))
				if err != nil {
					t.Fatal(err)
				}
				refits := 0
				cfg := streamKillConfig(seed)
				cfg.OnRefit = func(st evt.StreamState) error {
					if err := j.Sync(); err != nil {
						return err
					}
					if refits++; refits == failAt {
						return errSave
					}
					return SaveEstimatorCheckpoint(ckptPath, st)
				}
				rc := p.rc
				rc.Commit = j.Commit
				_, runErr := Run(context.Background(), equivStack(withFaults), cfg, rc)
				if !errors.Is(runErr, errSave) {
					t.Fatalf("err = %v, want the failed save's", runErr)
				}
				if want := fmt.Sprintf("estimator checkpoint at %d samples", failed.N); !strings.Contains(runErr.Error(), want) {
					t.Fatalf("err = %q, want it to name %q", runErr, want)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}

				// The journal ran at most one round past the failed
				// checkpoint, and the sidecar is the refit before it.
				st, err := LoadJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(st.Results) < failed.N || len(st.Results) > failed.N+cfg.Ndelta {
					t.Fatalf("journal holds %d successes; want at most %d past the failed checkpoint's %d",
						len(st.Results), cfg.Ndelta, failed.N)
				}
				ck, err := LoadEstimatorCheckpoint(ckptPath)
				if err != nil || ck == nil {
					t.Fatalf("no sidecar after %d good refits: %v", failAt-1, err)
				}
				if !reflect.DeepEqual(*ck, kept) {
					t.Fatalf("sidecar holds refit %d at n %d; want refit %d at n %d", ck.RefitCount, ck.N, kept.RefitCount, kept.N)
				}
				if got := evt.CommitOrderHash(core.Perfs(st.Results)[:ck.N]); got != ck.Hash {
					t.Fatalf("sidecar hash %s does not match the journal's first %d observations (%s)", ck.Hash, ck.N, got)
				}

				j, js, err := ResumeJournal(path, equivHeader(seed))
				if err != nil {
					t.Fatal(err)
				}
				rc = p.rc
				rc.Journal, rc.State = j, js
				res, err := Run(context.Background(), equivStack(withFaults), streamKillConfig(seed), rc)
				if cerr := j.Close(); cerr != nil {
					t.Fatal(cerr)
				}
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("resumed: err = %v, reference %v", err, refErr)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, refBytes) {
					t.Fatalf("resumed journal differs from the uninterrupted one: %d bytes vs %d", len(data), len(refBytes))
				}
				assertSameResult(t, res, refRes)
			})
		}
	}
}
