package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optassign/internal/core"
	"optassign/internal/evt"
)

// TestRunCheckpointFailureThenResume: a journal sync that fails at one
// refit mid-campaign stops the campaign at most one round later, and a
// Run resumed from the journal alone writes the journal and returns the
// result of the uninterrupted campaign.
//
// Run owns OnRefit only when it holds the journal, so the failing run
// hands Run the journal's commit and a copy of Run's own hook — sync the
// journal — that fails at one refit.
func TestRunCheckpointFailureThenResume(t *testing.T) {
	const seed, failAt = 3, 3 // the third refit's sync fails
	errSync := errors.New("input/output error")
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
		failed := states[failAt-1]

		for _, p := range runPaths {
			t.Run(fmt.Sprintf("faults=%v-%s", withFaults, p.name), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.journal")
				j, err := CreateJournal(path, equivHeader(seed))
				if err != nil {
					t.Fatal(err)
				}
				refits := 0
				cfg := streamKillConfig(seed)
				cfg.OnRefit = func(evt.StreamState) error {
					if refits++; refits == failAt {
						return errSync
					}
					return j.Sync()
				}
				rc := p.rc
				rc.Commit = j.Commit
				_, runErr := Run(context.Background(), equivStack(withFaults), cfg, rc)
				if !errors.Is(runErr, errSync) {
					t.Fatalf("err = %v, want the failed sync's", runErr)
				}
				if want := fmt.Sprintf("refit hook at %d samples", failed.N); !strings.Contains(runErr.Error(), want) {
					t.Fatalf("err = %q, want it to name %q", runErr, want)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}

				// The journal ran at most one round past the failed sync.
				st, err := LoadJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(st.Results) < failed.N || len(st.Results) > failed.N+cfg.Ndelta {
					t.Fatalf("journal holds %d successes; want at most %d past the failed sync's %d",
						len(st.Results), cfg.Ndelta, failed.N)
				}

				j, js, err := ResumeJournal(path, equivHeader(seed))
				if err != nil {
					t.Fatal(err)
				}
				rc = p.rc
				rc.Journal, rc.State = j, js
				res, err := runLogged(context.Background(), equivStack(withFaults), streamKillConfig(seed), rc)
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
