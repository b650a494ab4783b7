package campaign

// Crossover of -resume and -cache: a cached, journaled campaign killed
// mid-run and then resumed must finish with journal bytes identical to an
// uninterrupted uncached run — whether the resume reuses the warm cache
// object from the killed process, starts with a cold cache, drops the
// cache entirely, or moves to a worker pool. The cache sits below the
// journal, so its warm state must be invisible to the replay of the
// journaled prefix: a hit during replay that consumed or skipped a draw
// would shift every subsequent assignment.

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
	"optassign/internal/obs"
)

func TestResumeCacheCrossover(t *testing.T) {
	const seed, killAt = 3, 57
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			baseline, baseRes, baseErr := runCacheEquivSerial(t, seed, withFaults)

			// Kill a cached serial campaign after killAt journal entries and
			// keep the now-warm cache object and its hit counter alive, as a
			// crashed-and-restarted-in-process supervisor would.
			killedPath := filepath.Join(t.TempDir(), "killed.journal")
			js, err := CreateJournal(killedPath, equivHeader(seed))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			warmMetrics := core.NewCacheMetrics(reg)
			warmCache := core.NewCache(0, warmMetrics)
			stack := core.ContextRunner(JournalRunner{Journal: js, Runner: cacheEquivStack(withFaults, warmCache)})
			_, iterErr := core.IterateContext(context.Background(), equivConfig(seed),
				killSerialAfter(stack, js, killAt))
			if !errors.Is(iterErr, errKilled) {
				t.Fatalf("cached kill: err = %v", iterErr)
			}
			js.Close()
			killed, err := os.ReadFile(killedPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(baseline, killed) {
				t.Fatal("killed cached journal is not a prefix of the uncached baseline")
			}

			cases := []struct {
				name    string
				cache   func() *core.Cache
				workers int
				warm    bool
			}{
				{"warm-serial", func() *core.Cache { return warmCache }, 1, true},
				{"cold-serial", func() *core.Cache { return core.NewCache(0, nil) }, 1, false},
				{"uncached-serial", func() *core.Cache { return nil }, 1, false},
				{"warm-parallel4", func() *core.Cache { return warmCache }, 4, true},
				{"cold-parallel8", func() *core.Cache { return core.NewCache(0, nil) }, 8, false},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					// Every variant resumes its own copy of the killed journal.
					path := filepath.Join(t.TempDir(), "resume.journal")
					if err := os.WriteFile(path, killed, 0o644); err != nil {
						t.Fatal(err)
					}
					j, st, err := ResumeJournal(path, equivHeader(seed))
					if err != nil {
						t.Fatal(err)
					}
					if st.Draws != killAt {
						t.Fatalf("recovered %d draws, want %d", st.Draws, killAt)
					}
					cfg := equivConfig(seed)
					cfg.ResumeLog = st.Log

					hitsBefore := warmMetrics.Hits.Value()
					runner := cacheEquivStack(withFaults, tc.cache())
					var res core.IterResult
					var resumeErr error
					if tc.workers > 1 {
						pool, err := core.NewReplicatedPool(runner, tc.workers)
						if err != nil {
							t.Fatal(err)
						}
						res, resumeErr = core.IterateParallel(context.Background(), cfg, pool, j.Commit)
					} else {
						res, resumeErr = core.IterateContext(context.Background(), cfg,
							JournalRunner{Journal: j, Runner: runner})
					}
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(resumeErr) != fmt.Sprint(baseErr) {
						t.Fatalf("resume error %v, uninterrupted baseline %v", resumeErr, baseErr)
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, baseline) {
						t.Fatalf("resumed journal differs from uninterrupted uncached baseline:\nresumed %d bytes\nbaseline %d bytes",
							len(data), len(baseline))
					}
					if res.Samples != baseRes.Samples || !reflect.DeepEqual(res.Best, baseRes.Best) {
						t.Fatalf("result (%d, %v) differs from baseline (%d, %v)",
							res.Samples, res.Best, baseRes.Samples, baseRes.Best)
					}
					if tc.warm && warmMetrics.Hits.Value() == hitsBefore {
						t.Error("warm-cache resume recorded no new hits: warm-state was never exercised")
					}
				})
			}
		})
	}
}
