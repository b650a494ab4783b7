package campaign

// Journal-level equivalence of the persistent disk tier: layering a
// cas.Store under the LRU must be observationally invisible — same journal
// bytes, same result, at every worker count, with and without faults,
// whether the store is cold, warm from an earlier run (a "previous
// process", simulated by a fresh handle on the same directory), or picked
// up mid-campaign by a -resume after a kill.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"optassign/internal/cas"
	"optassign/internal/core"
	"optassign/internal/obs"
)

// diskCache builds an unbounded LRU backed by a fresh cas.Store handle on
// dir — each call stands in for a new process sharing the directory.
func diskCache(t *testing.T, dir string, cm *core.CacheMetrics) *core.Cache {
	t.Helper()
	store, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	c := core.NewCache(0, cm)
	c.AttachStore(store)
	return c
}

// TestDiskCachedJournalMatchesUncached runs the same campaign serially and
// at 4 and 16 workers, every run with a fresh in-memory cache but all
// sharing one store directory, and requires byte-identical journals to the
// uncached serial baseline. The first run fills the store; later runs must
// prove they were actually served by the disk tier (DiskHits > 0), and in
// the fault-free case must never reach the testbed at all (Misses == 0) —
// the warm store answers every class.
func TestDiskCachedJournalMatchesUncached(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			const seed = 4
			baseline, baseRes, baseErr := runCacheEquivSerial(t, seed, withFaults)
			storeDir := filepath.Join(t.TempDir(), "store")
			for runIdx, workers := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					reg := obs.NewRegistry()
					cm := core.NewCacheMetrics(reg)
					cached := cacheEquivStack(withFaults, diskCache(t, storeDir, cm))

					path := filepath.Join(t.TempDir(), "disk.journal")
					j, err := CreateJournal(path, equivHeader(seed))
					if err != nil {
						t.Fatal(err)
					}
					var res core.IterResult
					var iterErr error
					if workers > 1 {
						pool, perr := core.NewReplicatedPool(cached, workers)
						if perr != nil {
							t.Fatal(perr)
						}
						res, iterErr = core.IterateParallel(context.Background(), equivConfig(seed), pool, j.Commit)
					} else {
						res, iterErr = core.IterateContext(context.Background(), equivConfig(seed),
							JournalRunner{Journal: j, Runner: cached})
					}
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(iterErr) != fmt.Sprint(baseErr) {
						t.Fatalf("iterate error %v, uncached baseline %v", iterErr, baseErr)
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, baseline) {
						t.Fatalf("disk-cached journal differs from uncached baseline:\ndisk-cached %d bytes\nbaseline %d bytes",
							len(data), len(baseline))
					}
					if res.Samples != baseRes.Samples || !reflect.DeepEqual(res.Best, baseRes.Best) {
						t.Fatalf("result (%d, %v) differs from baseline (%d, %v)",
							res.Samples, res.Best, baseRes.Samples, baseRes.Best)
					}
					if runIdx > 0 {
						if cm.DiskHits.Value() == 0 {
							t.Error("warm store served no disk hits: the persistence check proved nothing")
						}
						if !withFaults && cm.Misses.Value() != 0 {
							t.Errorf("warm fault-free run re-measured %.0f classes; the store should answer all of them",
								cm.Misses.Value())
						}
					}
					if cm.DiskErrors.Value() != 0 {
						t.Errorf("disk tier reported %.0f errors", cm.DiskErrors.Value())
					}
				})
			}
		})
	}
}

// TestDiskCacheResumeAfterKill kills a disk-cached campaign mid-run, then
// resumes it as a new process would: cold in-memory cache, fresh store
// handle on the surviving directory. The finished journal must be
// byte-identical to an uninterrupted uncached run, and the continuation
// must actually draw on the persisted measurements.
func TestDiskCacheResumeAfterKill(t *testing.T) {
	const seed, killAt = 3, 57
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			baseline, baseRes, baseErr := runCacheEquivSerial(t, seed, withFaults)
			storeDir := filepath.Join(t.TempDir(), "store")

			killedPath := filepath.Join(t.TempDir(), "killed.journal")
			js, err := CreateJournal(killedPath, equivHeader(seed))
			if err != nil {
				t.Fatal(err)
			}
			stack := core.ContextRunner(JournalRunner{Journal: js,
				Runner: cacheEquivStack(withFaults, diskCache(t, storeDir, nil))})
			_, iterErr := core.IterateContext(context.Background(), equivConfig(seed),
				killSerialAfter(stack, js, killAt))
			if !errors.Is(iterErr, errKilled) {
				t.Fatalf("disk-cached kill: err = %v", iterErr)
			}
			js.Close()
			killed, err := os.ReadFile(killedPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(baseline, killed) {
				t.Fatal("killed disk-cached journal is not a prefix of the uncached baseline")
			}

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

			cm := core.NewCacheMetrics(obs.NewRegistry())
			runner := cacheEquivStack(withFaults, diskCache(t, storeDir, cm))
			res, resumeErr := core.IterateContext(context.Background(), cfg,
				JournalRunner{Journal: j, Runner: runner})
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
			if cm.DiskHits.Value() == 0 {
				t.Error("resume never hit the persisted store: classes measured before the kill were re-measured")
			}
		})
	}
}
