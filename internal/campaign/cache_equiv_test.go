package campaign

// Journal-level equivalence of the measurement cache: with a
// class-deterministic testbed (symmetric assignments measure identically —
// the property netdps guarantees and core.CachedRunner assumes), a
// campaign run with the cache enabled must write byte-identical journal
// bytes to one run without it, at any worker count. Errors are never
// memoized, so class-deterministic failures quarantine identically too.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/obs"
)

// cacheEquivPerf hashes the canonical form, so it is class-deterministic:
// exactly the determinism contract a CachedRunner needs from its testbed.
func cacheEquivPerf(a assign.Assignment) float64 {
	h := fnv.New64a()
	fmt.Fprint(h, a.CanonicalKey())
	return 1e6 * (1 + float64(h.Sum64()%1000)/1000)
}

var errCacheEquivDown = errors.New("testbed rejects this class")

// cacheEquivStack builds the measurement stack: a class-deterministic base
// (with, optionally, class-keyed permanent faults and class+attempt-keyed
// transient ones), the resilient retry layer, and — when cache is non-nil
// — the memoization layer outermost, exactly where cmd/optassign puts it.
func cacheEquivStack(withFaults bool, cache *core.Cache) core.ContextRunner {
	base := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		if withFaults {
			h := fnv.New64a()
			fmt.Fprint(h, a.CanonicalKey())
			class := h.Sum64()
			if class%23 == 0 {
				return 0, errCacheEquivDown // permanent: every attempt fails
			}
			if class%5 == 0 && core.Attempt(ctx) == 1 {
				return 0, fmt.Errorf("transient glitch")
			}
		}
		return cacheEquivPerf(a), nil
	})
	r := core.ContextRunner(base)
	if withFaults {
		r = core.NewResilientRunner(r, core.ResilientConfig{
			MaxAttempts: 2,
			BaseDelay:   time.Nanosecond,
			MaxDelay:    time.Microsecond,
		})
	}
	if cache != nil {
		r = core.NewCachedContextRunner(r, cache, "cache-equiv-tb")
	}
	return r
}

// runCacheEquivSerial is the uncached serial baseline.
func runCacheEquivSerial(t *testing.T, seed int64, withFaults bool) ([]byte, loggedResult, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.journal")
	j, err := CreateJournal(path, equivHeader(seed))
	if err != nil {
		t.Fatal(err)
	}
	var base loggedResult
	res, iterErr := core.IterateContext(context.Background(), logRounds(equivConfig(seed), &base.rounds),
		JournalRunner{Journal: j, Runner: cacheEquivStack(withFaults, nil)})
	base.IterResult = res
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, base, iterErr
}

// TestCachedJournalMatchesUncached runs the same campaign with the
// memoization cache on and off, serially and at 4 and 16 pool workers, and
// requires byte-identical journals and results — cache hits must be
// observationally invisible. The hit counter proves equality is not
// vacuous: the 3-task sample on the small test topology is overwhelmingly
// structural duplicates.
func TestCachedJournalMatchesUncached(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		for _, seed := range []int64{1, 12} {
			baseline, baseRes, baseErr := runCacheEquivSerial(t, seed, withFaults)
			for _, workers := range []int{1, 4, 16} {
				name := fmt.Sprintf("faults=%v-seed%d-workers%d", withFaults, seed, workers)
				t.Run(name, func(t *testing.T) {
					reg := obs.NewRegistry()
					cm := core.NewCacheMetrics(reg)
					cache := core.NewCache(0, cm)
					cached := cacheEquivStack(withFaults, cache)

					path := filepath.Join(t.TempDir(), "cached.journal")
					j, err := CreateJournal(path, equivHeader(seed))
					if err != nil {
						t.Fatal(err)
					}
					var res core.IterResult
					var iterErr error
					if workers > 1 {
						pool, err := core.NewReplicatedPool(cached, workers)
						if err != nil {
							t.Fatal(err)
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
						t.Fatalf("cached journal differs from uncached baseline:\ncached %d bytes\nbaseline %d bytes",
							len(data), len(baseline))
					}
					if res.Samples != baseRes.Samples || !reflect.DeepEqual(res.Best, baseRes.Best) {
						t.Fatalf("result (%d, %v) differs from baseline (%d, %v)",
							res.Samples, res.Best, baseRes.Samples, baseRes.Best)
					}
					if cm.Hits.Value() == 0 {
						t.Error("cache recorded no hits: the equivalence check proved nothing")
					}
				})
			}
		}
	}
}
