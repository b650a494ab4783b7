package campaign

// Journal-level equivalence: a parallel campaign's write-ahead journal
// must be byte-identical to a serial campaign's, including after a
// mid-campaign kill and -resume — that is what makes worker count a pure
// performance knob that operators can change (even between resumes)
// without invalidating anything.

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
	"optassign/internal/evt"
	"optassign/internal/faulty"
	"optassign/internal/obs"
	"optassign/internal/t2"
)

func equivTopo() t2.Topology { return t2.Topology{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 2} }

func equivPerf(a assign.Assignment) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", a.Ctx)
	return 1e6 * (1 + float64(h.Sum64()%1000)/1000)
}

// equivStack builds a measurement stack with order-independent injected
// faults: quarantines land in the journal as failures, deterministically.
func equivStack(withFaults bool) core.ContextRunner {
	base := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		return equivPerf(a), nil
	})
	if !withFaults {
		return base
	}
	inj := faulty.NewRunner(base, faulty.Config{
		Seed:            5,
		PermanentRate:   0.04,
		TransientRate:   0.15,
		KeyByAssignment: true,
	})
	return core.NewResilientRunner(inj, core.ResilientConfig{
		MaxAttempts: 2,
		BaseDelay:   time.Nanosecond,
		MaxDelay:    time.Microsecond,
	})
}

func equivConfig(seed int64) core.IterConfig {
	return core.IterConfig{
		Topo:          equivTopo(),
		Tasks:         3,
		AcceptLossPct: 8,
		Ninit:         100,
		Ndelta:        30,
		MaxSamples:    250,
		Seed:          seed,
		// Test campaigns are tiny; let the threshold scan keep enough
		// exceedances to fit a GPD at 100 samples.
		POT: evt.POTOptions{Threshold: evt.ThresholdOptions{MaxExceedFraction: 0.3}},
	}
}

func equivHeader(seed int64) JournalHeader {
	return JournalHeader{Benchmark: "equiv", Topo: equivTopo(), Tasks: 3, Seed: seed}
}

// runSerialJournaled runs the serial campaign with the PR-1 middleware
// journaling stack and returns the journal bytes.
func runSerialJournaled(t *testing.T, dir string, seed int64, withFaults bool) ([]byte, core.IterResult, error) {
	t.Helper()
	path := filepath.Join(dir, "serial.journal")
	j, err := CreateJournal(path, equivHeader(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, iterErr := core.IterateContext(context.Background(), equivConfig(seed),
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

func TestParallelJournalMatchesSerial(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		for _, seed := range []int64{1, 12} {
			serialBytes, serialRes, serialErr := runSerialJournaled(t, t.TempDir(), seed, withFaults)
			for _, workers := range []int{1, 4, 16} {
				name := fmt.Sprintf("faults=%v-seed%d-workers%d", withFaults, seed, workers)
				t.Run(name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "parallel.journal")
					j, err := CreateJournal(path, equivHeader(seed))
					if err != nil {
						t.Fatal(err)
					}
					pool, err := core.NewReplicatedPool(equivStack(withFaults), workers)
					if err != nil {
						t.Fatal(err)
					}
					res, iterErr := core.IterateParallel(context.Background(), equivConfig(seed), pool, j.Commit)
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(iterErr) != fmt.Sprint(serialErr) {
						t.Fatalf("iterate error %v, serial %v", iterErr, serialErr)
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, serialBytes) {
						t.Fatalf("parallel journal differs from serial:\nparallel %d bytes\nserial %d bytes",
							len(data), len(serialBytes))
					}
					if res.Samples != serialRes.Samples || !reflect.DeepEqual(res.Best, serialRes.Best) {
						t.Fatalf("result (%d, %v) differs from serial (%d, %v)",
							res.Samples, res.Best, serialRes.Samples, serialRes.Best)
					}
				})
			}
		}
	}
}

// equivStackInstrumented is equivStack with the resilient layer's metrics
// attached, for the instrumented-determinism test.
func equivStackInstrumented(withFaults bool, reg *obs.Registry) core.ContextRunner {
	base := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		return equivPerf(a), nil
	})
	if !withFaults {
		return base
	}
	inj := faulty.NewRunner(base, faulty.Config{
		Seed:            5,
		PermanentRate:   0.04,
		TransientRate:   0.15,
		KeyByAssignment: true,
	})
	return core.NewResilientRunner(inj, core.ResilientConfig{
		MaxAttempts: 2,
		BaseDelay:   time.Nanosecond,
		MaxDelay:    time.Microsecond,
		Metrics:     core.NewResilientMetrics(reg),
	})
}

// TestInstrumentedJournalMatchesUninstrumentedSerial is the
// zero-influence guarantee of internal/obs put to the proof: a campaign
// with every instrument attached — resilient, pool, journal and
// iteration metrics — writes the same journal bytes
// and returns the same result as a bare serial run, at every worker
// count.
func TestInstrumentedJournalMatchesUninstrumentedSerial(t *testing.T) {
	const seed = 12
	for _, withFaults := range []bool{false, true} {
		serialBytes, serialRes, serialErr := runSerialJournaled(t, t.TempDir(), seed, withFaults)
		for _, workers := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("faults=%v-workers%d", withFaults, workers), func(t *testing.T) {
				reg := obs.NewRegistry()
				path := filepath.Join(t.TempDir(), "instrumented.journal")
				j, err := CreateJournal(path, equivHeader(seed))
				if err != nil {
					t.Fatal(err)
				}
				j.Instrument(NewJournalMetrics(reg))
				pool, err := core.NewReplicatedPool(equivStackInstrumented(withFaults, reg), workers)
				if err != nil {
					t.Fatal(err)
				}
				pm := core.NewPoolMetrics(reg, workers)
				pool.Instrument(pm)
				cfg := equivConfig(seed)
				im := core.NewIterMetrics(reg)
				rounds := 0
				cfg.OnRound = func(r core.Round) {
					rounds++
					im.Observe(r)
				}
				res, iterErr := core.IterateParallel(context.Background(), cfg, pool, j.Commit)
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(iterErr) != fmt.Sprint(serialErr) {
					t.Fatalf("iterate error %v, serial %v", iterErr, serialErr)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, serialBytes) {
					t.Fatalf("instrumented journal differs from bare serial:\ninstrumented %d bytes\nserial %d bytes",
						len(data), len(serialBytes))
				}
				if res.Samples != serialRes.Samples || !reflect.DeepEqual(res.Best, serialRes.Best) {
					t.Fatalf("result (%d, %v) differs from serial (%d, %v)",
						res.Samples, res.Best, serialRes.Samples, serialRes.Best)
				}
				// The instruments really watched the campaign — equality
				// must not come from instrumentation silently disabled.
				if rounds == 0 {
					t.Error("no rounds reported")
				}
				if got, want := pm.Committed.Value(), float64(res.Samples+len(res.Quarantined)); got != want {
					t.Errorf("committed counter = %v, want %v draws", got, want)
				}
				var expo bytes.Buffer
				if err := reg.WritePrometheus(&expo); err != nil {
					t.Fatal(err)
				}
				for _, series := range []string{
					"optassign_pool_committed_total",
					"optassign_journal_entries_total",
					"optassign_campaign_samples",
				} {
					if !bytes.Contains(expo.Bytes(), []byte(series)) {
						t.Errorf("exposition lacks %s", series)
					}
				}
			})
		}
	}
}

// errKilled simulates the process dying mid-campaign: the measurement
// source (serial) or the commit hook (parallel) starts failing after K
// completed journal entries, so both journals end as the same K-entry
// prefix — the crash signature -resume is built for.
var errKilled = errors.New("killed")

func killSerialAfter(inner core.ContextRunner, j *Journal, k int) core.ContextRunner {
	return core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		if j.Len() >= k {
			return 0, errKilled
		}
		return inner.MeasureContext(ctx, a)
	})
}

func (j *Journal) killCommitAfter(k int) core.CommitFunc {
	return func(a assign.Assignment, perf float64, err error) error {
		if j.Len() >= k {
			return errKilled
		}
		return j.Commit(a, perf, err)
	}
}

// TestParallelKillAndResumeMatchesSerial kills a serial and a parallel
// campaign after the same number of journaled draws, resumes each with the
// other execution mode, and requires the final journals and results to be
// identical — worker count may even change across a resume.
func TestParallelKillAndResumeMatchesSerial(t *testing.T) {
	const seed, killAt = 3, 57
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			dir := t.TempDir()

			// Serial campaign killed after killAt journal entries...
			serialPath := filepath.Join(dir, "serial.journal")
			js, err := CreateJournal(serialPath, equivHeader(seed))
			if err != nil {
				t.Fatal(err)
			}
			stack := core.ContextRunner(JournalRunner{Journal: js, Runner: equivStack(withFaults)})
			_, iterErr := core.IterateContext(context.Background(), equivConfig(seed),
				killSerialAfter(stack, js, killAt))
			if !errors.Is(iterErr, errKilled) {
				t.Fatalf("serial kill: err = %v", iterErr)
			}
			js.Close()

			// ...and a 16-worker parallel campaign killed at the same point.
			parallelPath := filepath.Join(dir, "parallel.journal")
			jp, err := CreateJournal(parallelPath, equivHeader(seed))
			if err != nil {
				t.Fatal(err)
			}
			pool16, err := core.NewReplicatedPool(equivStack(withFaults), 16)
			if err != nil {
				t.Fatal(err)
			}
			_, iterErr = core.IterateParallel(context.Background(), equivConfig(seed), pool16, jp.killCommitAfter(killAt))
			if !errors.Is(iterErr, errKilled) {
				t.Fatalf("parallel kill: err = %v", iterErr)
			}
			jp.Close()

			killedSerial, err := os.ReadFile(serialPath)
			if err != nil {
				t.Fatal(err)
			}
			killedParallel, err := os.ReadFile(parallelPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(killedSerial, killedParallel) {
				t.Fatal("killed journals differ: the parallel journal is not a draw-order prefix")
			}

			// Resume the serial journal with a 4-worker pool...
			resume := func(path string, parallelWorkers int) ([]byte, core.IterResult) {
				t.Helper()
				j, st, err := ResumeJournal(path, equivHeader(seed))
				if err != nil {
					t.Fatal(err)
				}
				if st.Draws != killAt {
					t.Fatalf("recovered %d draws, want %d", st.Draws, killAt)
				}
				cfg := equivConfig(seed)
				cfg.ResumeLog = st.Log
				var res core.IterResult
				var iterErr error
				if parallelWorkers > 0 {
					pool, err := core.NewReplicatedPool(equivStack(withFaults), parallelWorkers)
					if err != nil {
						t.Fatal(err)
					}
					res, iterErr = core.IterateParallel(context.Background(), cfg, pool, j.Commit)
				} else {
					res, iterErr = core.IterateContext(context.Background(), cfg,
						JournalRunner{Journal: j, Runner: equivStack(withFaults)})
				}
				if iterErr != nil && !errors.Is(iterErr, core.ErrBudgetExhausted) {
					t.Fatal(iterErr)
				}
				j.Close()
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data, res
			}
			serialResumed, serialRes := resume(serialPath, 4)
			parallelResumed, parallelRes := resume(parallelPath, 0)

			if !bytes.Equal(serialResumed, parallelResumed) {
				t.Fatal("resumed journals differ between execution modes")
			}
			if serialRes.Samples != parallelRes.Samples || !reflect.DeepEqual(serialRes.Best, parallelRes.Best) {
				t.Fatalf("resumed results differ: (%d, %v) vs (%d, %v)",
					serialRes.Samples, serialRes.Best, parallelRes.Samples, parallelRes.Best)
			}

			// Without faults a killed-and-resumed campaign is also
			// byte-identical to one that never died.
			if !withFaults {
				uninterrupted, _, err := runSerialJournaled(t, t.TempDir(), seed, false)
				if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
					t.Fatal(err)
				}
				if !bytes.Equal(serialResumed, uninterrupted) {
					t.Fatal("kill+resume journal differs from an uninterrupted run's")
				}
			}
		})
	}
}
