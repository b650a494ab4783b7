// Package optassign's root-level benchmarks regenerate each of the paper's
// tables and figures (one benchmark per artifact, per DESIGN.md §4) plus
// the ablation studies of DESIGN.md §5. Run them with
//
//	go test -bench=. -benchmem
//
// The b.N loop re-runs the complete experiment; reported ns/op is the cost
// of regenerating the artifact once.
package optassign

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/campaign"
	"optassign/internal/cas"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/exp"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/t2"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1()
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintTable1(io.Discard, rows)
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := exp.NewEnv(1)
		rows, err := exp.Figure1(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure1(io.Discard, rows)
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := exp.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure2(io.Discard, curves)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := exp.NewEnv(1)
		r, err := exp.Figure3(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure3(io.Discard, r)
	}
}

func BenchmarkFigure45(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure45(1)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure45(io.Discard, r)
	}
}

func BenchmarkFigure6(b *testing.B) {
	env := exp.NewEnv(1) // sample collection is shared across iterations
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure6(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure6(io.Discard, r)
	}
}

func BenchmarkFigure7(b *testing.B) {
	env := exp.NewEnv(1)
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure7(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure7(io.Discard, r)
	}
}

// BenchmarkFigure10 through BenchmarkFigure12 share the estimation study;
// each regenerates its own projection.
func BenchmarkFigure10(b *testing.B) {
	env := exp.NewEnv(1)
	for i := 0; i < b.N; i++ {
		cells, err := exp.EstimationStudy(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure10(io.Discard, cells)
	}
}

func BenchmarkFigure11(b *testing.B) {
	env := exp.NewEnv(1)
	for i := 0; i < b.N; i++ {
		cells, err := exp.EstimationStudy(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure11(io.Discard, cells)
	}
}

func BenchmarkFigure12(b *testing.B) {
	env := exp.NewEnv(1)
	for i := 0; i < b.N; i++ {
		cells, err := exp.EstimationStudy(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure12(io.Discard, cells)
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := exp.NewEnv(1)
		cells, err := exp.Figure14(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintFigure14(io.Discard, cells)
	}
}

// --- Ablation benches (DESIGN.md §5) ------------------------------------

// sampleForAblation draws one 2000-measurement IPFwd-L1 sample.
func sampleForAblation(b *testing.B) []float64 {
	b.Helper()
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rs, err := core.CollectSample(rng, tb.Machine.Topo, tb.TaskCount(), 2000, tb)
	if err != nil {
		b.Fatal(err)
	}
	return core.Perfs(rs)
}

// BenchmarkAblationThreshold compares the three threshold rules on the same
// sample: the fit-scored scan (default), the raw 5% cap, and the
// mean-excess linearity scan.
func BenchmarkAblationThreshold(b *testing.B) {
	perfs := sampleForAblation(b)
	for _, rule := range []struct {
		name string
		rule evt.ThresholdRule
	}{
		{"auto", evt.RuleAuto},
		{"maxfraction", evt.RuleMaxFraction},
		{"linearity", evt.RuleLinearityScan},
	} {
		b.Run(rule.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := evt.SelectThreshold(perfs, evt.ThresholdOptions{Rule: rule.rule}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEstimator compares maximum-likelihood and
// method-of-moments GPD estimation.
func BenchmarkAblationEstimator(b *testing.B) {
	perfs := sampleForAblation(b)
	thr, err := evt.SelectThreshold(perfs, evt.ThresholdOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evt.FitGPD(thr.Exceedances); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("moments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evt.FitGPDMoments(thr.Exceedances); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pwm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evt.FitGPDPWM(thr.Exceedances); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationConfidenceInterval compares the Wilks likelihood-ratio
// interval construction against the parametric bootstrap (with both
// refitting estimators).
func BenchmarkAblationConfidenceInterval(b *testing.B) {
	perfs := sampleForAblation(b)
	thr, err := evt.SelectThreshold(perfs, evt.ThresholdOptions{})
	if err != nil {
		b.Fatal(err)
	}
	fit, err := evt.FitGPD(thr.Exceedances)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wilks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evt.UPBConfidenceInterval(thr.U, thr.Exceedances, fit, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bootstrap-mle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evt.BootstrapUPB(thr.U, thr.Exceedances, fit, evt.BootstrapOptions{Replicates: 200, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bootstrap-pwm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evt.BootstrapUPB(thr.U, thr.Exceedances, fit, evt.BootstrapOptions{Replicates: 200, Seed: 1, Estimator: evt.FitGPDPWM}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionSchedulerStudy regenerates the schedulers-vs-optimum
// comparison table.
func BenchmarkExtensionSchedulerStudy(b *testing.B) {
	env := exp.NewEnv(1)
	for i := 0; i < b.N; i++ {
		cells, err := exp.SchedulerStudy(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintSchedulerStudy(io.Discard, cells)
	}
}

// BenchmarkExtensionPredictorStudy regenerates the §5.4 integrated-approach
// table.
func BenchmarkExtensionPredictorStudy(b *testing.B) {
	env := exp.NewEnv(1)
	for i := 0; i < b.N; i++ {
		cells, err := exp.PredictorStudy(env)
		if err != nil {
			b.Fatal(err)
		}
		exp.PrintPredictorStudy(io.Discard, cells)
	}
}

// BenchmarkAblationEngine compares the analytic steady-state measurement
// against the discrete-event engine on the same assignment.
func BenchmarkAblationEngine(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tb.MeasureAnalytic(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("event-engine-2k-packets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tb.MeasureEngine(a, 2000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeasurement is the hot path of the whole method: one random
// assignment generated and measured.
func BenchmarkMeasurement(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewStateful(), 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tb.MeasureAnalytic(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycleSim measures one full cycle-accurate measurement of a
// random case-study assignment (24 tasks, 200 packets per pipeline) — the
// hot loop of the event-driven simulator rewrite.
func BenchmarkCycleSim(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.MeasureCycle(a, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedSampling draws a duplicate-heavy random sample (one
// pipeline instance: 3 tasks on 64 contexts, a handful of canonical
// classes) through the analytic testbed three ways: uncached, through a
// cold canonical-form cache built per iteration, and through a warm one.
// The warm case is the steady state of a long campaign, where nearly every
// draw is a structural duplicate of an earlier one.
func BenchmarkCachedSampling(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 1)
	if err != nil {
		b.Fatal(err)
	}
	const draws = 500
	sample := func(b *testing.B, runner core.Runner) {
		rng := rand.New(rand.NewSource(6))
		if _, err := core.CollectSample(rng, tb.Machine.Topo, tb.TaskCount(), draws, runner); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sample(b, tb)
		}
	})
	b.Run("cache-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sample(b, core.NewCachedRunner(tb, core.NewCache(0, nil), tb.Identity()))
		}
	})
	b.Run("cache-warm", func(b *testing.B) {
		cached := core.NewCachedRunner(tb, core.NewCache(0, nil), tb.Identity())
		sample(b, cached) // populate every class before timing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sample(b, cached)
		}
	})
}

// BenchmarkBatchSampling compares cold cycle-path sampling per assignment
// (one Sim built and run per draw) against the core-sharded batch path
// (one BatchSim, shared packet programs, arena strands, all CPUs). The
// ratio is the wall-clock speedup -batch buys a cold campaign; the CI gate
// TestBatchSamplingSpeedup pins it at >= 2x on multi-core runners.
func BenchmarkBatchSampling(b *testing.B) {
	tb, as := batchSamplingFixture(b)
	const packets = 200
	b.Run("per-assignment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, a := range as {
				if _, err := tb.MeasureCycle(a, packets); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, errs := tb.MeasureCycleBatch(as, packets)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func batchSamplingFixture(tb testing.TB) (*netdps.Testbed, []assign.Assignment) {
	tb.Helper()
	t, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	as := make([]assign.Assignment, 64)
	for i := range as {
		a, err := assign.RandomPermutation(rng, t.Machine.Topo, t.TaskCount())
		if err != nil {
			tb.Fatal(err)
		}
		as[i] = a
	}
	return t, as
}

// TestBatchSamplingSpeedup is the CI perf gate on the batch tentpole: on a
// multi-core runner, batched cold sampling must be at least 2x faster than
// per-assignment sampling over the identical draw set. Skipped on boxes
// too small for core sharding to pay (the CI runners have 4 vCPUs).
func TestBatchSamplingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the sharding gate, have %d", runtime.NumCPU())
	}
	tb, as := batchSamplingFixture(t)
	const packets, reps = 200, 3
	tb.MeasureCycleBatch(as[:1], packets) // build the shared BatchSim outside timing
	timeIt := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := timeIt(func() {
		for _, a := range as {
			if _, err := tb.MeasureCycle(a, packets); err != nil {
				t.Fatal(err)
			}
		}
	})
	batched := timeIt(func() {
		_, errs := tb.MeasureCycleBatch(as, packets)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if speedup := float64(serial) / float64(batched); speedup < 2 {
		t.Fatalf("batched sampling speedup %.2fx (serial %v, batched %v), gate requires >= 2x",
			speedup, serial, batched)
	}
}

// TestCycleMeasurementAllocBudget pins the cycle simulator's allocation
// count per measurement (satellite of the batch tentpole: the wake-heap
// and rollup buffers must stay hoisted). The budget is the seed's 52; a
// regression here means a reusable buffer went back to per-run make().
func TestCycleMeasurementAllocBudget(t *testing.T) {
	tb, as := batchSamplingFixture(t)
	a := as[0]
	if _, err := tb.MeasureCycle(a, 200); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := tb.MeasureCycle(a, 200); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 52 {
		t.Fatalf("MeasureCycle costs %.0f allocs, budget is 52 (seed baseline)", allocs)
	}
}

// BenchmarkDiskCachedSampling draws the duplicate-heavy sample of
// BenchmarkCachedSampling through the two-tier cache: cold (empty LRU,
// empty store), and warm-disk — a fresh process whose LRU is empty but
// whose store directory survives. The warm-disk case is the steady state
// of repeated campaigns over one -cache-dir.
func BenchmarkDiskCachedSampling(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 1)
	if err != nil {
		b.Fatal(err)
	}
	const draws = 500
	sample := func(b *testing.B, runner core.Runner) {
		rng := rand.New(rand.NewSource(6))
		if _, err := core.CollectSample(rng, tb.Machine.Topo, tb.TaskCount(), draws, runner); err != nil {
			b.Fatal(err)
		}
	}
	diskRunner := func(dir string) core.Runner {
		store, err := cas.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		c := core.NewCache(0, nil)
		c.AttachStore(store)
		return core.NewCachedRunner(tb, c, tb.Identity())
	}
	b.Run("disk-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := filepath.Join(b.TempDir(), "store")
			b.StartTimer()
			sample(b, diskRunner(dir))
		}
	})
	b.Run("disk-warm", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "store")
		sample(b, diskRunner(dir)) // a prior process fills the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sample(b, diskRunner(dir)) // fresh LRU + fresh handle every run
		}
	})
}

// BenchmarkIterative runs the full §5.3 algorithm at a 5% target.
func BenchmarkIterative(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := core.IterConfig{
			Topo: tb.Machine.Topo, Tasks: tb.TaskCount(),
			AcceptLossPct: 5, Ninit: 1000, Ndelta: 100, MaxSamples: 12000, Seed: 1,
		}
		if _, err := core.Iterate(cfg, tb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterateCampaign is one serial §5.3 campaign at the shape of
// a timed benchmark campaign: IPFwd-L1 on 8 instances (24 tasks), the
// paper's schedule, a 0.01% target that is out of reach, so every run
// spends its whole 10,000-draw budget over 91 refits. The OnRefit hook
// counts refits in memory instead of writing a checkpoint, so the cost is
// search, measurement and refit, with the next round drawn during each
// refit.
func BenchmarkIterateCampaign(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	refits := 0
	cfg := core.IterConfig{
		Topo: tb.Machine.Topo, Tasks: tb.TaskCount(),
		AcceptLossPct: 0.01, Ninit: 1000, Ndelta: 100, MaxSamples: 10000, Seed: 1,
		OnRefit: func(evt.StreamState) error { refits++; return nil },
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refits = 0
		if _, err := core.Iterate(cfg, tb); !errors.Is(err, core.ErrBudgetExhausted) {
			b.Fatalf("err = %v, want the budget exhausted", err)
		}
		if refits != 91 {
			b.Fatalf("%d refits, want 91", refits)
		}
	}
}

// BenchmarkIterateCampaignCheckpointed is BenchmarkIterateCampaign with
// the estimator checkpoint a journaled campaign writes: the OnRefit hook
// saves every refit's state atomically (JSON, temp file, fsync, rename,
// directory fsync) into a temporary directory. The save runs beside the
// next round, so the gap to BenchmarkIterateCampaign is what of it stays
// on the critical path.
func BenchmarkIterateCampaignCheckpointed(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "campaign.journal.estimator")
	saves := 0
	cfg := core.IterConfig{
		Topo: tb.Machine.Topo, Tasks: tb.TaskCount(),
		AcceptLossPct: 0.01, Ninit: 1000, Ndelta: 100, MaxSamples: 10000, Seed: 1,
		OnRefit: func(st evt.StreamState) error {
			saves++
			return campaign.SaveEstimatorCheckpoint(path, st)
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		saves = 0
		if _, err := core.Iterate(cfg, tb); !errors.Is(err, core.ErrBudgetExhausted) {
			b.Fatalf("err = %v, want the budget exhausted", err)
		}
		if saves != 91 {
			b.Fatalf("%d checkpoints, want 91", saves)
		}
	}
}

// BenchmarkAssignmentGenerators compares the paper-faithful rejection
// sampler with the Fisher-Yates generator at two machine loads.
func BenchmarkAssignmentGenerators(b *testing.B) {
	topo := t2.UltraSPARCT2()
	for _, tasks := range []int{24, 60} {
		rng := rand.New(rand.NewSource(4))
		if tasks <= 32 {
			b.Run(benchName("rejection", tasks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := assign.Random(rng, topo, tasks); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(benchName("fisher-yates", tasks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assign.RandomPermutation(rng, topo, tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(kind string, tasks int) string {
	return kind + "-" + string(rune('0'+tasks/10)) + string(rune('0'+tasks%10)) + "tasks"
}

// BenchmarkPacketGeneration measures the NTGen-substitute throughput.
func BenchmarkPacketGeneration(b *testing.B) {
	gen, err := netgen.NewGenerator(netgen.DefaultProfile(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes += int64(len(gen.Next().Raw))
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkCampaignEndToEnd runs one complete journaled measurement round
// serially and through an 8-worker pool over a runner with a fixed
// per-measurement delay — the end-to-end campaign-time comparison behind
// the parallel fan-out (the real testbed costs ~1.5 s per measurement,
// §5.4; the ratio here is the wall-clock speedup N testbeds buy).
func BenchmarkCampaignEndToEnd(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	delayed := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		time.Sleep(500 * time.Microsecond)
		return tb.MeasureAnalytic(a)
	})
	const draws = 64
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j, err := campaign.CreateJournal(filepath.Join(b.TempDir(), "c.journal"),
				campaign.JournalHeader{Benchmark: "bench", Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			_, _, err = core.CollectSampleContext(context.Background(),
				rand.New(rand.NewSource(1)), tb.Machine.Topo, tb.TaskCount(), draws,
				campaign.JournalRunner{Journal: j, Runner: delayed})
			if err != nil {
				b.Fatal(err)
			}
			j.Close()
		}
	})
	b.Run("parallel-8", func(b *testing.B) {
		pool, err := core.NewReplicatedPool(delayed, 8)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			j, err := campaign.CreateJournal(filepath.Join(b.TempDir(), "c.journal"),
				campaign.JournalHeader{Benchmark: "bench", Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			_, _, err = core.CollectSampleParallel(context.Background(),
				rand.New(rand.NewSource(1)), tb.Machine.Topo, tb.TaskCount(), draws, pool, j.Commit)
			if err != nil {
				b.Fatal(err)
			}
			j.Close()
		}
	})
}
