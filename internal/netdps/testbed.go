// Package netdps simulates the paper's measurement environment: a Netra DPS
// style lightweight runtime on an UltraSPARC-T2-class processor. Tasks are
// statically bound to hardware contexts, run to completion with no
// scheduler, interrupts or virtual memory, and communicate through bounded
// memory queues in R→P→T software pipelines (§4.2). A Testbed bundles a
// benchmark, an instance count and a traffic profile, and measures the
// throughput (packets per second) of any task assignment two ways:
//
//   - MeasureAnalytic: the steady-state fixed-point solver of internal/proc
//     plus deterministic measurement noise — fast enough for the tens of
//     thousands of measurements the statistical method consumes;
//   - MeasureEngine: a discrete-event simulation that pushes real packets
//     from the traffic generator through the actual benchmark thread code
//     over bounded queues — the ground truth the analytic path is validated
//     against.
package netdps

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/keyrand"
	"optassign/internal/netgen"
	"optassign/internal/proc"
)

// Testbed is one benchmark configuration on the simulated machine.
type Testbed struct {
	Machine   *proc.Machine
	App       apps.App
	Instances int
	Profile   netgen.Profile
	Seed      int64
	// Noise is the relative half-width of the multiplicative measurement
	// noise applied by MeasureAnalytic: the measured value is the true one
	// scaled by a uniform factor in [1−Noise, 1+Noise]. The noise is
	// bounded — a 1.5-second measurement averages over ~3 million packets,
	// so jitter is tightly confined (the paper's "stable results", §4.4) —
	// which matters statistically: unbounded noise would erase the finite
	// right endpoint the EVT method estimates. It is also deterministic
	// per assignment class: measuring the same assignment twice returns
	// the same value.
	Noise float64

	tasks []proc.Task
	links []proc.Link
}

// Option customizes a Testbed.
type Option func(*Testbed)

// WithSeed sets the measurement-noise and traffic seed.
func WithSeed(seed int64) Option { return func(tb *Testbed) { tb.Seed = seed } }

// WithNoise sets the relative measurement-noise level (0 disables noise).
func WithNoise(noise float64) Option { return func(tb *Testbed) { tb.Noise = noise } }

// WithProfile replaces the default traffic profile.
func WithProfile(p netgen.Profile) Option { return func(tb *Testbed) { tb.Profile = p } }

// NewTestbed assembles a testbed running `instances` pipeline instances of
// app (3 threads each, so 3·instances tasks).
func NewTestbed(app apps.App, instances int, opts ...Option) (*Testbed, error) {
	tb := &Testbed{
		Machine:   proc.UltraSPARCT2Machine(),
		App:       app,
		Instances: instances,
		Profile:   netgen.DefaultProfile(),
		Seed:      1,
		Noise:     0.004,
	}
	for _, opt := range opts {
		opt(tb)
	}
	if instances < 1 {
		return nil, fmt.Errorf("netdps: need at least one instance, got %d", instances)
	}
	if err := tb.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := tb.Profile.Validate(); err != nil {
		return nil, err
	}
	if tb.TaskCount() > tb.Machine.Topo.Contexts() {
		return nil, fmt.Errorf("netdps: %d tasks exceed %d hardware contexts",
			tb.TaskCount(), tb.Machine.Topo.Contexts())
	}
	demands := app.MeanDemands()
	for i := 0; i < instances; i++ {
		for s := 0; s < int(apps.NumStages); s++ {
			tb.tasks = append(tb.tasks, proc.Task{Demand: demands[s], Group: i})
		}
		r, p, t := i*3, i*3+1, i*3+2
		tb.links = append(tb.links,
			proc.Link{A: r, B: p, Volume: apps.CommVolume},
			proc.Link{A: p, B: t, Volume: apps.CommVolume},
		)
	}
	return tb, nil
}

// TaskCount returns the number of schedulable tasks (3 per instance).
func (tb *Testbed) TaskCount() int { return tb.Instances * int(apps.NumStages) }

// Tasks returns the task and link structure presented to the processor
// model (shared slices; callers must not modify them).
func (tb *Testbed) Tasks() ([]proc.Task, []proc.Link) { return tb.tasks, tb.links }

// checkAssignment validates a to this testbed.
func (tb *Testbed) checkAssignment(a assign.Assignment) error {
	if a.Tasks() != tb.TaskCount() {
		return fmt.Errorf("netdps: assignment has %d tasks, testbed needs %d", a.Tasks(), tb.TaskCount())
	}
	if a.Topo != tb.Machine.Topo {
		return fmt.Errorf("netdps: assignment topology %v differs from machine %v", a.Topo, tb.Machine.Topo)
	}
	return a.Validate()
}

// Identity names everything that determines this testbed's measured
// values: the benchmark, instance count, noise seed and level, and the
// traffic profile. It is the identity string for
// core.NewCachedContextRunner, so a shared measurement cache can never
// serve one testbed's performance for another's. (The machine topology
// is appended to cache keys by the cache itself.)
func (tb *Testbed) Identity() string {
	return fmt.Sprintf("netdps|%s|i%d|s%d|n%g|pf%d,%g,%d-%d,%g,%g",
		tb.App.Name(), tb.Instances, tb.Seed, tb.Noise,
		tb.Profile.Flows, tb.Profile.ZipfS, tb.Profile.PayloadMin, tb.Profile.PayloadMax,
		tb.Profile.TCPFraction, tb.Profile.KeywordRate)
}

// MeasureAnalytic returns the measured PPS of the assignment using the
// steady-state solver, with deterministic per-assignment-class measurement
// noise. Symmetric assignments measure identically, as they would on real
// hardware. Up to a full T2 it allocates nothing.
func (tb *Testbed) MeasureAnalytic(a assign.Assignment) (float64, error) {
	if err := tb.checkAssignment(a); err != nil {
		return 0, err
	}
	pps, err := tb.Machine.SolvePPS(tb.tasks, tb.links, a.Ctx)
	if err != nil {
		return 0, err
	}
	if tb.Noise > 0 {
		var buf [320]byte // on the stack; append moves longer keys to the heap
		b := strconv.AppendInt(append(a.AppendCanonicalKey(buf[:0]), '|'), tb.Seed, 10)
		pps *= 1 + tb.Noise*(2*keyrand.Float64(int64(fnv64a(b)))-1)
	}
	return pps, nil
}

// fnv64a is hash/fnv's 64-bit FNV-1a of b — here the bytes of fmt's
// "%s|%d" over the canonical key and seed — without the hash.Hash64 the
// package would allocate.
func fnv64a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Measure implements the core.Runner contract with MeasureAnalytic.
func (tb *Testbed) Measure(a assign.Assignment) (float64, error) { return tb.MeasureAnalytic(a) }

// MeasureContext implements core.ContextRunner with MeasureAnalytic. A
// done ctx returns its error without measuring; a measurement once
// started runs to completion.
func (tb *Testbed) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return tb.MeasureAnalytic(a)
}

// MeasureBatch measures every assignment at once, sharded across
// GOMAXPROCS workers, and returns values and errors index-aligned with
// as. Each value is bit-identical to what MeasureAnalytic returns for the
// same assignment — the analytic solver is deterministic and the noise a
// pure function of (canonical class, seed) — so the batched and serial
// measurement paths are interchangeable wherever order is preserved. It
// satisfies the core batch-measurement contract structurally.
func (tb *Testbed) MeasureBatch(as []assign.Assignment) ([]float64, []error) {
	perfs := make([]float64, len(as))
	errs := make([]error, len(as))
	if len(as) == 0 {
		return perfs, errs
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(as) {
		workers = len(as)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(as); i += workers {
				perfs[i], errs[i] = tb.MeasureAnalytic(as[i])
			}
		}(w)
	}
	wg.Wait()
	return perfs, errs
}
