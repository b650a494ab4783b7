package cycle

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"optassign/internal/proc"
	"optassign/internal/t2"
)

// diffWorkload is one randomized trial for the differential test: a
// workload, a placement and a config, all generated from the trial RNG.
type diffWorkload struct {
	machine   *proc.Machine
	tasks     []proc.Task
	links     []proc.Link
	placement []int
	cfg       Config
	packets   int
}

// randomDemand draws a demand vector covering every op class the program
// builder emits: issue work, LSU work, miss latency split over several
// resources, and serial regions — with zeros common enough to exercise the
// degenerate single-op program.
func randomDemand(rng *rand.Rand) proc.Demand {
	var d proc.Demand
	if rng.Intn(4) > 0 {
		d.Res[proc.IFU] = float64(rng.Intn(20))
		d.Res[proc.IEU] = float64(rng.Intn(60))
	}
	if rng.Intn(3) > 0 {
		d.Res[proc.LSU] = float64(rng.Intn(40))
	}
	if rng.Intn(3) > 0 {
		d.Res[proc.L1D] = float64(rng.Intn(80))
		d.Res[proc.L2] = float64(rng.Intn(30))
		d.Res[proc.MEM] = float64(rng.Intn(25))
	}
	if rng.Intn(2) == 0 {
		d.Serial = float64(rng.Intn(50))
	}
	return d
}

// randomWorkload draws a workload of 1–4 pipeline instances (occasionally
// with a gap in the group numbering, which newSim tolerates and the rollup
// must handle), random demands, R→P/P→T links and a random distinct
// placement.
func randomWorkload(rng *rand.Rand, m *proc.Machine) diffWorkload {
	topo := m.Topo
	maxGroups := topo.Contexts() / 3
	if maxGroups > 4 {
		maxGroups = 4
	}
	nGroups := 1 + rng.Intn(maxGroups)
	gap := 0
	if nGroups < maxGroups && rng.Intn(4) == 0 {
		gap = 1 + rng.Intn(2) // sparse group indices: groups {gap, gap+1, ...}
	}
	var tasks []proc.Task
	var links []proc.Link
	for g := 0; g < nGroups; g++ {
		base := len(tasks)
		for stage := 0; stage < 3; stage++ {
			tasks = append(tasks, proc.Task{Demand: randomDemand(rng), Group: g + gap})
		}
		links = append(links,
			proc.Link{A: base, B: base + 1, Volume: 1},
			proc.Link{A: base + 1, B: base + 2, Volume: 1})
	}
	perm := rng.Perm(topo.Contexts())
	placement := perm[:len(tasks)]
	cfg := Config{QueueDepth: 1 + rng.Intn(64)}
	if rng.Intn(5) == 0 {
		// Some trials must abort: both loops have to produce the identical
		// error at the identical point.
		cfg.MaxCycles = int64(5 + rng.Intn(200))
	}
	return diffWorkload{
		machine:   m,
		tasks:     tasks,
		links:     links,
		placement: placement,
		cfg:       cfg,
		packets:   10 + rng.Intn(50),
	}
}

func (w diffWorkload) newSim(t testing.TB) *sim {
	s, err := newSim(w.machine, w.tasks, w.links, w.placement, w.cfg)
	if err != nil {
		t.Fatalf("newSim: %v (workload %+v)", err, w)
	}
	return s
}

// checkEquivalent runs the event-driven loop and the reference polling loop
// on two identically-constructed simulators and requires bit-identical
// Results (cycles, PPS, busy counters, blocked counts) and identical
// errors.
func checkEquivalent(t *testing.T, w diffWorkload) {
	t.Helper()
	fast, ferr := w.newSim(t).Run(w.packets)
	ref, rerr := w.newSim(t).runReference(w.packets)
	if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
		t.Fatalf("error mismatch: event-driven %v vs reference %v\nworkload: %+v", ferr, rerr, w)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("Result mismatch:\nevent-driven: %+v\nreference:    %+v\nworkload: %+v", fast, ref, w)
	}
}

// TestRunMatchesReferenceRandomized is the differential proof required by
// the event-driven rewrite: across randomized workloads, placements, queue
// depths and MaxCycles bounds on two machine shapes, Run reproduces the
// original per-cycle polling loop exactly.
func TestRunMatchesReferenceRandomized(t *testing.T) {
	small := *proc.UltraSPARCT2Machine()
	small.Topo = t2.Topology{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 2}
	machines := []*proc.Machine{proc.UltraSPARCT2Machine(), &small}
	for mi, m := range machines {
		rng := rand.New(rand.NewSource(int64(41 + mi)))
		for trial := 0; trial < 40; trial++ {
			checkEquivalent(t, randomWorkload(rng, m))
		}
	}
}

// TestRunMatchesReferenceIdleJump targets the clock-jump path: enormous
// serial regions park the whole machine for long stretches, which the
// event-driven loop skips in one step and the reference loop grinds
// through cycle by cycle.
func TestRunMatchesReferenceIdleJump(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	var d proc.Demand
	d.Res[proc.IEU] = 3
	d.Serial = 2000
	tasks := []proc.Task{{Demand: d, Group: 0}, {Demand: d, Group: 0}, {Demand: d, Group: 0}}
	links := []proc.Link{{A: 0, B: 1, Volume: 1}, {A: 1, B: 2, Volume: 1}}
	w := diffWorkload{
		machine: m, tasks: tasks, links: links,
		placement: []int{0, 17, 34}, // spread across cores: comm parks too
		cfg:       Config{},
		packets:   8,
	}
	checkEquivalent(t, w)

	// Same workload with MaxCycles landing inside an idle stretch: the jump
	// must still abort exactly where the polling loop would.
	for _, mc := range []int64{100, 2001, 2050, 16000, 17000} {
		w.cfg = Config{MaxCycles: mc}
		checkEquivalent(t, w)
	}
}

// TestRunIsolatedGroupFinishesIndependently pins the completion counter: a
// fast group must not keep the simulation alive once every group hit the
// packet target, and per-group PPS must reflect any extra packets a
// finished transmitter drained while slower groups ran on (exactly as the
// reference loop allows).
func TestRunIsolatedGroupFinishesIndependently(t *testing.T) {
	m := proc.UltraSPARCT2Machine()
	var fast, slow proc.Demand
	fast.Res[proc.IEU] = 2
	slow.Res[proc.IEU] = 40
	slow.Serial = 300
	mk := func(d proc.Demand, g int) []proc.Task {
		return []proc.Task{{Demand: d, Group: g}, {Demand: d, Group: g}, {Demand: d, Group: g}}
	}
	tasks := append(mk(fast, 0), mk(slow, 1)...)
	links := []proc.Link{
		{A: 0, B: 1, Volume: 1}, {A: 1, B: 2, Volume: 1},
		{A: 3, B: 4, Volume: 1}, {A: 4, B: 5, Volume: 1},
	}
	topo := m.Topo
	placement := []int{
		topo.Context(0, 0, 0), topo.Context(0, 0, 1), topo.Context(0, 1, 0),
		topo.Context(1, 0, 0), topo.Context(1, 0, 1), topo.Context(1, 1, 0),
	}
	w := diffWorkload{machine: m, tasks: tasks, links: links, placement: placement, cfg: Config{}, packets: 25}
	checkEquivalent(t, w)
}

// BenchmarkSimRun compares the event-driven loop against the reference
// polling loop on the standard single-instance workload. Construction is
// included in both arms (Run consumes the sim), so the delta understates
// the pure loop speedup.
func BenchmarkSimRun(b *testing.B) {
	m := proc.UltraSPARCT2Machine()
	tasks := mkTriple(heavyP())
	links := []proc.Link{{A: 0, B: 1, Volume: 1}, {A: 1, B: 2, Volume: 1}}
	topo := m.Topo
	placement := []int{topo.Context(0, 1, 0), topo.Context(0, 0, 0), topo.Context(0, 1, 1)}
	b.Run("event", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := newSim(m, tasks, links, placement, Config{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := newSim(m, tasks, links, placement, Config{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.runReference(100); err != nil {
				b.Fatal(err)
			}
		}
	})
}
