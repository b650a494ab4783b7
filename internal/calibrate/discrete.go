package calibrate

import (
	"context"
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/t2"
)

// DiscretePopulation is an assignment-like population: the finite set of
// canonical assignment classes of a simulated testbed, each with its
// class-deterministic measured performance. A draw is a uniformly random
// assignment mapped to its class value — exactly the sampling process of
// the real method — so the sample is heavily tied (thousands of draws
// collapse onto ~1.5k distinct values) and quantized, the regime that
// stresses threshold tie handling and degenerate-tail guards. The true
// optimum is the exhaustive maximum over all classes, known by enumeration
// exactly as in the Figure 1 motivation study.
type DiscretePopulation struct {
	name  string
	topo  t2.Topology
	tasks int
	perf  map[string]float64 // canonical class key → measured performance
	best  float64
}

// NewDiscretePopulation enumerates every canonical assignment class of the
// testbed's workload, measures each once with MeasureAnalytic, and returns
// the resulting finite population. With 2 instances (6 tasks) on the full
// T2 this is the ~1.5k-class population of the paper's Figure 1.
func NewDiscretePopulation(tb *netdps.Testbed) (*DiscretePopulation, error) {
	all, err := assign.Enumerate(tb.Machine.Topo, tb.TaskCount(), 0)
	if err != nil {
		return nil, err
	}
	p := &DiscretePopulation{
		name:  fmt.Sprintf("discrete(%s,%d classes)", tb.App.Name(), len(all)),
		topo:  tb.Machine.Topo,
		tasks: tb.TaskCount(),
		perf:  make(map[string]float64, len(all)),
	}
	for _, a := range all {
		v, err := tb.MeasureAnalytic(a)
		if err != nil {
			return nil, err
		}
		p.perf[a.CanonicalKey()] = v
		if v > p.best {
			p.best = v
		}
	}
	return p, nil
}

// Name implements Population.
func (p *DiscretePopulation) Name() string { return p.name }

// TrueOptimum implements Population: the exhaustive maximum over classes.
func (p *DiscretePopulation) TrueOptimum() float64 { return p.best }

// Sample implements Population: each draw is a uniformly random assignment
// looked up by canonical class — the same draw distribution core's
// CollectSampleContext uses, without the solver cost.
func (p *DiscretePopulation) Sample(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		a, err := assign.Random(rng, p.topo, p.tasks)
		if err != nil {
			// Topology and task count were validated at construction; a
			// failure here is a programming error.
			panic(err)
		}
		xs[i] = p.perf[a.CanonicalKey()]
	}
	return xs
}

// Topo and Tasks expose the workload shape for driving
// core.IterateContext against this population.
func (p *DiscretePopulation) Topo() t2.Topology { return p.topo }

// Tasks returns the workload's task count.
func (p *DiscretePopulation) Tasks() int { return p.tasks }

// Runner returns a core.ContextRunner serving measurements from the
// precomputed class map. It measures identically to the backing testbed
// (the map holds MeasureAnalytic values) at map-lookup cost, so
// iterative-loop calibration can afford thousands of full campaigns.
func (p *DiscretePopulation) Runner() core.ContextRunner {
	return core.ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) {
		v, ok := p.perf[a.CanonicalKey()]
		if !ok {
			return 0, fmt.Errorf("calibrate: assignment class %q outside the enumerated population", a.CanonicalKey())
		}
		return v, nil
	})
}
