package calibrate

import (
	"context"
	"fmt"
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/search"
	"optassign/internal/t2"
)

// additivePopulation is a smooth synthetic landscape: every context c
// carries a fixed weight w[c] (a seeded shuffle of evenly spaced values)
// and perf(a) = Σ w[c_i]. Its optimum is the sum of the tasks largest
// weights, known exactly. Unlike HashGPDPopulation the landscape is
// smooth under local moves — relocating one task changes one addend — so
// hill climbing genuinely works here. That makes it the contamination
// probe: an adaptive strategy's exploration draws cluster near the
// incumbent, and letting them into the tail fit visibly wrecks the
// estimate, while the strategy's uniform draws keep it honest.
type additivePopulation struct {
	topo  t2.Topology
	tasks int
	w     []float64
	best  float64
}

// newAdditivePopulation builds the landscape with weights shuffled by the
// given seed (via search.RepSeed, the project's derivation).
func newAdditivePopulation(topo t2.Topology, tasks int, seed int64) (*additivePopulation, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	v := topo.Contexts()
	if tasks < 1 || tasks > v {
		return nil, fmt.Errorf("calibrate: %d tasks do not fit %d contexts", tasks, v)
	}
	p := &additivePopulation{topo: topo, tasks: tasks, w: make([]float64, v)}
	for i := range p.w {
		// Evenly spaced weights with a mild convex bend so the top is
		// distinct but not isolated.
		u := float64(i+1) / float64(v)
		p.w[i] = 100 * u * u
	}
	rng := rand.New(rand.NewSource(search.RepSeed(seed, 0)))
	rng.Shuffle(v, func(i, j int) { p.w[i], p.w[j] = p.w[j], p.w[i] })
	// The optimum takes the tasks largest weights — placement order is
	// irrelevant to a sum.
	sorted := append([]float64(nil), p.w...)
	for i := 0; i < tasks; i++ { // partial selection sort: tasks « v
		maxAt := i
		for j := i + 1; j < v; j++ {
			if sorted[j] > sorted[maxAt] {
				maxAt = j
			}
		}
		sorted[i], sorted[maxAt] = sorted[maxAt], sorted[i]
		p.best += sorted[i]
	}
	return p, nil
}

// Name implements AssignPop.
func (p *additivePopulation) Name() string {
	return fmt.Sprintf("additive(%d contexts,%d tasks)", len(p.w), p.tasks)
}

// TrueOptimum implements AssignPop.
func (p *additivePopulation) TrueOptimum() float64 { return p.best }

// Topo implements AssignPop.
func (p *additivePopulation) Topo() t2.Topology { return p.topo }

// Tasks implements AssignPop.
func (p *additivePopulation) Tasks() int { return p.tasks }

// Runner implements AssignPop.
func (p *additivePopulation) Runner() core.ContextRunner {
	return core.ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) {
		s := 0.0
		for _, c := range a.Ctx {
			s += p.w[c]
		}
		return s, nil
	})
}
