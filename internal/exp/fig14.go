package exp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"optassign/internal/core"
)

// Figure14Losses are the acceptable performance losses of the case study.
var Figure14Losses = []float64{2.5, 5, 10}

// Figure14Cell is the sample budget the iterative algorithm needed for one
// (benchmark, acceptable loss) pair.
type Figure14Cell struct {
	Benchmark string
	LossPct   float64
	Samples   int
	Satisfied bool
	FinalLoss float64 // headroom at termination, %
	BestPPS   float64
}

// Figure14 runs the §5.3 iterative algorithm (Ninit=1000, Ndelta=100, 0.95
// confidence) for every benchmark at acceptable losses of 2.5%, 5% and
// 10%, reporting the number of random assignments each run needed.
func Figure14(env *Env) ([]Figure14Cell, error) {
	var cells []Figure14Cell
	for _, name := range SuiteNames {
		tb, err := env.Testbed(name, CaseStudyInstances)
		if err != nil {
			return nil, err
		}
		for _, loss := range Figure14Losses {
			cfg := core.IterConfig{
				Topo:          tb.Machine.Topo,
				Tasks:         tb.TaskCount(),
				AcceptLossPct: loss,
				Ninit:         1000,
				Ndelta:        100,
				MaxSamples:    12000,
				Seed:          env.Seed,
			}
			res, err := core.IterateContext(context.Background(), cfg, tb)
			if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
				return nil, fmt.Errorf("exp: %s at %.1f%%: %w", name, loss, err)
			}
			cells = append(cells, Figure14Cell{
				Benchmark: name,
				LossPct:   loss,
				Samples:   res.Samples,
				Satisfied: res.Satisfied,
				FinalLoss: res.Final.HeadroomHiPct,
				BestPPS:   res.Best.Perf,
			})
		}
	}
	return cells, nil
}

// PrintFigure14 renders the required-sample bars.
func PrintFigure14(w io.Writer, cells []Figure14Cell) {
	var groups []BarGroup
	for _, name := range SuiteNames {
		g := BarGroup{Label: name}
		for _, c := range cells {
			if c.Benchmark != name {
				continue
			}
			bar := Bar{Name: fmt.Sprintf("loss %.1f%%", c.LossPct), Value: float64(c.Samples)}
			if !c.Satisfied {
				bar.Name += " (budget hit)"
			}
			g.Bars = append(g.Bars, bar)
		}
		groups = append(groups, g)
	}
	PlotBars(w, "Figure 14: random task assignments needed to reach the acceptable loss", "assignments", groups, 40)
}
