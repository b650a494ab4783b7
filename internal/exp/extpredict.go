package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/predict"
)

// PredictorCell is one row of the §5.4 integrated-approach study: the
// optimal-performance estimate obtained from *predicted* sample values at a
// given predictor error level, compared with the measurement-based
// estimate.
type PredictorCell struct {
	Benchmark string
	RelError  float64 // the predictor's injected error half-width
	Measured  float64 // estimate from measured performance
	Predicted float64 // estimate from predicted performance
	DeltaPct  float64 // |Predicted − Measured| / Measured · 100
	// PickAgreePct is the predicted sample's best assignment measured on
	// the testbed, as a percentage of the measured sample's best — "did the
	// predictor point at an equally good assignment?".
	PickAgreePct float64
}

// PredictorStudyBenchmarks are the workloads used by the §5.4 study.
var PredictorStudyBenchmarks = []string{"IPFwd-L1", "Stateful"}

// PredictorErrorLevels are the injected predictor inaccuracies studied.
var PredictorErrorLevels = []float64{0, 0.01, 0.05}

// PredictorStudy implements the paper's §5.4 proposal: feed the statistical
// analysis with a performance predictor's output instead of measurements,
// and quantify how the accuracy of the integrated approach depends on the
// accuracy of the predictor.
func PredictorStudy(env *Env) ([]PredictorCell, error) {
	const samples = 2000
	var cells []PredictorCell
	for _, name := range PredictorStudyBenchmarks {
		tb, err := env.Testbed(name, CaseStudyInstances)
		if err != nil {
			return nil, err
		}
		measuredSample, err := env.Sample(name, samples)
		if err != nil {
			return nil, err
		}
		measuredEst, err := core.EstimateOptimal(core.Perfs(measuredSample), evt.POTOptions{})
		if err != nil {
			return nil, err
		}
		measuredBest := measuredSample[core.Best(measuredSample)].Perf

		for _, relErr := range PredictorErrorLevels {
			predictor := predict.NewHeuristic(tb, relErr, env.Seed+100)
			rng := rand.New(rand.NewSource(env.Seed * 31))
			predictedSample, _, err := core.CollectSampleContext(context.Background(), rng, tb.Machine.Topo, tb.TaskCount(),
				samples, predict.Runner{P: predictor})
			if err != nil {
				return nil, err
			}
			cell := PredictorCell{Benchmark: name, RelError: relErr, Measured: measuredEst.Optimal}
			predictedEst, err := core.EstimateOptimal(core.Perfs(predictedSample), evt.POTOptions{})
			if err != nil {
				// ξ̂ >= 0 on the predicted tail: record the cell as failed
				// estimation (NaN) rather than aborting the study.
				cell.Predicted = math.NaN()
				cell.DeltaPct = math.NaN()
			} else {
				cell.Predicted = predictedEst.Optimal
				cell.DeltaPct = math.Abs(predictedEst.Optimal-measuredEst.Optimal) / measuredEst.Optimal * 100
			}
			// Execute the predictor's favourite assignment for real.
			pickPerf, err := tb.Measure(predictedSample[core.Best(predictedSample)].Assignment)
			if err != nil {
				return nil, err
			}
			cell.PickAgreePct = pickPerf / measuredBest * 100
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// PrintPredictorStudy renders the integrated-approach table.
func PrintPredictorStudy(w io.Writer, cells []PredictorCell) {
	fmt.Fprintln(w, "Extension (§5.4): statistical analysis over predicted instead of measured performance")
	fmt.Fprintf(w, "%-12s %10s %14s %14s %10s %12s\n",
		"benchmark", "pred.err", "measured est", "predicted est", "delta", "pick quality")
	for _, c := range cells {
		pred, delta := fmt.Sprintf("%.5g", c.Predicted), fmt.Sprintf("%.2f%%", c.DeltaPct)
		if math.IsNaN(c.Predicted) {
			pred, delta = "n/a", "n/a"
		}
		fmt.Fprintf(w, "%-12s %9.1f%% %14.5g %14s %10s %11.1f%%\n",
			c.Benchmark, c.RelError*100, c.Measured, pred, delta, c.PickAgreePct)
	}
	fmt.Fprintln(w, "(pick quality: the predictor-chosen best assignment, measured, vs the measurement-chosen best)")
}
