// Command evtfit runs the paper's §3.3 analysis on externally measured
// performance numbers: read one value per line (from files or stdin),
// select a Peak-Over-Threshold threshold, fit a Generalized Pareto
// Distribution to the exceedances by maximum likelihood, and report the
// estimated optimal performance with its confidence interval.
//
// This is the tool to point at measurements from a real machine — the
// method is architecture- and application-independent.
//
// Input is either plain numbers (one or more per line, '#' comments) or,
// with -journal, the write-ahead journals cmd/optassign -journal and
// campaignd write: the sample is every successful draw, in draw order.
//
// Usage:
//
//	evtfit [-confidence 0.95] [-maxfrac 0.05] [-minexceed 20] [-journal]
//	       [-stability] [-stream] [file...]
//
// -stream additionally replays the sample through the streaming
// estimator (evt.StreamEstimator), printing the converging optimum bound
// at each scheduled refit — the live view a long campaign gets on its
// -progress line and /metrics endpoint.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"optassign/internal/campaign"
	"optassign/internal/evt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evtfit: ")

	confidence := flag.Float64("confidence", 0.95, "confidence level for the interval")
	maxFrac := flag.Float64("maxfrac", 0.05, "maximum fraction of the sample used as exceedances")
	minExceed := flag.Int("minexceed", 20, "minimum number of exceedances")
	asJournal := flag.Bool("journal", false, "inputs are campaign journals (cmd/optassign -journal output): fit every successful draw, in draw order")
	stability := flag.Bool("stability", false, "also print the parameter-stability scan (ξ̂ and implied bound per threshold)")
	stream := flag.Bool("stream", false, "also replay the sample through the streaming estimator, printing the converging bound at each scheduled refit")
	flag.Parse()
	if *confidence <= 0 || *confidence >= 1 {
		log.Fatalf("confidence must be in (0,1), got %v", *confidence)
	}

	var sample []float64
	read := func(f *os.File, name string) error {
		if *asJournal {
			st, err := campaign.ReadJournal(f)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			for _, r := range st.Results {
				sample = append(sample, r.Perf)
			}
			return nil
		}
		vals, err := campaign.ReadValues(f, name)
		if err != nil {
			return err
		}
		sample = append(sample, vals...)
		return nil
	}
	if flag.NArg() == 0 {
		if err := read(os.Stdin, "stdin"); err != nil {
			log.Fatal(err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		err = read(f, path)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	if len(sample) == 0 {
		log.Fatal("no input values")
	}

	opts := evt.POTOptions{
		Alpha: 1 - *confidence,
		Threshold: evt.ThresholdOptions{
			MaxExceedFraction: *maxFrac,
			MinExceedances:    *minExceed,
		},
	}

	if *stream {
		// Replay the sample as a campaign would commit it: cheap per-
		// observation updates, a full refit at each doubling of the sample,
		// and a final refit on everything. The last line is bit-for-bit the
		// batch analysis printed below — the streaming estimator runs the
		// identical pipeline on its maintained order statistics.
		s := evt.NewStreamEstimator(evt.StreamOptions{POT: opts})
		fmt.Println("streaming refits (doubling schedule):")
		next := 64
		for i, x := range sample {
			if err := s.Observe(x); err != nil {
				log.Fatal(err)
			}
			n := i + 1
			if n != next && n != len(sample) {
				continue
			}
			for next <= n {
				next *= 2
			}
			rep, err := s.Refit()
			if err != nil {
				fmt.Printf("  n=%7d  no bound yet (%v)\n", n, err)
				continue
			}
			if math.IsInf(rep.UPB.Hi, 1) {
				fmt.Printf("  n=%7d  upb=%.6g  CI=[%.6g, unbounded)\n", n, rep.UPB.Point, rep.UPB.Lo)
				continue
			}
			fmt.Printf("  n=%7d  upb=%.6g ±%.3g  CI=[%.6g, %.6g]\n",
				n, rep.UPB.Point, (rep.UPB.Hi-rep.UPB.Lo)/2, rep.UPB.Lo, rep.UPB.Hi)
		}
		fmt.Println()
	}

	rep, err := evt.Analyze(sample, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sample:               %d observations, best %.6g\n", rep.N, rep.BestObs)
	// A tie-run snap-down can leave no mean-excess line fit at the chosen
	// threshold; that is a missing diagnostic, not an R² of 0.
	linearity := "mean-excess R² n/a (threshold snapped into a tie run)"
	if rep.Threshold.LinearityOK {
		linearity = fmt.Sprintf("mean-excess R² %.3f", rep.Threshold.Linearity.R2)
	}
	fmt.Printf("threshold u:          %.6g (%d exceedances, %s)\n",
		rep.Threshold.U, len(rep.Threshold.Exceedances), linearity)
	fmt.Printf("GPD fit:              %v (logL %.4g, QQ correlation %.4f)\n",
		rep.Fit.GPD, rep.Fit.LogLikelihood, rep.QQCorr)
	if !rep.Regular {
		fmt.Printf("                      note: ξ̂ outside (−0.5, 0); Wilks asymptotics are approximate\n")
	}
	fmt.Printf("estimated optimum:    %.6g\n", rep.UPB.Point)
	if math.IsInf(rep.UPB.Hi, 1) {
		fmt.Printf("%.0f%% interval:        [%.6g, unbounded) — the tail cannot yet be distinguished from ξ=0\n",
			*confidence*100, rep.UPB.Lo)
	} else {
		fmt.Printf("%.0f%% interval:        [%.6g, %.6g]\n", *confidence*100, rep.UPB.Lo, rep.UPB.Hi)
	}
	fmt.Printf("best-vs-optimum gap:  %.2f%%\n", rep.HeadroomPct)

	if *stability {
		pts, err := evt.StabilityScan(sample, evt.ThresholdOptions{
			MaxExceedFraction: *maxFrac,
			MinExceedances:    *minExceed,
		}, 20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nparameter-stability scan:")
		fmt.Printf("%14s %8s %8s %12s %14s\n", "threshold", "exceed", "ξ̂", "σ̂", "implied bound")
		for _, p := range pts {
			if p.FitErr != nil {
				fmt.Printf("%14.6g %8d  fit failed: %v\n", p.U, p.Exceedances, p.FitErr)
				continue
			}
			bound := "n/a (ξ̂ >= 0)"
			if p.UPBValid {
				bound = fmt.Sprintf("%.6g", p.UPB)
			}
			fmt.Printf("%14.6g %8d %8.3f %12.5g %14s\n", p.U, p.Exceedances, p.Xi, p.Sigma, bound)
		}
	}
}
