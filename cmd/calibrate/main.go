// Command calibrate runs the simulation-based calibration harness for the
// statistical machinery: synthetic populations with an analytically known
// optimum are pushed through the full POT/GPD/Wilks pipeline and the
// iterative algorithm over thousands of seeded replications, and the
// empirical behaviour is compared with the method's claims — confidence
// intervals should cover the true optimum at their nominal rate, and
// stopped-satisfied campaigns should realize a loss within the promised
// bound.
//
// Usage:
//
//	calibrate [-scenario gpd|mixture|discrete|iter|search|all]
//	          [-replications 2000] [-n 0] [-seed 1] [-loss 5]
//	          [-fractions 0.05,0.1,0.2] [-workers 0] [-json]
//	          [-min-coverage 0] [-search-speedup 0]
//	          [-metrics-addr :9131]
//
// Scenarios: "gpd" samples an exactly-GPD population (threshold-stable, the
// sharpest test of the estimator); "mixture" a truncated power-function
// mixture (GPD only in the limit — a model-misspecification probe);
// "discrete" a finite assignment-class population enumerated from the
// simulated testbed (heavy ties, the paper's actual sampling process);
// "iter" runs full §5.3 iterative campaigns against the discrete population
// and checks the stopping promise; "search" runs the head-to-head search
// strategy study — every built-in strategy drives full campaigns against
// the same known-optimum population (does a smarter sampler reach the same
// loss promise with fewer measurements?) and every tail-safe strategy is
// coverage-calibrated on a continuous known-endpoint landscape; "all" runs
// everything except "search" (ask for it explicitly — it is a study of the
// search layer, not of the estimator).
//
// -n 0 uses each scenario's recommended sample size. -fractions runs the
// threshold-sensitivity sweep over the given MaxExceedFraction caps.
// -min-coverage F exits with status 2 if any coverage scenario lands below
// F — the CI regression-gate hook. For -scenario search it also bounds the
// per-strategy coverage band symmetrically about the nominal 0.95 (floor
// 0.93 ⇒ band [0.93, 0.97]). -search-speedup F exits with status 2 unless
// at least one tail-safe non-uniform strategy reaches the promise with a
// fraction F fewer measurements than uniform and zero violations — the
// strategy efficiency gate. -json replaces the text report with one JSON
// document on stdout. Every run is deterministic in (-seed, -replications,
// -n): worker count never changes results. The search scenario pins its
// own replication counts, seed, and promise (the CI gate numbers) unless
// -replications, -seed, or -loss are given explicitly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"optassign/internal/calibrate"
	"optassign/internal/obs"
)

// output is the JSON shape of a full run.
type output struct {
	Seed        int64                        `json:"seed"`
	Coverage    []calibrate.Result           `json:"coverage,omitempty"`
	Sensitivity []calibrate.Result           `json:"sensitivity,omitempty"`
	Iterative   *calibrate.IterResult        `json:"iterative,omitempty"`
	Search      *calibrate.SearchStudyResult `json:"search,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")

	scenario := flag.String("scenario", "gpd", "gpd, mixture, discrete, iter, search, or all (all = everything but search)")
	replications := flag.Int("replications", 2000, "independent synthetic campaigns per scenario")
	n := flag.Int("n", 0, "sample size per replication (0 = scenario default)")
	seed := flag.Int64("seed", 1, "base seed; replication r uses a stream derived from it")
	loss := flag.Float64("loss", 5, "promised acceptable loss for the iter scenario, percent")
	fractionsFlag := flag.String("fractions", "", "comma-separated MaxExceedFraction caps for a threshold-sensitivity sweep (empty disables)")
	workers := flag.Int("workers", 0, "concurrent replications (0 = GOMAXPROCS); results are identical for any value")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of text")
	minCoverage := flag.Float64("min-coverage", 0, "exit 2 if any coverage scenario falls below this floor (0 disables); for -scenario search the band is symmetric about 0.95")
	searchSpeedup := flag.Float64("search-speedup", 0, "with -scenario search: exit 2 unless a tail-safe strategy beats uniform's measurement count by this fraction with zero violations (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /healthz and /debug/pprof/ on this address while calibrating (empty disables)")
	flag.Parse()

	var fractions []float64
	for _, f := range strings.Split(*fractionsFlag, ",") {
		if f = strings.TrimSpace(f); f != "" {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				log.Fatalf("-fractions: %v", err)
			}
			fractions = append(fractions, v)
		}
	}

	var reg *obs.Registry
	var metrics *calibrate.Metrics
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		metrics = calibrate.NewMetrics(reg)
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		detail := func() any {
			return map[string]any{"scenario": *scenario, "replications": *replications, "seed": *seed}
		}
		go http.Serve(ml, obs.Mux(reg, nil, detail))
		defer ml.Close()
		fmt.Fprintf(os.Stderr, "observability at http://%s/metrics, /healthz and /debug/pprof/\n", ml.Addr())
	}

	var names []string
	runIter, runSearch := false, false
	switch *scenario {
	case "all":
		names = calibrate.ScenarioNames
		runIter = true
	case "iter":
		runIter = true
	case "search":
		runSearch = true
	default:
		names = []string{*scenario}
	}

	// The search study pins its own gate configuration (seed, replication
	// counts, promise); an explicitly-set flag overrides the pin.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	out := output{Seed: *seed}
	text := func(format string, args ...any) {
		if !*jsonOut {
			fmt.Printf(format, args...)
		}
	}

	coverageFloorBroken := false
	for _, name := range names {
		sc, err := calibrate.BuiltinScenario(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg := calibrate.Config{
			Replications: *replications,
			N:            sc.N,
			Seed:         *seed,
			POT:          sc.POT,
			Workers:      *workers,
			Metrics:      metrics,
		}
		if *n > 0 {
			cfg.N = *n
		}
		res, err := calibrate.Run(cfg, sc.Pop)
		if err != nil {
			log.Fatal(err)
		}
		out.Coverage = append(out.Coverage, res)
		text("=== coverage: %s ===\n", name)
		if !*jsonOut {
			calibrate.PrintResult(os.Stdout, res)
		}
		if *minCoverage > 0 && res.Coverage < *minCoverage {
			coverageFloorBroken = true
			text("!! coverage %.4f below the -min-coverage floor %.4f\n", res.Coverage, *minCoverage)
		}
		if len(fractions) > 0 {
			sens, err := calibrate.Sensitivity(cfg, sc.Pop, fractions)
			if err != nil {
				log.Fatal(err)
			}
			out.Sensitivity = append(out.Sensitivity, sens...)
			text("--- threshold sensitivity: %s ---\n", name)
			if !*jsonOut {
				for _, s := range sens {
					fmt.Printf("  cap %-24s coverage %.4f (%d/%d), bias %+.3f%%, %d unbounded\n",
						s.Scenario[strings.Index(s.Scenario, "@")+1:], s.Coverage, s.Covered, s.Analyzed, s.MeanBiasPct, s.UnboundedHi)
				}
			}
		}
		text("\n")
	}

	if runIter {
		sc, err := calibrate.BuiltinScenario("discrete")
		if err != nil {
			log.Fatal(err)
		}
		pop := sc.Pop.(*calibrate.DiscretePopulation)
		iterReps := *replications
		if *scenario == "all" && iterReps > 200 {
			// Each iterative replication is a full campaign (hundreds of
			// analyses); "all" trims it to keep the combined run bounded.
			// Ask for -scenario iter explicitly to control the count.
			iterReps = 200
		}
		res, err := calibrate.RunIterative(calibrate.IterConfig{
			Replications:  iterReps,
			AcceptLossPct: *loss,
			Seed:          *seed,
			Workers:       *workers,
			Metrics:       metrics,
		}, pop)
		if err != nil {
			log.Fatal(err)
		}
		out.Iterative = &res
		text("=== stopping rule: iterative algorithm ===\n")
		if !*jsonOut {
			calibrate.PrintIterResult(os.Stdout, res)
		}
	}

	if runSearch {
		cfg, effPop, covPop, err := calibrate.BuiltinSearchStudy()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Iter.Workers = *workers
		cfg.Iter.Metrics = metrics
		cfg.Coverage.Workers = *workers
		if explicit["replications"] {
			cfg.Iter.Replications = *replications
			cfg.Coverage.Replications = *replications
		}
		if explicit["seed"] {
			cfg.Iter.Seed = *seed
			cfg.Coverage.Seed = *seed
		}
		if explicit["loss"] {
			cfg.Iter.AcceptLossPct = *loss
		}
		res, err := calibrate.RunSearchStudy(cfg, effPop, covPop)
		if err != nil {
			log.Fatal(err)
		}
		out.Search = &res
		text("=== search strategies: efficiency and coverage ===\n")
		if !*jsonOut {
			calibrate.PrintSearchStudy(os.Stdout, res)
		}
		if *searchSpeedup > 0 && res.BestSavingsPct < *searchSpeedup*100 {
			coverageFloorBroken = true
			text("!! best strategy savings %.1f%% below the -search-speedup bar %.1f%%\n",
				res.BestSavingsPct, *searchSpeedup*100)
		}
		if *minCoverage > 0 {
			// The 1e-9 slack absorbs float representation error at the band
			// edges (e.g. 291/300 vs an arithmetically-derived 0.97).
			hi := 0.95 + (0.95 - *minCoverage)
			for _, cr := range res.Coverage {
				if cr.Coverage < *minCoverage-1e-9 || cr.Coverage > hi+1e-9 {
					coverageFloorBroken = true
					text("!! strategy %s coverage %.4f outside the [%.4f, %.4f] band\n",
						cr.Strategy, cr.Coverage, *minCoverage, hi)
				}
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
	}
	if coverageFloorBroken {
		os.Exit(2)
	}
}
