package calibrate

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/search"
	"optassign/internal/t2"
)

// AssignPop is an assignment-space population: a performance landscape
// over the real feasible set with an analytically known optimum, driven
// through a core.ContextRunner so search strategies — not just i.i.d.
// samplers — can be calibrated against it. DiscretePopulation satisfies
// it too.
type AssignPop interface {
	Name() string
	TrueOptimum() float64
	Topo() t2.Topology
	Tasks() int
	Runner() core.ContextRunner
}

// HashGPDPopulation is a continuous synthetic landscape over the real
// assignment space: perf(a) = Loc + Q(u(a)) with Q the GPD quantile
// function (ξ < 0, finite endpoint) and u(a) a 64-bit hash of the raw
// context vector mapped to [0,1). Uniform assignment draws therefore see
// i.i.d. Loc+GPD(ξ,σ) performances — the exact model of the gpd coverage
// scenario — but arriving through real assignments, so any Strategy can
// sample it. Hashing the raw Ctx (not the canonical class) makes values
// effectively tie-free, and hashing at all makes the landscape
// deliberately structureless: local moves carry no signal, which is the
// point — this population calibrates the *fit*, not the climber.
//
// TrueOptimum reports the analytic endpoint Loc + σ/|ξ|. The finite
// assignment space's realized maximum sits a hair below it (for the T2's
// ~5·10¹⁰ six-task assignments, about 0.03% of the endpoint — an order
// of magnitude inside typical CI widths), so endpoint coverage is the
// meaningful target.
type HashGPDPopulation struct {
	TopoT  t2.Topology
	TasksN int
	Loc    float64
	Tail   evt.GPD // must have Xi < 0
}

// Name implements AssignPop.
func (p HashGPDPopulation) Name() string {
	return fmt.Sprintf("hashgpd(ξ=%g,σ=%g,loc=%g)", p.Tail.Xi, p.Tail.Sigma, p.Loc)
}

// TrueOptimum implements AssignPop.
func (p HashGPDPopulation) TrueOptimum() float64 { return p.Loc + p.Tail.RightEndpoint() }

// Topo implements AssignPop.
func (p HashGPDPopulation) Topo() t2.Topology { return p.TopoT }

// Tasks implements AssignPop.
func (p HashGPDPopulation) Tasks() int { return p.TasksN }

// Runner implements AssignPop.
func (p HashGPDPopulation) Runner() core.ContextRunner {
	return core.ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) {
		return p.Loc + p.Tail.Quantile(hashUnit(a.Ctx)), nil
	})
}

// AdditivePopulation is a smooth synthetic landscape: every context c
// carries a fixed weight w[c] (a seeded shuffle of evenly spaced values)
// and perf(a) = Σ w[c_i]. Its optimum is the sum of the tasks largest
// weights, known exactly. Unlike HashGPDPopulation the landscape is
// smooth under local moves — relocating one task changes one addend — so
// hill climbing genuinely works here. That makes it the contamination
// probe: an adaptive strategy's exploration draws cluster near the
// incumbent, and letting them into the tail fit visibly wrecks the
// estimate, while the strategy's uniform draws keep it honest.
type AdditivePopulation struct {
	TopoT  t2.Topology
	TasksN int
	w      []float64
	best   float64
}

// NewAdditivePopulation builds the landscape with weights shuffled by the
// given seed (via search.RepSeed, the project's derivation).
func NewAdditivePopulation(topo t2.Topology, tasks int, seed int64) (*AdditivePopulation, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	v := topo.Contexts()
	if tasks < 1 || tasks > v {
		return nil, fmt.Errorf("calibrate: %d tasks do not fit %d contexts", tasks, v)
	}
	p := &AdditivePopulation{TopoT: topo, TasksN: tasks, w: make([]float64, v)}
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
func (p *AdditivePopulation) Name() string {
	return fmt.Sprintf("additive(%d contexts,%d tasks)", len(p.w), p.TasksN)
}

// TrueOptimum implements AssignPop.
func (p *AdditivePopulation) TrueOptimum() float64 { return p.best }

// Topo implements AssignPop.
func (p *AdditivePopulation) Topo() t2.Topology { return p.TopoT }

// Tasks implements AssignPop.
func (p *AdditivePopulation) Tasks() int { return p.TasksN }

// Runner implements AssignPop.
func (p *AdditivePopulation) Runner() core.ContextRunner {
	return core.ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) {
		s := 0.0
		for _, c := range a.Ctx {
			s += p.w[c]
		}
		return s, nil
	})
}

// hashUnit maps a context vector to [0,1) through FNV-1a plus a
// splitmix64-style finalizer — deterministic, dependency-free, and
// uncorrelated with the vector's structure. The finalizer matters: raw
// FNV-1a of small structured integers (context ids, mostly-zero bytes)
// has visibly weak avalanche in the bits the quantile transform consumes,
// enough to shift measured coverage by percents.
func hashUnit(ctx []int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range ctx {
		v := uint64(c)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return u
}

// SearchCoverageConfig parameterizes the per-strategy coverage study: does
// a strategy's tail-eligible sample still give the EVT machinery its
// nominal coverage?
type SearchCoverageConfig struct {
	// NewStrategy builds a fresh strategy per replication; nil is uniform.
	NewStrategy  func() (search.Strategy, error)
	StrategyName string
	// Replications is the number of independent campaigns (default 300).
	Replications int
	// TailN is the number of tail-eligible draws each replication collects
	// before fitting (default 2000) — strategies that explore draw more in
	// total, so every strategy's fit sees the same sample size.
	TailN int
	// Batch is the committed-horizon flush interval (default 100),
	// matching the engine's Ndelta batching.
	Batch int
	// MaxDraws caps total draws per replication (default 50·TailN).
	MaxDraws int
	Seed     int64
	POT      evt.POTOptions
	// Workers bounds the fan-out; results are worker-count invariant.
	Workers int
	// IncludeExplore is a deliberate-contamination probe: fit on every
	// successful draw, exploration included. With an adaptive strategy on
	// a climbable landscape this must wreck coverage — the probe that
	// proves the Explore exclusion is load-bearing.
	IncludeExplore bool
}

func (c SearchCoverageConfig) withDefaults() SearchCoverageConfig {
	if c.Replications <= 0 {
		c.Replications = 300
	}
	if c.TailN <= 0 {
		c.TailN = 2000
	}
	if c.Batch <= 0 {
		c.Batch = 100
	}
	if c.MaxDraws <= 0 {
		c.MaxDraws = 50 * c.TailN
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.StrategyName == "" {
		c.StrategyName = "uniform"
	}
	return c
}

// SearchCoverageResult aggregates one strategy's coverage study.
type SearchCoverageResult struct {
	Scenario     string  `json:"scenario"`
	Strategy     string  `json:"strategy"`
	TrueOptimum  float64 `json:"true_optimum"`
	Replications int     `json:"replications"`
	Analyzed     int     `json:"analyzed"`
	TailN        int     `json:"tail_n"`
	Covered      int     `json:"covered"`
	Coverage     float64 `json:"coverage"`
	CoverageSE   float64 `json:"coverage_se"`
	MeanBiasPct  float64 `json:"mean_bias_pct"`
	MeanWidthPct float64 `json:"mean_width_pct"`
	UnboundedHi  int     `json:"unbounded_hi"`
	// MeanDraws is the mean total draws spent to collect TailN
	// tail-eligible points (== TailN for non-exploring strategies).
	MeanDraws  float64        `json:"mean_draws"`
	Rejections map[string]int `json:"rejections,omitempty"`
}

type searchCoverageOutcome struct {
	ok        bool
	rejection string
	covered   bool
	point     float64
	lo, hi    float64
	draws     int
}

// RunSearchCoverage runs the coverage calibration for one strategy: each
// replication drives the strategy over pop's landscape — committing
// outcome batches exactly as the engine would — until TailN tail-eligible
// measurements exist, fits them with evt.Analyze, and checks the Wilks
// interval against the known optimum.
func RunSearchCoverage(cfg SearchCoverageConfig, pop AssignPop) (SearchCoverageResult, error) {
	cfg = cfg.withDefaults()
	truth := pop.TrueOptimum()
	if math.IsNaN(truth) || math.IsInf(truth, 0) {
		return SearchCoverageResult{}, fmt.Errorf("calibrate: population %s has non-finite optimum %v", pop.Name(), truth)
	}
	runner := pop.Runner()

	outcomes := make([]searchCoverageOutcome, cfg.Replications)
	err := fanOut(cfg.Replications, cfg.Workers, func(r int) (err error) {
		outcomes[r], err = searchCoverageReplicate(cfg, pop, truth, runner, r)
		return err
	})
	if err != nil {
		return SearchCoverageResult{}, err
	}

	res := SearchCoverageResult{
		Scenario:     pop.Name(),
		Strategy:     cfg.StrategyName,
		TrueOptimum:  truth,
		Replications: cfg.Replications,
		TailN:        cfg.TailN,
		Rejections:   make(map[string]int),
	}
	var sumBias, sumWidth, sumDraws float64
	finiteWidths := 0
	for _, o := range outcomes {
		sumDraws += float64(o.draws)
		if !o.ok {
			res.Rejections[o.rejection]++
			continue
		}
		res.Analyzed++
		if o.covered {
			res.Covered++
		}
		sumBias += (o.point - truth) / truth * 100
		if math.IsInf(o.hi, 1) {
			res.UnboundedHi++
		} else {
			sumWidth += (o.hi - o.lo) / truth * 100
			finiteWidths++
		}
	}
	if res.Analyzed > 0 {
		res.Coverage = float64(res.Covered) / float64(res.Analyzed)
		res.CoverageSE = math.Sqrt(res.Coverage * (1 - res.Coverage) / float64(res.Analyzed))
		res.MeanBiasPct = sumBias / float64(res.Analyzed)
	}
	if finiteWidths > 0 {
		res.MeanWidthPct = sumWidth / float64(finiteWidths)
	}
	if cfg.Replications > 0 {
		res.MeanDraws = sumDraws / float64(cfg.Replications)
	}
	return res, nil
}

// searchCoverageReplicate runs one strategy-driven sampling campaign and
// one fit.
func searchCoverageReplicate(cfg SearchCoverageConfig, pop AssignPop, truth float64, runner core.ContextRunner, r int) (searchCoverageOutcome, error) {
	strat := search.Strategy(search.Uniform{})
	if cfg.NewStrategy != nil {
		var err error
		strat, err = cfg.NewStrategy()
		if err != nil {
			return searchCoverageOutcome{}, err
		}
	}
	rng := rand.New(rand.NewSource(repSeed(cfg.Seed, r)))
	hist := search.NewHistory(pop.Topo(), pop.Tasks())
	var fitSample []float64
	draws := 0
	for tail := 0; tail < cfg.TailN && draws < cfg.MaxDraws; draws++ {
		d, err := strat.Next(rng, hist)
		if err != nil {
			return searchCoverageOutcome{}, err
		}
		i := hist.Push(d)
		perf, err := runner.MeasureContext(context.Background(), d.Assignment)
		if err != nil {
			return searchCoverageOutcome{}, err
		}
		hist.Resolve(i, perf, false)
		if (i+1)%cfg.Batch == 0 {
			hist.Commit()
		}
		if !d.Explore {
			tail++
			fitSample = append(fitSample, perf)
		} else if cfg.IncludeExplore {
			fitSample = append(fitSample, perf)
		}
	}
	rep, err := evt.Analyze(fitSample, cfg.POT)
	if err != nil {
		return searchCoverageOutcome{rejection: rejectionCategory(err), draws: draws}, nil
	}
	return searchCoverageOutcome{
		ok:      true,
		covered: rep.UPB.Lo <= truth && truth <= rep.UPB.Hi,
		point:   rep.UPB.Point,
		lo:      rep.UPB.Lo,
		hi:      rep.UPB.Hi,
		draws:   draws,
	}, nil
}
