// Command optassign runs the paper's iterative statistical task-assignment
// algorithm (§5.3) against the simulated UltraSPARC T2 testbed: it keeps
// executing random assignments of the chosen benchmark until the best one
// found is — with 0.95 confidence — within the acceptable loss of the
// estimated optimal system performance.
//
// Usage:
//
//	optassign [-benchmark IPFwd-L1] [-instances 8] [-loss 2.5]
//	          [-ninit 1000] [-ndelta 100] [-max 12000] [-seed 1] [-v]
//	          [-strategy uniform] [-strategy-params k=v,...]
//	          [-timeout 30s] [-retries 3] [-journal run.journal] [-resume]
//	          [-workers 8] [-connect host1:7070,host2:7070]
//	          [-registry :9140] [-min-servers 1]
//	          [-cache] [-cache-size 4096] [-cache-dir DIR] [-batch 64]
//	          [-progress] [-metrics-addr :9130]
//	          [-server http://host:9160 -submit ID | -query EXPR]
//
// Search strategy: -strategy picks how assignment draws are generated —
// uniform (the paper's i.i.d. sampler, the default), stratified (spreads
// draws across canonical equivalence classes), greedy (hill-climbs from
// the incumbent best), or anneal (simulated annealing). Uniform and
// stratified are tail-safe: every draw feeds the EVT optimum estimate.
// Greedy marks its adaptive moves as exploration, excluded from the fit
// so the confidence interval stays calibrated; anneal's biased sample
// gets no optimum estimate and no stopping rule, so it runs to the -max
// budget and reports "no estimate". The strategy's
// canonical spec is stamped into the journal header, and -resume refuses
// to continue a journal under a different strategy.
//
// Fault tolerance: -retries/-timeout wrap the measurement source in a
// resilient runner (retry with backoff, quarantine after the budget);
// -journal write-ahead logs every measurement so -resume restarts a killed
// campaign by replaying its journal, re-measuring nothing. The journal is
// the campaign's only file; evtfit -journal re-analyzes it offline.
// Ctrl-C stops the campaign cleanly at a measurement boundary.
//
// Parallelism: -workers N measures N assignments concurrently, and
// -connect accepts a comma-separated server list to fan the campaign out
// across several testbeds (a failing server is benched and its work moves
// to the others). The measured assignment sequence, the journal contents
// and the final result are byte-identical to a serial run with the same
// seed, so worker count — and even serial vs parallel — may change freely
// across a -resume. To open several connections to one server, repeat its
// address.
//
// Fleet mode: -registry hosts a membership registry instead of dialing a
// fixed list — measurement servers started with measured -register join
// by announcing themselves (the controller dials back to verify their
// identity), heartbeat while they serve, and leave via the graceful drain
// handshake on SIGTERM. The campaign starts once -min-servers have
// joined; after that, members may come and go freely — the journal and
// result stay byte-identical to a serial run regardless.
//
// Memoization: -cache serves structurally duplicate assignments (same
// canonical form under the hardware symmetries, hence the same resource
// sharing and the same performance) from memory instead of re-measuring,
// keeping at most -cache-size classes. Results and journal bytes are
// identical with the cache on or off; disable it on testbeds whose noise
// should be sampled independently per measurement. -cache-dir DIR (which
// implies -cache) additionally persists every measured class to an
// append-only, checksummed store in DIR, shared across runs and across
// concurrent processes via file locking: a repeated or resumed campaign
// re-measures nothing it has ever measured before. Delete the directory
// to invalidate the store (after changing the testbed model, say).
//
// Batching: -batch N hands each worker chunks of N draws. On the local
// testbed each chunk is probed against the cache at once and only the
// unique still-unmeasured classes are evaluated, core-sharded across the
// CPUs; a remote source measures a chunk draw by draw. It combines with
// -workers, -connect and -registry: -batch N -workers M runs M workers,
// each resolving N-draw chunks. Results and journal bytes stay
// byte-identical to a serial run; only the wall-clock drops.
//
// Service mode: -server URL turns the command into a client of a running
// campaignd instance instead of measuring anything locally. -submit ID
// posts a campaign built from the usual -benchmark/-loss/-strategy flags
// and follows its convergence line to a terminal state; -query EXPR runs
// a predicate query (e.g. 'benchmark=IPFwd-L1,satisfied=true') over the
// service's promoted result table — answered from the table's indexes,
// without opening any journal.
//
// Observability: -progress keeps a live status line on stderr (sample
// count, best observed, ÛPB and its CI, the convergence gap, the refits
// made in this process — the count starts again at a resume — retries
// and worker utilization); -metrics-addr serves the same state as
// Prometheus metrics at /metrics plus a JSON /healthz, and the runtime
// profiles at /debug/pprof/, while the campaign runs.
// Instrumentation only observes — results and journal bytes are
// identical with it on or off.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/campaign"
	"optassign/internal/cas"
	"optassign/internal/coord"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/obs"
	"optassign/internal/proc"
	"optassign/internal/remote"
	"optassign/internal/search"
	"optassign/internal/t2"
)

// progressPrinter renders the campaign's completed rounds as a live
// status line, augmented with retry counts, cache hits and worker
// utilization read from the metric bundles. Rounds arrive one at a time
// on the campaign loop's goroutine, so it needs no locking.
type progressPrinter struct {
	out     io.Writer
	start   time.Time
	workers int
	resm    *core.ResilientMetrics
	poolm   *core.PoolMetrics
	cachem  *core.CacheMetrics
	last    int // previous line length, for overwrite padding
}

// round overwrites the status line with r; a nil printer prints nothing.
func (p *progressPrinter) round(r core.Round) {
	if p == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "round %d: n=%d best=%.6g", r.N, r.Samples, r.Best)
	switch e := r.Estimate; r.Kind {
	case core.RoundEstimated:
		// The live converging bound: the refit's point estimate with its
		// half-width — "upb=X ±Y" narrows round over round as the
		// campaign converges. The half-width is omitted while the upper
		// bound is unbounded (the CI shows the honest [lo, +Inf]).
		fmt.Fprintf(&b, " upb=%.6g", e.Optimal)
		if !math.IsInf(e.Hi, 1) {
			fmt.Fprintf(&b, " ±%.3g", (e.Hi-e.Lo)/2)
		}
		fmt.Fprintf(&b, " CI=[%.6g, %.6g] gap=%.2f%%", e.Lo, e.Hi, e.HeadroomHiPct)
	case core.RoundUnbounded:
		b.WriteString(" no estimate: tail not yet bounded, sampling more")
	case core.RoundTailUnsafe:
		b.WriteString(" " + notTailSafe)
	}
	// refits counts the refits made in this process: a resumed campaign
	// rebuilds its estimator from the journal, so the count starts again.
	if refits := r.Stream.RefitCount; refits > 0 {
		fmt.Fprintf(&b, " tail=%d refits=%d", r.Stream.TailCount, refits)
	}
	if r.Quarantined > 0 {
		fmt.Fprintf(&b, " quarantined=%d", r.Quarantined)
	}
	if p.resm != nil {
		if n := p.resm.Retries.Value(); n > 0 {
			fmt.Fprintf(&b, " retries=%.0f", n)
		}
	}
	if p.cachem != nil {
		if h, m := p.cachem.Hits.Value(), p.cachem.Misses.Value(); h+m > 0 {
			fmt.Fprintf(&b, " cache=%.0f%%", 100*h/(h+m))
		}
	}
	if p.poolm != nil && p.workers > 1 {
		busy := 0.0
		for _, c := range p.poolm.BusySeconds {
			busy += c.Value()
		}
		if elapsed := time.Since(p.start).Seconds(); elapsed > 0 {
			fmt.Fprintf(&b, " util=%.0f%%", 100*busy/(elapsed*float64(p.workers)))
		}
	}
	line := b.String()
	pad := max(p.last-len(line), 0)
	p.last = len(line)
	fmt.Fprintf(p.out, "\r%s%s", line, strings.Repeat(" ", pad))
}

// done terminates the live line so regular output starts on a fresh one.
func (p *progressPrinter) done() {
	if p != nil && p.last > 0 {
		fmt.Fprintln(p.out)
		p.last = 0
	}
}

// notTailSafe explains the missing estimate of a strategy that is not
// tail-safe: its biased sample is never fitted.
const notTailSafe = "no estimate: the strategy is not tail-safe"

// report prints a finished campaign's result and says whether the
// requirement was met. A campaign without an estimate says so instead of
// printing a zero optimum and loss bound.
func report(w io.Writer, res core.IterResult, tailSafe bool, loss float64) bool {
	fmt.Fprintf(w, "measured %d assignments\n", res.Samples)
	if n := len(res.Quarantined); n > 0 {
		fmt.Fprintf(w, "quarantined %d assignment(s) whose measurements kept failing; they are excluded from the sample\n", n)
	}
	fmt.Fprintf(w, "best assignment: %s\n", res.Best.Assignment)
	fmt.Fprintf(w, "  measured performance:   %.6g PPS\n", res.Best.Perf)
	if res.Final.Report.N == 0 {
		reason := "no estimate: the tail was never bounded"
		if !tailSafe {
			reason = notTailSafe
		}
		fmt.Fprintf(w, "  estimated optimum:      %s\n", reason)
		fmt.Fprintf(w, "sample budget exhausted with no estimate to check the %.2f%% requirement against\n", loss)
		return false
	}
	fmt.Fprintf(w, "  estimated optimum:      %.6g PPS (0.95 CI [%.6g, %.6g])\n",
		res.Final.Optimal, res.Final.Lo, res.Final.Hi)
	fmt.Fprintf(w, "  guaranteed loss bound:  %.2f%%\n", res.Final.HeadroomHiPct)
	if planner, err := core.NewPlanner(res.Final); err == nil {
		if prob, err := planner.ProbImprove(1000); err == nil {
			fmt.Fprintf(w, "  P(1000 more samples improve the best): %.1f%%\n", prob*100)
		}
		if median, err := planner.MedianBestOfN(10 * res.Samples); err == nil {
			fmt.Fprintf(w, "  median best if the campaign were 10x longer: %.6g PPS\n", median)
		}
	}
	if res.Satisfied {
		fmt.Fprintf(w, "requirement met: loss <= %.2f%% with 0.95 confidence\n", loss)
		return true
	}
	fmt.Fprintf(w, "sample budget exhausted before meeting the %.2f%% requirement\n", loss)
	return false
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("optassign: ")

	benchmark := flag.String("benchmark", "IPFwd-L1",
		"one of Aho-Corasick, IPFwd-L1, IPFwd-Mem, Packet-analyzer, Stateful, IPFwd-intadd, IPFwd-intmul")
	instances := flag.Int("instances", 8, "pipeline instances (3 threads each)")
	loss := flag.Float64("loss", 2.5, "acceptable performance loss vs the estimated optimum, percent")
	ninit := flag.Int("ninit", 1000, "initial sample size")
	ndelta := flag.Int("ndelta", 100, "sample increment per iteration")
	maxSamples := flag.Int("max", 12000, "sample budget")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print each estimated round as it completes")
	connect := flag.String("connect", "", "measure on remote testbeds served by cmd/measured: one address or a comma-separated pool")
	registry := flag.String("registry", "", "host a fleet registry on this address and measure on servers that register with it (see measured -register)")
	minServers := flag.Int("min-servers", 1, "with -registry, wait for this many registered servers before starting the campaign")
	workers := flag.Int("workers", 0, "concurrent measurements (0 = one per remote server, else serial); any value yields results identical to a serial run")
	timeout := flag.Duration("timeout", 0, "per-measurement timeout (0 disables)")
	retries := flag.Int("retries", 0, "retries per measurement before quarantining it (0 disables the resilient wrapper unless -timeout is set)")
	journalPath := flag.String("journal", "", "write-ahead journal file: every measurement is persisted as it completes")
	resume := flag.Bool("resume", false, "resume the campaign from the -journal file instead of starting over")
	cacheOn := flag.Bool("cache", false, "memoize measurements by canonical assignment class: symmetric assignments (identical resource sharing) share one testbed run")
	cacheSize := flag.Int("cache-size", 4096, "canonical classes kept by -cache before LRU eviction")
	cacheDir := flag.String("cache-dir", "", "persist memoized classes to this directory, shared across runs and processes (implies -cache; delete the directory to invalidate)")
	batchSize := flag.Int("batch", 0, "hand each worker chunks of this many draws, measured in core-sharded batches on the local testbed (0 disables); combines with -workers and remote measurement")
	progress := flag.Bool("progress", false, "keep a live status line on stderr as the campaign converges")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /healthz and /debug/pprof/ on this address while the campaign runs (empty disables)")
	strategy := flag.String("strategy", "uniform",
		"search strategy for assignment draws: "+strings.Join(search.Names, ", ")+" (only uniform and stratified keep the tail estimate calibrated)")
	strategyParams := flag.String("strategy-params", "", "strategy parameters as key=value pairs, comma-separated (e.g. init=200,explore=0.2)")
	server := flag.String("server", "", "campaignd base URL (e.g. http://host:9160): run as a client of the campaign service instead of measuring locally")
	submit := flag.String("submit", "", "with -server, submit a campaign under this id built from the -benchmark/-loss/... flags and follow it to completion")
	query := flag.String("query", "", "with -server, run this predicate query over the service's finished campaigns (e.g. 'benchmark=IPFwd-L1,satisfied=true')")
	flag.Parse()

	if *server != "" {
		runClient(*server, *submit, *query, coord.Spec{
			ID:             *submit,
			Benchmark:      *benchmark,
			Instances:      *instances,
			LossPct:        *loss,
			Ninit:          *ninit,
			Ndelta:         *ndelta,
			MaxSamples:     *maxSamples,
			Seed:           *seed,
			Strategy:       *strategy,
			StrategyParams: *strategyParams,
		})
		return
	}
	if *submit != "" || *query != "" {
		log.Fatal("-submit and -query need -server")
	}

	sparams, err := search.ParseParams(*strategyParams)
	if err != nil {
		log.Fatal(err)
	}
	// Validate the (name, params) combination before any servers are
	// dialed; the real instance is built later, once the metrics registry
	// exists. The canonical spec goes into the journal header so -resume
	// can refuse a strategy switch.
	if _, err := search.New(*strategy, sparams, nil); err != nil {
		log.Fatal(err)
	}
	strategySpec := search.Spec(*strategy, sparams)

	if *resume && *journalPath == "" {
		log.Fatal("-resume needs -journal")
	}
	if *registry != "" && *connect != "" {
		log.Fatal("-registry and -connect are mutually exclusive: a fleet is either dynamic or a static list")
	}
	if *cacheDir != "" {
		*cacheOn = true
	}

	var addrs []string
	for _, a := range strings.Split(*connect, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}

	// Observability: one registry feeds both the -progress status line and
	// the -metrics-addr scrape endpoint. Everything below passes metric
	// bundles down as nil when neither is requested, so the
	// uninstrumented campaign pays nothing.
	var reg *obs.Registry
	if *progress || *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	var prog *progressPrinter
	if *progress {
		prog = &progressPrinter{out: os.Stderr, start: time.Now()}
	}

	var (
		runner   core.ContextRunner
		topo     t2.Topology
		tasks    int
		name     string
		model    string // measurement model, recorded in the journal header
		identity string // cache identity of the measurement source
		poolSize int    // pooled servers at campaign start (0 = not pooled)
	)
	switch {
	case *registry != "":
		// Dynamic fleet: host the registry, let servers announce and join,
		// start once enough have been identity-verified into the pool.
		// Members keep joining and leaving while the campaign runs.
		pool := remote.NewPool(remote.PoolConfig{
			Client:  remote.ClientConfig{Metrics: remote.NewClientMetrics(reg)},
			Metrics: remote.NewPoolMetrics(reg),
		})
		defer pool.Close()
		fleet := remote.NewRegistry(pool, remote.RegistryConfig{
			Metrics: remote.NewMembershipMetrics(reg),
		})
		l, err := net.Listen("tcp", *registry)
		if err != nil {
			log.Fatal(err)
		}
		go fleet.Serve(l)
		defer fleet.Close()
		fmt.Printf("fleet registry at %s; waiting for %d server(s) (measured -register %s)\n",
			l.Addr(), *minServers, l.Addr())
		if err := pool.WaitReady(context.Background(), *minServers); err != nil {
			log.Fatal(err)
		}
		runner, topo, tasks, name, model = pool, pool.Topology(), pool.Tasks(), pool.Hello().Name, pool.Hello().Model
		identity = remoteIdentity(pool.Hello(), *seed)
		poolSize = pool.Size()
		fmt.Printf("fleet ready: %d server(s), %d tasks on %s\n", poolSize, tasks, topo)
	case len(addrs) > 1:
		pool, err := remote.DialPool(addrs, remote.PoolConfig{
			Client:  remote.ClientConfig{Metrics: remote.NewClientMetrics(reg)},
			Metrics: remote.NewPoolMetrics(reg),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer pool.Close()
		runner, topo, tasks, name, model = pool, pool.Topology(), pool.Tasks(), pool.Hello().Name, pool.Hello().Model
		identity = remoteIdentity(pool.Hello(), *seed)
		poolSize = pool.Size()
		fmt.Printf("remote testbed pool: %d servers, %d tasks on %s\n", pool.Size(), tasks, topo)
	case len(addrs) == 1:
		addr := addrs[0]
		client, err := remote.DialConfig(remote.ClientConfig{
			Dial:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Metrics: remote.NewClientMetrics(reg),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		runner, topo, tasks, name, model = client, client.Topology(), client.Tasks(), client.Hello().Name, client.Hello().Model
		identity = remoteIdentity(client.Hello(), *seed)
		fmt.Printf("remote testbed %q at %s: %d tasks on %s\n", name, addrs[0], tasks, topo)
	default:
		app, err := apps.ByName(*benchmark, netgen.DefaultProfile())
		if err != nil {
			log.Fatal(err)
		}
		tb, err := netdps.NewTestbed(app, *instances, netdps.WithSeed(*seed))
		if err != nil {
			log.Fatal(err)
		}
		runner, topo, tasks, name, model = tb, tb.Machine.Topo, tb.TaskCount(), app.Name(), proc.Model
		identity = tb.Identity()
		fmt.Printf("benchmark %s: %d instances (%d tasks) on %s\n", name, *instances, tasks, topo)
	}

	// The scrape endpoint starts before the campaign so a dashboard sees
	// the very first round land.
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		detail := func() any {
			return map[string]any{"benchmark": name, "tasks": tasks, "topology": topo.String()}
		}
		go http.Serve(ml, obs.Mux(reg, nil, detail))
		defer ml.Close()
		fmt.Printf("observability at http://%s/metrics, /healthz and /debug/pprof/\n", ml.Addr())
	}

	cfg := core.IterConfig{
		Topo:          topo,
		Tasks:         tasks,
		AcceptLossPct: *loss,
		Ninit:         *ninit,
		Ndelta:        *ndelta,
		MaxSamples:    *maxSamples,
		Seed:          *seed,
	}
	// Every completed round feeds the metric bundle and the status line,
	// and under -v each estimated round prints its line as it completes.
	im := core.NewIterMetrics(reg)
	if im != nil || *verbose {
		cfg.OnRound = func(r core.Round) {
			im.Observe(r)
			prog.round(r)
			if e := r.Estimate; *verbose && r.Kind == core.RoundEstimated {
				prog.done() // the line goes below the round's status line
				fmt.Printf("  n=%5d  best=%.6g  estimate=%.6g  CI=[%.6g, %.6g]  loss<=%.2f%%\n",
					r.Samples, e.BestObserved, e.Optimal, e.Lo, e.Hi, e.HeadroomHiPct)
			}
		}
	}

	// Search strategy: the default uniform draw keeps cfg.Strategy nil so
	// the campaign takes the legacy sampler path (and its journals stay
	// headerless, readable by older builds). Any explicit non-uniform
	// choice is constructed here, instrumented into the same registry.
	tailSafe := true
	if strategySpec != "" {
		sm := search.NewMetrics(reg, *strategy)
		strat, serr := search.New(*strategy, sparams, sm)
		if serr != nil {
			log.Fatal(serr)
		}
		cfg.Strategy = strat
		if im != nil {
			im.Search = sm
		}
		if tailSafe = strat.TailSafe(); !tailSafe {
			fmt.Printf("note: strategy %s biases the sample toward its incumbent, so the campaign fits no optimum estimate and has no stopping rule: it runs to the -max budget\n", strat.Name())
		}
		fmt.Printf("search strategy: %s\n", strategySpec)
	}

	// Resilience layer: retry transient failures with backoff, quarantine
	// the incurable instead of aborting the campaign.
	if *retries > 0 || *timeout > 0 {
		rcfg := core.ResilientConfig{
			MaxAttempts: *retries + 1,
			Timeout:     *timeout,
			Seed:        *seed,
			Metrics:     core.NewResilientMetrics(reg),
		}
		if *verbose {
			rcfg.OnRetry = func(a assign.Assignment, attempt int, err error) {
				log.Printf("retrying %s (attempt %d failed: %v)", a, attempt, err)
			}
		}
		if prog != nil {
			prog.resm = rcfg.Metrics
		}
		runner = core.NewResilientRunner(runner, rcfg)
	}

	// storage is the files the campaign writes, closed before any exit
	// once it has run: Close is where the store reports a write that
	// never became durable.
	var storage []io.Closer

	// Measurement cache: the paper's symmetry argument (performance depends
	// only on which tasks share a pipe/core/chip) makes structurally
	// equivalent assignments interchangeable, so duplicates in the random
	// sample are served from memory instead of re-running the testbed. The
	// cache sits inside journaling — every draw, hit or miss, is still
	// journaled — and single-flight keeps concurrent workers from measuring
	// one class twice, so journal bytes are identical with -cache on or off.
	// With -cache-dir, a persistent content-addressed store backs the LRU
	// as a second tier: classes evicted from memory — or measured by a
	// previous run, or by another process sharing the directory — are
	// served from disk instead of the testbed.
	if *cacheOn {
		cm := core.NewCacheMetrics(reg)
		c := core.NewCache(*cacheSize, cm)
		if *cacheDir != "" {
			store, serr := cas.Open(*cacheDir)
			if serr != nil {
				log.Fatal(serr)
			}
			storage = append(storage, store)
			c.AttachStore(store)
			fmt.Printf("persistent measurement store at %s: %d classes on disk\n", *cacheDir, store.Len())
		}
		runner = core.NewCachedContextRunner(runner, c, identity)
		if prog != nil {
			prog.cachem = cm
		}
	}

	// Write-ahead journal: every completed measurement hits disk before
	// the next one starts, so a killed campaign resumes from where it was.
	rc := campaign.RunConfig{Workers: *workers, Batch: core.BatchOptions{Size: *batchSize}}
	if *journalPath != "" {
		h := campaign.JournalHeader{Benchmark: name, Topo: topo, Tasks: tasks, Seed: *seed, Strategy: strategySpec, Model: model}
		if *resume {
			rc.Journal, rc.State, err = campaign.ResumeJournal(*journalPath, h)
			if err == nil {
				fmt.Printf("resuming from %s: %d measurements recovered (%d quarantined)\n",
					*journalPath, len(rc.State.Results), rc.State.Quarantined)
			}
		} else {
			rc.Journal, err = campaign.CreateJournal(*journalPath, h)
		}
		if err != nil {
			log.Fatal(err)
		}
		rc.Journal.Instrument(campaign.NewJournalMetrics(reg))
		storage = append(storage, rc.Journal)
	}

	if rc.Workers <= 0 && poolSize > 1 {
		rc.Workers = poolSize // keep every pooled testbed busy
	}
	// Batched measurement: each worker takes chunks of draws, which
	// resolve against the cache tiers together, the unique misses
	// core-sharded on the local testbed's batch path.
	if *batchSize > 0 {
		if *retries > 0 || *timeout > 0 {
			fmt.Println("note: -retries/-timeout wrap each measurement individually, so -batch falls back to per-draw measurement under the resilient runner")
		}
		fmt.Printf("measuring in batches of %d draws\n", *batchSize)
		rc.Batch.Metrics = core.NewBatchMetrics(reg)
	}
	if rc.Workers > 1 {
		// Parallel fan-out: completions still commit to the journal
		// strictly in draw order.
		rc.PoolMetrics = core.NewPoolMetrics(reg, rc.Workers)
		if prog != nil {
			prog.poolm, prog.workers = rc.PoolMetrics, rc.Workers
		}
		fmt.Printf("measuring with %d parallel workers\n", rc.Workers)
	}

	// Ctrl-C / SIGTERM stops the campaign at a measurement boundary; the
	// journal keeps everything completed so far. Whatever error the
	// interrupted measurement surfaced, Run reports context.Canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := campaign.Run(ctx, runner, cfg, rc)
	prog.done()
	var closeErr error
	for _, f := range storage {
		closeErr = errors.Join(closeErr, f.Close())
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !errors.Is(err, core.ErrBudgetExhausted) && !interrupted {
		log.Fatal(errors.Join(err, closeErr))
	}
	if closeErr != nil {
		log.Fatalf("closing the campaign's files: %v", closeErr)
	}
	if interrupted {
		fmt.Printf("interrupted after %d measurements", res.Samples)
		if *journalPath != "" {
			fmt.Printf("; re-run with -resume to continue from %s", *journalPath)
		}
		fmt.Println()
		os.Exit(3)
	}

	if !report(os.Stdout, res, tailSafe, *loss) {
		os.Exit(2)
	}
}

// remoteIdentity is the cache identity of a remote source: its
// announcement and the campaign seed, ending with the model when the
// server names one, so a store filled under another model misses.
func remoteIdentity(h remote.Hello, seed int64) string {
	id := fmt.Sprintf("remote|%s|%d|s%d", h.Name, h.Tasks, seed)
	if h.Model != "" {
		id += "|" + h.Model
	}
	return id
}

// runClient talks to a campaignd service instead of measuring locally:
// -submit posts a campaign spec built from the usual flags and follows it
// to a terminal state, -query runs a predicate query over the service's
// promoted result table. Exit codes mirror the local campaign: 0 on
// completed, 2 when the budget ran out unsatisfied or the campaign ended
// non-completed.
func runClient(base, submit, query string, spec coord.Spec) {
	base = strings.TrimRight(base, "/")
	if submit == "" && query == "" {
		log.Fatal("-server needs -submit ID or -query EXPR")
	}

	if submit != "" {
		var st coord.Status
		if err := clientCall("POST", base+"/campaigns", spec, &st); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted campaign %q to %s (testbed %s)\n", st.ID, base, st.Testbed)
		last := ""
		for !st.State.Terminal() && st.State != coord.StateFailed && st.State != coord.StatePaused {
			time.Sleep(250 * time.Millisecond)
			if err := clientCall("GET", base+"/campaigns/"+submit, nil, &st); err != nil {
				log.Fatal(err)
			}
			if line := st.Summary(); line != last {
				fmt.Println(line)
				last = line
			}
		}
		switch st.State {
		case coord.StateCompleted:
			if st.Satisfied {
				fmt.Printf("requirement met: loss <= %.2f%% with 0.95 confidence\n", spec.LossPct)
				return
			}
			fmt.Println("sample budget exhausted before meeting the requirement")
		case coord.StateFailed:
			fmt.Printf("campaign failed: %s\n", st.Err)
		default:
			fmt.Printf("campaign ended %s\n", st.State)
		}
		os.Exit(2)
	}

	var res struct {
		Rows  []coord.QueryResult `json:"rows"`
		Count int                 `json:"count"`
	}
	if err := clientCall("GET", base+"/query?q="+url.QueryEscape(query), nil, &res); err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("%v [%v] %v: n=%v best=%v upb=%v gap=%v%% satisfied=%v\n",
			row["id"], row["status"], row["benchmark"], row["samples"],
			row["best"], row["upb"], row["gap_pct"], row["satisfied"])
	}
	fmt.Printf("%d row(s) match %q\n", res.Count, query)
}

// clientCall performs one JSON round-trip against campaignd, decoding the
// service's {"error": ...} body into a plain error on non-2xx statuses.
func clientCall(method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = strings.NewReader(string(raw))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
