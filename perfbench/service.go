package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"optassign/internal/campaign"
	"optassign/internal/coord"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/search"
	"optassign/internal/table"
)

// service-fleet drives campaignd's coordinator over loopback HTTP: a
// closed-loop tenant keeps serviceInFlight campaigns in flight on a
// two-server fleet while an open-loop dashboard queries the promoted
// results at a fixed rate.
const (
	serviceInFlight = 2
	// prefillRows is how many promoted rows set-up inserts through
	// table's API before the coordinator opens the table.
	prefillRows = 4000
	// queryRate is the dashboard's fixed query rate, per second.
	queryRate = 100
	// pollEvery is how often the tenant polls its campaigns' status.
	pollEvery = 10 * time.Millisecond
	// campaignHeader carries the campaign id on a submit, so the traced
	// handler can parent its span.
	campaignHeader = "X-Perfbench-Campaign"
)

// serviceEnv is one set-up of service-fleet.
type serviceEnv struct {
	seed    int64 // workload seed
	fleet   *fleet
	coord   *coord.Coordinator
	http    *http.Server
	served  chan error
	base    string
	st      *serviceTracer
	openDur time.Duration // table.Open of the pre-filled table
}

func (e *serviceEnv) close() error {
	var errs []error
	if e.http != nil {
		errs = append(errs, e.http.Close(), ignoreClosed(<-e.served))
	}
	if e.coord != nil {
		errs = append(errs, e.coord.Close())
	}
	if e.fleet != nil {
		errs = append(errs, e.fleet.close())
	}
	return errors.Join(errs...)
}

func ignoreClosed(err error) error {
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// setupService pre-fills the result table, starts the fleet, opens the
// coordinator over the table and serves its HTTP API.
func setupService(o options, rep int) (*serviceEnv, error) {
	dataDir := filepath.Join(o.dir, fmt.Sprintf("coord%d", rep))
	tabDir := filepath.Join(dataDir, "table")
	if err := prefill(tabDir, o.seed); err != nil {
		return nil, err
	}
	env := &serviceEnv{seed: o.seed, st: &serviceTracer{}}
	start := time.Now()
	tab, err := table.Open(tabDir, coord.CampaignsSchema(), 0)
	if err != nil {
		return nil, err
	}
	env.openDur = time.Since(start)
	if err := tab.Close(); err != nil {
		return nil, err
	}
	if env.fleet, err = startFleet(o.seed); err != nil {
		return nil, err
	}
	if err := env.fleet.warmUp(context.Background(), o.seed); err != nil {
		env.close()
		return nil, err
	}
	src := tracedSource{inner: coord.PoolSource{Pool: env.fleet.pool}, st: env.st}
	env.coord, err = coord.Open(coord.Config{DataDir: dataDir, MaxConcurrent: serviceInFlight, Source: src})
	if err != nil {
		env.close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	env.base = "http://" + l.Addr().String()
	env.http = &http.Server{Handler: env.st.handler(env.coord.Handler(nil))}
	env.served = make(chan error, 1)
	go func() { env.served <- env.http.Serve(l) }()
	return env, nil
}

// prefill creates the promoted-results table with prefillRows terminal
// rows of past campaigns, generated from the workload seed.
func prefill(dir string, seed int64) error {
	tab, err := table.Create(dir, coord.CampaignsSchema(), 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(search.RepSeed(seed, prefillRep)))
	benchmarks := []string{"IPFwd-L1", "IPFwd-Mem", "Aho-Corasick", "Stateful", "Packet-analyzer"}
	for i := 0; i < prefillRows; i++ {
		strategy := ""
		switch rng.Intn(3) {
		case 1:
			strategy = "stratified"
		case 2:
			strategy = fmt.Sprintf("greedy(explore=0.%02d)", rng.Intn(100))
		}
		status := "completed"
		if rng.Intn(50) == 0 {
			status = "cancelled"
		}
		best := 1e6 * (1 + rng.Float64())
		gap := 2 * rng.Float64()
		upb := best / (1 - gap/100)
		created := int64(1_700_000_000 + i*60)
		err := tab.Insert(
			fmt.Sprintf("hist-%05d", i), benchmarks[rng.Intn(len(benchmarks))], "pool:IPFwd-L1", strategy, status,
			rng.Int63(), int64(24), int64(1000+100*rng.Intn(190)), int64(0),
			[]float64{0.5, 1, 2.5}[rng.Intn(3)], best, upb, upb*0.995, upb, gap,
			gap < 1, created, created+int64(rng.Intn(600)),
		)
		if err != nil {
			tab.Close()
			return err
		}
	}
	if err := tab.Commit(); err != nil {
		tab.Close()
		return err
	}
	return tab.Close()
}

// prefillRep and queryRep derive the pre-filled rows' and the dashboard's
// random streams from the workload seed.
const (
	prefillRep = testbedRep + 1
	queryRep   = testbedRep + 2
)

// runServiceFleet sets up the service, then runs the tenant and the
// dashboard for the timed phase.
func runServiceFleet(ctx context.Context, o options) (*result, error) {
	res := &result{}
	var env *serviceEnv
	for rep := 0; rep < setupReps; rep++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		clock := startSteal()
		var err error
		if env, err = setupService(o, rep); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, clock.unstolen())
	}
	defer env.close()
	cl := newClient()
	defer cl.close()

	var tr *tracer
	var overhead float64
	if o.trace {
		// Campaign 0 alone, untraced then traced, measures the overhead.
		ref, err := servicePhase(ctx, env, cl, "ref-u", schedulePlan, 0, 1, nil, nil)
		if err != nil {
			return nil, err
		}
		refT, err := servicePhase(ctx, env, cl, "ref-t", schedulePlan, 0, 1, newTracer(), nil)
		if err != nil {
			return nil, err
		}
		overhead = refT.wall/ref.wall - 1
		for _, p := range []*phaseResult{ref, refT} {
			if err := checkService(env, p, res); err != nil {
				return nil, err
			}
		}
		if ref.unitDraws != refT.unitDraws {
			return nil, fmt.Errorf("%w: the untraced campaign drew %d, the traced one %d", errCountChanged, ref.unitDraws, refT.unitDraws)
		}
		tr = newTracer()
		env.fleet.trace(tr)
	}

	q := newDashboard(o.seed)
	clock, cpu := startSteal(), cpuTime()
	p, err := servicePhase(ctx, env, cl, "c", schedulePlan, o.seconds, 1, tr, q)
	if err != nil {
		return nil, err
	}
	res.cpu, res.unstolen = (cpuTime() - cpu).Seconds(), clock.unstolen()
	if err := checkService(env, p, res); err != nil {
		return nil, err
	}
	env.fleet.trace(nil)
	// The certifying unit, untimed.
	unit, err := servicePhase(ctx, env, cl, "cert", certifyPlan, 0, unitCampaigns, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := checkService(env, unit, res); err != nil {
		return nil, err
	}
	res.wall = p.wall
	res.draws = p.draws
	res.drawsToCert = unit.unitDraws
	res.campaigns = p.campaigns
	res.submits = p.submits
	res.queries = q.latencies
	res.lateness = q.lateness
	res.attempted = p.draws + unit.draws + p.requests + unit.requests + len(p.ids) + len(unit.ids) + len(q.latencies) + q.failed
	res.failed = p.quarantined + unit.quarantined + q.failed
	res.counts = map[string]float64{"draws_to_cert": float64(unit.unitDraws), "c0000.draws": float64(p.unitDraws)}
	if tr != nil {
		res.layers = serviceLayers(tr, env, q, res)
		res.layers["trace.overhead_frac"] = overhead
		if err := writeTrace(tr, o, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// client is the tenant's and the dashboard's HTTP access: one connection
// each, so the two never queue behind each other client-side.
type client struct {
	tenant, dashboard *http.Client
}

func newClient() *client {
	mk := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return &client{tenant: mk(), dashboard: mk()}
}

func (c *client) close() {
	c.tenant.CloseIdleConnections()
	c.dashboard.CloseIdleConnections()
}

// call sends one request and decodes a 2xx JSON reply into out; any
// other status is an error.
func call(hc *http.Client, method, url string, body []byte, hdr http.Header, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// phaseResult is what one run of the tenant did. A failed request or
// campaign fails the run, so only quarantined draws count as failed.
type phaseResult struct {
	ids         []string
	final       map[string]coord.Status
	unit        []string // the campaigns always run to their end
	wall        float64  // seconds
	draws       int
	unitDraws   int
	campaigns   []float64 // unstolen seconds from submit to completion
	submits     []float64 // ms
	requests    int
	quarantined int
}

// servicePhase runs the closed-loop tenant: campaign i of plan pl (id
// prefix+i, seed search.RepSeed(seed, i)) is submitted as soon as fewer
// than serviceInFlight are running, until the phase (of length until) is
// over. The first minRuns campaigns always run to their end; later ones
// still running at the deadline are cancelled. With q set, the dashboard
// queries for as long as the tenant runs.
func servicePhase(ctx context.Context, env *serviceEnv, cl *client, prefix string, pl plan, until time.Duration, minRuns int, tr *tracer, q *dashboard) (*phaseResult, error) {
	env.st.tr.Store(tr)
	defer env.st.tr.Store(nil)
	p := &phaseResult{final: make(map[string]coord.Status)}
	start := time.Now()
	deadline := start.Add(until)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if q != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.run(cl.dashboard, env.base, stop)
		}()
	}
	err := p.tenant(ctx, env, cl.tenant, prefix, pl, deadline, minRuns, tr)
	p.wall = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	for _, id := range p.unit {
		p.unitDraws += p.final[id].Samples + p.final[id].Quarantined
	}
	return p, err
}

func (p *phaseResult) tenant(ctx context.Context, env *serviceEnv, hc *http.Client, prefix string, pl plan, deadline time.Time, minRuns int, tr *tracer) error {
	type flight struct {
		id        string
		sent      time.Time
		clock     stealClock
		root      int
		cancelled bool
	}
	var inflight []*flight
	for i := 0; ; {
		now := time.Now()
		for len(inflight) < serviceInFlight && (i < minRuns || now.Before(deadline)) {
			spec := coord.Spec{ID: fmt.Sprintf("%s%04d", prefix, i), Benchmark: fleetApp, LossPct: pl.lossPct, MaxSamples: pl.maxSamples, Seed: search.RepSeed(env.seed, i)}
			body, err := json.Marshal(spec)
			if err != nil {
				return err
			}
			f := &flight{id: spec.ID, root: -1}
			if tr != nil {
				f.root = tr.begin("campaign", -1, spec.ID)
				env.st.roots.Store(spec.ID, f.root)
			}
			f.sent, f.clock = time.Now(), startSteal()
			p.requests++
			if err := call(hc, http.MethodPost, env.base+"/campaigns", body, http.Header{campaignHeader: {spec.ID}}, nil); err != nil {
				return fmt.Errorf("submitting %s: %w", spec.ID, err)
			}
			p.submits = append(p.submits, float64(time.Since(f.sent))/1e6)
			p.ids = append(p.ids, spec.ID)
			if i < minRuns {
				p.unit = append(p.unit, spec.ID)
			}
			inflight = append(inflight, f)
			i++
			now = time.Now()
		}
		if len(inflight) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
		kept := inflight[:0]
		for _, f := range inflight {
			var st coord.Status
			p.requests++
			if err := call(hc, http.MethodGet, env.base+"/campaigns/"+f.id, nil, nil, &st); err != nil {
				return fmt.Errorf("polling %s: %w", f.id, err)
			}
			if st.State.Terminal() || st.State == coord.StateFailed {
				if tr != nil {
					tr.end(f.root, st.Samples+st.Quarantined)
				}
				p.final[f.id] = st
				p.draws += st.Samples + st.Quarantined
				p.quarantined += st.Quarantined
				if st.State == coord.StateCompleted {
					p.campaigns = append(p.campaigns, f.clock.unstolen())
				}
				continue
			}
			if !f.cancelled && !time.Now().Before(deadline) && !contains(p.unit, f.id) {
				p.requests++
				if err := call(hc, http.MethodPost, env.base+"/campaigns/"+f.id+"/cancel", nil, nil, nil); err != nil {
					return fmt.Errorf("cancelling %s: %w", f.id, err)
				}
				f.cancelled = true
			}
			kept = append(kept, f)
		}
		inflight = kept
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// dashboard is the open-loop query generator: query k is due at
// start + k/queryRate whether or not earlier ones have returned, and its
// latency is timed from when it was due.
type dashboard struct {
	rng       *rand.Rand
	latencies []float64 // ms
	lateness  []float64 // ms the generator sent late
	failed    int
}

func newDashboard(seed int64) *dashboard {
	return &dashboard{rng: rand.New(rand.NewSource(search.RepSeed(seed, queryRep)))}
}

// query returns the next filter expression of the mix: an indexed
// equality, a non-indexed range scan and a substring match, in turn.
func (d *dashboard) query(k int) string {
	switch k % 3 {
	case 0:
		return fmt.Sprintf("id=hist-%05d", d.rng.Intn(prefillRows))
	case 1:
		return fmt.Sprintf("gap_pct<%.3f", 0.02*d.rng.Float64())
	default:
		return fmt.Sprintf("strategy~0.%02d)", d.rng.Intn(100))
	}
}

func (d *dashboard) run(hc *http.Client, base string, stop <-chan struct{}) {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * time.Second / queryRate)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		var out struct {
			Count int `json:"count"`
		}
		if err := call(hc, http.MethodGet, base+"/query?q="+url.QueryEscape(d.query(k)), nil, nil, &out); err != nil {
			d.failed++
			continue
		}
		d.latencies = append(d.latencies, float64(time.Since(due))/1e6)
		d.lateness = append(d.lateness, float64(sent.Sub(due))/1e6)
	}
}

var errRowMismatch = errors.New("promoted row disagrees with its campaign")

// checkService verifies every campaign of a phase: it settled as
// completed (or cancelled, past the deadline), and its promoted table row
// agrees with its final status and with its journal; a certified row's
// gap is within the target and its UPB bitwise equal to evt.Analyze over
// the journal.
func checkService(env *serviceEnv, p *phaseResult, res *result) error {
	for _, id := range p.ids {
		st, ok := p.final[id]
		if !ok {
			return fmt.Errorf("campaign %s never settled", id)
		}
		if st.State != coord.StateCompleted && !(st.State == coord.StateCancelled && !contains(p.unit, id)) {
			return fmt.Errorf("campaign %s ended %s: %s", id, st.State, st.Err)
		}
		rows, err := env.coord.Query("id=" + id)
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			return fmt.Errorf("%w: %s has %d rows", errRowMismatch, id, len(rows))
		}
		js, err := campaign.LoadJournal(env.coord.JournalPath(id))
		if err != nil {
			return fmt.Errorf("campaign %s: %w", id, err)
		}
		if err := checkRow(rows[0], st, js); err != nil {
			return err
		}
	}
	res.passed("%d promoted rows agree with their campaigns' status and journal", len(p.ids))
	return nil
}

// checkRow compares one promoted row with its campaign's final status and
// journal.
func checkRow(row coord.QueryResult, st coord.Status, js *campaign.JournalState) error {
	mismatch := func(what string, row, want any) error {
		return fmt.Errorf("%w: %s %s: row has %v, want %v", errRowMismatch, st.ID, what, row, want)
	}
	if row["status"] != string(st.State) {
		return mismatch("status", row["status"], st.State)
	}
	if row["samples"] != int64(st.Samples) || len(js.Results) != st.Samples {
		return mismatch("samples", row["samples"], fmt.Sprintf("%d (status) and %d (journal)", st.Samples, len(js.Results)))
	}
	if row["quarantined"] != int64(st.Quarantined) || js.Quarantined != st.Quarantined {
		return mismatch("quarantined", row["quarantined"], st.Quarantined)
	}
	if row["satisfied"] != st.Satisfied {
		return mismatch("satisfied", row["satisfied"], st.Satisfied)
	}
	if !st.Satisfied {
		return nil
	}
	est, err := core.EstimateOptimal(core.Perfs(js.Results), evt.POTOptions{})
	if err != nil {
		return fmt.Errorf("campaign %s: re-analyzing the journal: %w", st.ID, err)
	}
	target, _ := row["loss_pct"].(float64)
	if gap, _ := row["gap_pct"].(float64); gap > target || est.HeadroomHiPct > target {
		return fmt.Errorf("%w: %s certified at %v%% (journal %v%%) > %v%%", errGapAboveTarget, st.ID, gap, est.HeadroomHiPct, target)
	}
	if upb, _ := row["upb"].(float64); math.Float64bits(upb) != math.Float64bits(est.Optimal) {
		return mismatch("upb", upb, est.Optimal)
	}
	return nil
}

// serviceLayers computes service-fleet's per-layer figures.
func serviceLayers(tr *tracer, env *serviceEnv, q *dashboard, res *result) map[string]float64 {
	sum := summarize(tr.snapshot())
	l := map[string]float64{}
	rt, server, submit := sum.stat("remote.roundtrip"), sum.stat("remote.server"), sum.stat("coord.submit")
	l["remote.roundtrip_us"] = perItem(rt.total, rt.count) / 1e3
	l["remote.server_us"] = perItem(server.total, server.count) / 1e3
	l["remote.wire_us"] = l["remote.roundtrip_us"] - l["remote.server_us"]
	l["netdps.measure_us"] = l["remote.server_us"]
	l["netdps.measures"] = float64(server.count)
	l["coord.submit_ms"] = perItem(submit.total, submit.count) / 1e6
	l["coord.queue_wait_ms"] = meanNs(env.st.queueWaits()) / 1e6
	l["table.open_ms"] = float64(env.openDur) / 1e6
	l["draws_to_cert"] = float64(res.drawsToCert)
	l["trace.unaccounted_frac"] = float64(sum.rootSelf) / float64(sum.rootTotal)

	// Coordinator.Query called directly, on the dashboard's query mix.
	var took []float64
	for k := 0; k < 3*100; k++ {
		start := time.Now()
		if _, err := env.coord.Query(q.query(k)); err == nil {
			took = append(took, float64(time.Since(start))/1e3)
		}
	}
	l["coord.query_us"] = mean(took)
	return l
}

// serviceTracer wraps the coordinator's measurement source and HTTP
// handler in spans while a tracer is set.
type serviceTracer struct {
	tr    atomic.Pointer[tracer]
	roots sync.Map // campaign id -> root span

	mu       sync.Mutex
	acquired map[string]time.Time
	waits    []int64
}

// queueWaits returns the recorded admission-to-run waits in ns.
func (s *serviceTracer) queueWaits() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.waits...)
}

func (s *serviceTracer) root(id string) (int, bool) {
	v, ok := s.roots.Load(id)
	if !ok {
		return 0, false
	}
	return v.(int), true
}

// handler times POST /campaigns on the server side.
func (s *serviceTracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		id := r.Header.Get(campaignHeader)
		root, ok := s.root(id)
		if tr == nil || !ok || r.Method != http.MethodPost || r.URL.Path != "/campaigns" {
			next.ServeHTTP(w, r)
			return
		}
		span := tr.begin("coord.submit", root, id)
		next.ServeHTTP(w, r)
		tr.end(span, 1)
	})
}

// tracedSource hands the coordinator traced handles while tracing is on.
type tracedSource struct {
	inner coord.Source
	st    *serviceTracer
}

func (s tracedSource) Testbed() string { return s.inner.Testbed() }

func (s tracedSource) Acquire(spec coord.Spec) (coord.Handle, error) {
	h, err := s.inner.Acquire(spec)
	tr := s.st.tr.Load()
	root, ok := s.st.root(spec.ID)
	if err != nil || tr == nil || !ok {
		return h, err
	}
	s.st.mu.Lock()
	if s.st.acquired == nil {
		s.st.acquired = make(map[string]time.Time)
	}
	s.st.acquired[spec.ID] = time.Now()
	s.st.mu.Unlock()
	return tracedHandle{Handle: h, st: s.st, ref: spanRef{tr: tr, id: root, track: spec.ID}}, nil
}

// tracedHandle records when the coordinator starts running its campaign
// and times every measurement round trip.
type tracedHandle struct {
	coord.Handle
	st  *serviceTracer
	ref spanRef
}

func (h tracedHandle) Runner() core.ContextRunner {
	h.st.mu.Lock()
	if at, ok := h.st.acquired[h.ref.track]; ok {
		h.st.waits = append(h.st.waits, int64(time.Since(at)))
	}
	h.st.mu.Unlock()
	ref := h.ref
	return tracedRunner{name: "remote.roundtrip", inner: h.Handle.Runner(), root: &ref}
}
