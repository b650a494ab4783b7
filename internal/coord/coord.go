// Package coord is the campaign-as-a-service layer: a multi-tenant
// coordinator that runs many statistical task-assignment campaigns
// concurrently over the existing engine, each with its own write-ahead
// journal (its only record) under one data directory, and promotes
// finished campaigns into an indexed table store queryable without ever
// reopening a journal.
//
// Lifecycle: a submitted campaign is queued, scheduled onto a bounded set
// of runner slots, and runs the paper's iterative algorithm serially
// against its measurement source — so its journal bytes are identical to
// a standalone `optassign -journal` run with the same spec. Pause and
// cancel cut the run at a measurement boundary via context cancellation;
// the journal keeps everything completed. On restart the coordinator
// re-admits every campaign whose spec is on disk but whose terminal row
// is not in the table, resuming each from its journal — a kill at any
// instant loses nothing and changes no byte of any journal.
//
// Durability protocol: the spec file is the campaign's existence, the
// journal its progress, the table row its terminal state. Each is written
// before the state it records is acted on (spec before journal, journal
// before refit, row before the in-memory state flips terminal), and the
// table row is committed with fsync before the campaign is declared done
// — so every crash window re-runs forward into the same place.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"optassign/internal/campaign"
	"optassign/internal/core"
	"optassign/internal/search"
	"optassign/internal/table"
	"optassign/internal/wal"
)

// Spec is one campaign submission.
type Spec struct {
	// ID names the campaign; it keys the spec file, the journal and the
	// result row, so it must be unique and filename-safe.
	ID string `json:"id"`
	// Benchmark picks the workload (see apps.ByName).
	Benchmark string `json:"benchmark"`
	// Instances sizes the local testbed (pipeline instances, 3 tasks
	// each); 0 means the default 8. Ignored by pooled sources.
	Instances int `json:"instances,omitempty"`
	// LossPct is the acceptable performance loss versus the estimated
	// optimum, in percent.
	LossPct float64 `json:"loss_pct"`
	// Ninit, Ndelta and MaxSamples are the fit schedule (§5.3); zero
	// takes the engine defaults.
	Ninit      int `json:"ninit,omitempty"`
	Ndelta     int `json:"ndelta,omitempty"`
	MaxSamples int `json:"max_samples,omitempty"`
	// Seed drives the draw sequence and the local testbed.
	Seed int64 `json:"seed"`
	// Strategy and StrategyParams pick the search strategy ("" or
	// "uniform" is the paper's i.i.d. sampler).
	Strategy       string `json:"strategy,omitempty"`
	StrategyParams string `json:"strategy_params,omitempty"`
}

// ErrBadSpec wraps every Spec validation failure, so the HTTP layer can
// map the whole family to a 400.
var ErrBadSpec = errors.New("coord: bad campaign spec")

// Validate rejects specs the coordinator cannot run or persist.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("%w: campaign has no id", ErrBadSpec)
	}
	for _, r := range s.ID {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("%w: campaign id %q: ids are [A-Za-z0-9._-]+", ErrBadSpec, s.ID)
		}
	}
	if strings.HasPrefix(s.ID, ".") {
		return fmt.Errorf("%w: campaign id %q may not start with a dot", ErrBadSpec, s.ID)
	}
	if s.Benchmark == "" {
		return fmt.Errorf("%w: campaign has no benchmark", ErrBadSpec)
	}
	if s.LossPct <= 0 {
		return fmt.Errorf("%w: campaign needs a positive loss_pct", ErrBadSpec)
	}
	params, err := search.ParseParams(s.StrategyParams)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	name := s.Strategy
	if name == "" {
		name = "uniform"
	}
	if _, err := search.New(name, params, nil); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// strategySpec is the canonical strategy string stamped into the journal
// header (empty for the default uniform sampler, matching the CLI).
func (s Spec) strategySpec() (string, error) {
	params, err := search.ParseParams(s.StrategyParams)
	if err != nil {
		return "", err
	}
	name := s.Strategy
	if name == "" {
		name = "uniform"
	}
	return search.Spec(name, params), nil
}

// State is a campaign's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateCompleted State = "completed"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Terminal reports whether the state is final (recorded in the table).
func (s State) Terminal() bool { return s == StateCompleted || s == StateCancelled }

// Typed errors for the conditions the HTTP layer maps to status codes.
var (
	ErrUnknownCampaign = errors.New("coord: no such campaign")
	ErrCampaignExists  = errors.New("coord: campaign already exists")
	ErrWrongState      = errors.New("coord: campaign is not in a state that allows this")
	ErrClosed          = errors.New("coord: coordinator is closed")
)

// Status is a campaign's externally visible state: the spec's identity
// plus the live (or final) convergence figures.
type Status struct {
	ID           string  `json:"id"`
	Benchmark    string  `json:"benchmark"`
	Testbed      string  `json:"testbed"`
	State        State   `json:"state"`
	Strategy     string  `json:"strategy,omitempty"`
	Seed         int64   `json:"seed"`
	Tasks        int     `json:"tasks,omitempty"`
	Samples      int     `json:"samples"`
	Quarantined  int     `json:"quarantined,omitempty"`
	Best         float64 `json:"best,omitempty"`
	UPB          float64 `json:"upb,omitempty"`
	UPBLo        float64 `json:"upb_lo,omitempty"`
	UPBHi        float64 `json:"upb_hi,omitempty"`
	GapPct       float64 `json:"gap_pct,omitempty"`
	Satisfied    bool    `json:"satisfied"`
	CreatedUnix  int64   `json:"created_unix"`
	FinishedUnix int64   `json:"finished_unix,omitempty"`
	Err          string  `json:"error,omitempty"`
}

// Summary renders the live convergence line ("upb=… ±…"), the same shape
// the CLI's -progress prints.
func (st Status) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s] n=%d best=%.6g", st.ID, st.State, st.Samples, st.Best)
	if st.UPB > 0 {
		fmt.Fprintf(&b, " upb=%.6g", st.UPB)
		if st.UPBHi > 0 {
			fmt.Fprintf(&b, " ±%.3g", (st.UPBHi-st.UPBLo)/2)
		}
		fmt.Fprintf(&b, " gap=%.2f%%", st.GapPct)
	}
	return b.String()
}

// Config configures a coordinator.
type Config struct {
	// DataDir holds everything the coordinator persists: campaigns/
	// (spec files), journals/ (one journal per campaign, its only
	// record) and table/ (the promoted result store).
	DataDir string
	// MaxConcurrent bounds simultaneously running campaigns (default 4).
	MaxConcurrent int
	// Source provides measurement capacity (default LocalSource).
	Source Source
	// Metrics, when non-nil, receives coordinator gauges and counters.
	Metrics *Metrics
	// Logf, when non-nil, receives one line per lifecycle transition.
	Logf func(format string, args ...any)
}

// campState is the coordinator's in-memory record of one campaign.
type campState struct {
	spec     Spec
	created  int64
	state    State
	errText  string
	testbed  string
	strategy string // canonical spec, for status display

	// Admission resources: held from admit to run exit (or pause/cancel
	// of a queued campaign). The journal handle owns the exclusive lock.
	handle Handle
	j      *campaign.Journal
	js     *campaign.JournalState
	hdr    campaign.JournalHeader

	cancel  context.CancelFunc
	pending State // what a context cancellation means: paused or cancelled

	// Live convergence figures, updated from each reported round while
	// running, frozen from the result (or the table row) when terminal.
	samples     int
	quarantined int
	best        float64
	upb         float64
	upbLo       float64
	upbHi       float64
	gapPct      float64
	satisfied   bool
	finished    int64
}

// Coordinator runs campaigns as a service.
type Coordinator struct {
	cfg   Config
	table *table.Table

	mu        sync.Mutex
	campaigns map[string]*campState
	queue     []string
	running   int
	closed    bool

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
}

// CampaignsSchema is the promoted-results table's schema: one row per
// terminal campaign, indexed on the columns queries filter by.
func CampaignsSchema() table.Schema {
	return table.Schema{
		Name: "campaigns",
		Columns: []table.Column{
			{Name: "id", Type: table.String, Indexed: true},
			{Name: "benchmark", Type: table.String, Indexed: true},
			{Name: "testbed", Type: table.String, Indexed: true},
			{Name: "strategy", Type: table.String},
			{Name: "status", Type: table.String, Indexed: true},
			{Name: "seed", Type: table.Int},
			{Name: "tasks", Type: table.Int},
			{Name: "samples", Type: table.Int},
			{Name: "quarantined", Type: table.Int},
			{Name: "loss_pct", Type: table.Float},
			{Name: "best", Type: table.Float},
			{Name: "upb", Type: table.Float},
			{Name: "upb_lo", Type: table.Float},
			{Name: "upb_hi", Type: table.Float},
			{Name: "gap_pct", Type: table.Float},
			{Name: "satisfied", Type: table.Bool, Indexed: true},
			{Name: "created_unix", Type: table.Int},
			{Name: "finished_unix", Type: table.Int},
		},
	}
}

// Open starts a coordinator over a data directory, recovering every
// non-terminal campaign found there: specs with a table row load as
// terminal history, paused specs wait for an explicit resume, and
// everything else — queued, running or mid-flight when the previous
// process died — re-admits from its journal and runs to completion.
func Open(cfg Config) (*Coordinator, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("coord: Config.DataDir is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.Source == nil {
		cfg.Source = LocalSource{}
	}
	for _, sub := range []string{"campaigns", "journals"} {
		if err := os.MkdirAll(filepath.Join(cfg.DataDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("coord: %w", err)
		}
	}
	tab, err := table.OpenOrCreate(filepath.Join(cfg.DataDir, "table"), CampaignsSchema(), 0)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		table:      tab,
		campaigns:  make(map[string]*campState),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	if err := c.recover(); err != nil {
		cancel()
		tab.Close()
		return nil, err
	}
	c.mu.Lock()
	c.kickLocked()
	c.updateGaugesLocked()
	c.mu.Unlock()
	return c, nil
}

// specFile is the on-disk form of a campaign's existence. Paused is the
// one mutable bit: it distinguishes "the user stopped this" (stays
// stopped across restarts) from "the process stopped" (auto-resumes).
type specFile struct {
	Format      int   `json:"format"`
	Spec        Spec  `json:"spec"`
	Paused      bool  `json:"paused,omitempty"`
	CreatedUnix int64 `json:"created_unix"`
}

func (c *Coordinator) specPath(id string) string {
	return filepath.Join(c.cfg.DataDir, "campaigns", id+".json")
}

// JournalPath returns the journal file for a campaign id.
func (c *Coordinator) JournalPath(id string) string {
	return filepath.Join(c.cfg.DataDir, "journals", id+".journal")
}

// writeSpec persists a spec file atomically (wal.WriteFileAtomic: temp
// + fsync + rename + directory fsync — the journal's durability
// discipline).
func (c *Coordinator) writeSpec(sf specFile) error {
	err := wal.WriteFileAtomic(c.specPath(sf.Spec.ID), 0o600, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(sf)
	})
	if err != nil {
		return fmt.Errorf("coord: writing spec: %w", err)
	}
	return nil
}

// decodeSpec decodes the spec file of campaign id, refusing one that
// names another campaign.
func decodeSpec(id string, data []byte) (specFile, error) {
	var sf specFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return specFile{}, fmt.Errorf("coord: decoding spec %s: %w", id, err)
	}
	if sf.Spec.ID != id {
		return specFile{}, fmt.Errorf("coord: spec file %s names campaign %q", id, sf.Spec.ID)
	}
	return sf, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// recover loads every persisted campaign into memory and re-admits the
// non-terminal ones.
func (c *Coordinator) recover() error {
	entries, err := os.ReadDir(filepath.Join(c.cfg.DataDir, "campaigns"))
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(ids)
	for _, id := range ids {
		data, err := os.ReadFile(c.specPath(id))
		if err != nil {
			return fmt.Errorf("coord: %w", err)
		}
		sf, err := decodeSpec(id, data)
		if err != nil {
			return err
		}
		cs := &campState{spec: sf.Spec, created: sf.CreatedUnix, testbed: c.cfg.Source.Testbed()}
		cs.strategy, _ = sf.Spec.strategySpec()
		c.campaigns[id] = cs

		if row := c.terminalRow(id); row != nil {
			c.loadTerminal(cs, row)
			c.logf("recovered %s: %s", id, cs.state)
			continue
		}
		if sf.Paused {
			cs.state = StatePaused
			c.logf("recovered %s: paused (resume to continue)", id)
			continue
		}
		// In flight when the previous process died: re-admit and resume.
		if err := c.admit(cs); err != nil {
			cs.state = StateFailed
			cs.errText = err.Error()
			c.logf("recovered %s: failed to re-admit: %v", id, err)
			continue
		}
		c.queue = append(c.queue, id)
		cs.state = StateQueued
		c.logf("recovered %s: resuming with %d measurements journaled", id, cs.js.Draws)
	}
	return nil
}

// terminalRow returns the campaign's promoted table row, or nil.
func (c *Coordinator) terminalRow(id string) table.Row {
	ids, err := c.table.Lookup("id", id)
	if err != nil || len(ids) == 0 {
		return nil
	}
	// Append-only store: the last row for an id wins (re-promotion after
	// a crash in the completion window can leave an earlier duplicate).
	return c.table.Get(ids[len(ids)-1])
}

// loadTerminal freezes a campState from its promoted row.
func (c *Coordinator) loadTerminal(cs *campState, row table.Row) {
	s := CampaignsSchema()
	get := func(col string) any {
		i, _, _ := s.Col(col)
		return row[i]
	}
	cs.state = State(get("status").(string))
	cs.samples = int(get("samples").(int64))
	cs.quarantined = int(get("quarantined").(int64))
	cs.best = get("best").(float64)
	cs.upb = get("upb").(float64)
	cs.upbLo = get("upb_lo").(float64)
	cs.upbHi = get("upb_hi").(float64)
	cs.gapPct = get("gap_pct").(float64)
	cs.satisfied = get("satisfied").(bool)
	cs.finished = get("finished_unix").(int64)
}

// admit acquires a campaign's measurement handle and its journal (the
// exclusive lock), loading any prior progress. It is the single gate
// every path into the run queue goes through — submit, user resume and
// crash recovery — so they all hold identical resources.
func (c *Coordinator) admit(cs *campState) error {
	strategy, err := cs.spec.strategySpec()
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	h, err := c.cfg.Source.Acquire(cs.spec)
	if err != nil {
		return err
	}
	hdr := campaign.JournalHeader{
		Benchmark: h.Name(),
		Topo:      h.Topo(),
		Tasks:     h.Tasks(),
		Seed:      cs.spec.Seed,
		Strategy:  strategy,
	}
	path := c.JournalPath(cs.spec.ID)
	j, js, err := campaign.ResumeJournal(path, hdr)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Crash between spec write and journal create — start fresh.
		j, err = campaign.CreateJournal(path, hdr)
		js = &campaign.JournalState{Header: hdr}
	case errors.Is(err, campaign.ErrJournalNoHeader):
		// Crash between journal create and its header write: the file is
		// empty (or a torn header line), so nothing is lost by redoing it.
		j, err = campaign.CreateJournal(path, hdr, campaign.Force())
		js = &campaign.JournalState{Header: hdr}
	}
	if err != nil {
		h.Close()
		return err
	}
	cs.handle, cs.j, cs.js, cs.hdr = h, j, js, hdr
	cs.strategy = strategy
	cs.samples = len(js.Results)
	cs.quarantined = js.Quarantined
	return nil
}

// releaseLocked closes a campaign's admission resources (journal lock
// and source handle). Safe to call twice.
func (cs *campState) releaseLocked() error {
	var err error
	if cs.j != nil {
		err = cs.j.Close()
		cs.j = nil
	}
	if cs.handle != nil {
		if cerr := cs.handle.Close(); err == nil {
			err = cerr
		}
		cs.handle = nil
	}
	cs.js = nil
	return err
}

// Submit admits a new campaign and queues it. The journal is created
// (refusing to overwrite any existing one) and its exclusive lock held
// from this moment, so a duplicate id — in this coordinator or any other
// process — fails here, not mid-run.
func (c *Coordinator) Submit(spec Spec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Status{}, ErrClosed
	}
	if _, ok := c.campaigns[spec.ID]; ok {
		return Status{}, fmt.Errorf("%w: %s", ErrCampaignExists, spec.ID)
	}
	if _, err := os.Stat(c.specPath(spec.ID)); err == nil {
		return Status{}, fmt.Errorf("%w: %s", ErrCampaignExists, spec.ID)
	}
	cs := &campState{
		spec:    spec,
		created: time.Now().Unix(),
		state:   StateQueued,
		testbed: c.cfg.Source.Testbed(),
	}
	// Spec before journal: a crash in between recovers as "spec with no
	// journal", which admission starts fresh — never the reverse, an
	// orphan journal no spec accounts for.
	if err := c.writeSpec(specFile{Format: 1, Spec: spec, CreatedUnix: cs.created}); err != nil {
		return Status{}, err
	}
	if err := c.admit(cs); err != nil {
		os.Remove(c.specPath(spec.ID))
		return Status{}, err
	}
	c.campaigns[spec.ID] = cs
	c.queue = append(c.queue, spec.ID)
	c.cfg.Metrics.submitted()
	c.logf("submitted %s (%s seed=%d)", spec.ID, spec.Benchmark, spec.Seed)
	c.kickLocked()
	c.updateGaugesLocked()
	return c.statusLocked(cs), nil
}

// kickLocked starts queued campaigns while slots are free.
func (c *Coordinator) kickLocked() {
	for !c.closed && c.running < c.cfg.MaxConcurrent && len(c.queue) > 0 {
		id := c.queue[0]
		c.queue = c.queue[1:]
		cs, ok := c.campaigns[id]
		if !ok || cs.state != StateQueued {
			continue
		}
		ctx, cancel := context.WithCancel(c.rootCtx)
		cs.state = StateRunning
		cs.cancel = cancel
		cs.pending = ""
		c.running++
		c.cfg.Metrics.started()
		c.wg.Add(1)
		go c.run(cs, ctx)
	}
}

// roundStatus feeds a campaign's live status from the engine's completed
// rounds. It observes only — journal bytes are identical with it on or
// off. The bound fields change only on rounds that estimated.
func (c *Coordinator) roundStatus(cs *campState) func(core.Round) {
	return func(r core.Round) {
		c.mu.Lock()
		defer c.mu.Unlock()
		cs.samples, cs.quarantined, cs.best = r.Samples, r.Quarantined, r.Best
		if e := r.Estimate; r.Kind == core.RoundEstimated {
			cs.upb, cs.upbLo, cs.upbHi, cs.gapPct = fin(e.Optimal), fin(e.Lo), fin(e.Hi), fin(e.HeadroomHiPct)
		}
	}
}

// fin clamps non-finite values (an unbounded tail's +Inf upper bound) to
// zero: JSON cannot carry them and the table refuses them; zero reads as
// "no bound yet" everywhere they surface.
func fin(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// run executes one campaign to a boundary: completion, budget
// exhaustion, pause, cancel, shutdown or failure.
func (c *Coordinator) run(cs *campState, ctx context.Context) {
	defer c.wg.Done()

	c.mu.Lock()
	spec := cs.spec
	hdr := cs.hdr
	js := cs.js
	j := cs.j
	runner := cs.handle.Runner()
	c.mu.Unlock()

	cfg := core.IterConfig{
		Topo:          hdr.Topo,
		Tasks:         hdr.Tasks,
		AcceptLossPct: spec.LossPct,
		Ninit:         spec.Ninit,
		Ndelta:        spec.Ndelta,
		MaxSamples:    spec.MaxSamples,
		Seed:          spec.Seed,
		OnRound:       c.roundStatus(cs),
	}
	if hdr.Strategy != "" {
		params, err := search.ParseParams(spec.StrategyParams)
		if err != nil {
			c.finish(cs, nil, err)
			return
		}
		cfg.Strategy, err = search.New(spec.Strategy, params, nil)
		if err != nil {
			c.finish(cs, nil, err)
			return
		}
	}
	// One measurement at a time through campaign.Run — the same
	// assembler as a standalone `optassign -journal` run, so journal bytes
	// match a standalone run byte for byte. Run also classifies a
	// teardown (pause, cancel, shutdown) as context.Canceled, whatever
	// transport error a collapsing remote stream surfaced.
	res, err := campaign.Run(ctx, runner, cfg, campaign.RunConfig{Journal: j, State: js, Workers: 1})
	c.finish(cs, &res, err)
}

// finish settles a run's outcome and frees its slot.
func (c *Coordinator) finish(cs *campState, res *core.IterResult, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rerr := cs.releaseLocked(); rerr != nil && err == nil {
		err = rerr
	}
	cs.cancel = nil
	c.running--

	switch {
	case err == nil || errors.Is(err, core.ErrBudgetExhausted):
		if perr := c.promoteLocked(cs, StateCompleted, res); perr != nil {
			cs.state = StateFailed
			cs.errText = perr.Error()
			c.logf("campaign %s: completed but promotion failed: %v", cs.spec.ID, perr)
			break
		}
		c.logf("campaign %s: completed (n=%d satisfied=%v)", cs.spec.ID, cs.samples, cs.satisfied)
	case errors.Is(err, context.Canceled):
		switch cs.pending {
		case StatePaused:
			cs.state = StatePaused
			c.logf("campaign %s: paused at n=%d", cs.spec.ID, cs.samples)
		case StateCancelled:
			if perr := c.promoteLocked(cs, StateCancelled, res); perr != nil {
				cs.state = StateFailed
				cs.errText = perr.Error()
				break
			}
			c.logf("campaign %s: cancelled at n=%d", cs.spec.ID, cs.samples)
		default:
			// Coordinator shutdown: the campaign goes back to queued so a
			// restart re-admits it from the journal.
			cs.state = StateQueued
			c.logf("campaign %s: stopped at n=%d, will resume on restart", cs.spec.ID, cs.samples)
		}
	default:
		cs.state = StateFailed
		cs.errText = err.Error()
		c.cfg.Metrics.failed()
		c.logf("campaign %s: failed: %v", cs.spec.ID, err)
	}
	cs.pending = ""
	c.kickLocked()
	c.updateGaugesLocked()
}

// promoteLocked writes a campaign's terminal row into the table and
// commits it. The fsynced row is the durable terminal marker: it lands
// before the in-memory state flips, so a crash anywhere in this window
// re-runs the (idempotent) promotion, never loses it.
func (c *Coordinator) promoteLocked(cs *campState, status State, res *core.IterResult) error {
	cs.finished = time.Now().Unix()
	if res != nil {
		cs.samples = res.Samples
		cs.quarantined = len(res.Quarantined)
		cs.best = res.Best.Perf
		cs.upb = fin(res.Final.Optimal)
		cs.upbLo = fin(res.Final.Lo)
		cs.upbHi = fin(res.Final.Hi)
		cs.gapPct = fin(res.Final.HeadroomHiPct)
		cs.satisfied = res.Satisfied
	}
	err := c.table.Insert(
		cs.spec.ID, cs.spec.Benchmark, cs.testbed, cs.strategy, string(status),
		cs.spec.Seed, int64(cs.hdr.Tasks), int64(cs.samples), int64(cs.quarantined),
		cs.spec.LossPct, cs.best, cs.upb, cs.upbLo, cs.upbHi, cs.gapPct,
		cs.satisfied, cs.created, cs.finished,
	)
	if err == nil {
		err = c.table.Commit()
	}
	if err != nil {
		return err
	}
	cs.state = status
	c.cfg.Metrics.promoted()
	return nil
}

// Pause stops a queued or running campaign at the next measurement
// boundary and records the pause durably, so it stays paused across
// coordinator restarts until explicitly resumed.
func (c *Coordinator) Pause(id string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	switch cs.state {
	case StateQueued:
		if err := c.writeSpec(specFile{Format: 1, Spec: cs.spec, Paused: true, CreatedUnix: cs.created}); err != nil {
			return Status{}, err
		}
		c.dropFromQueueLocked(id)
		cs.releaseLocked()
		cs.state = StatePaused
	case StateRunning:
		if err := c.writeSpec(specFile{Format: 1, Spec: cs.spec, Paused: true, CreatedUnix: cs.created}); err != nil {
			return Status{}, err
		}
		cs.pending = StatePaused
		cs.cancel()
		// The run loop flips the state when the engine stops; report the
		// requested state now.
	default:
		return Status{}, fmt.Errorf("%w: %s is %s", ErrWrongState, id, cs.state)
	}
	c.updateGaugesLocked()
	st := c.statusLocked(cs)
	st.State = StatePaused
	return st, nil
}

// Resume re-admits a paused or failed campaign and queues it.
func (c *Coordinator) Resume(id string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Status{}, ErrClosed
	}
	cs, ok := c.campaigns[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	if cs.state != StatePaused && cs.state != StateFailed {
		return Status{}, fmt.Errorf("%w: %s is %s", ErrWrongState, id, cs.state)
	}
	if err := c.writeSpec(specFile{Format: 1, Spec: cs.spec, CreatedUnix: cs.created}); err != nil {
		return Status{}, err
	}
	if err := c.admit(cs); err != nil {
		return Status{}, err
	}
	cs.state = StateQueued
	cs.errText = ""
	c.queue = append(c.queue, id)
	c.logf("resumed %s with %d measurements journaled", id, cs.js.Draws)
	c.kickLocked()
	c.updateGaugesLocked()
	return c.statusLocked(cs), nil
}

// Cancel terminates a campaign. Its journal stays on disk (the raw
// evidence is never destroyed), and a cancelled row is promoted into the
// table so the cancellation is terminal across restarts.
func (c *Coordinator) Cancel(id string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	switch cs.state {
	case StateQueued:
		c.dropFromQueueLocked(id)
		cs.releaseLocked()
		if err := c.promoteLocked(cs, StateCancelled, nil); err != nil {
			return Status{}, err
		}
	case StatePaused, StateFailed:
		if err := c.promoteLocked(cs, StateCancelled, nil); err != nil {
			return Status{}, err
		}
	case StateRunning:
		cs.pending = StateCancelled
		cs.cancel()
	default:
		return Status{}, fmt.Errorf("%w: %s is %s", ErrWrongState, id, cs.state)
	}
	c.updateGaugesLocked()
	st := c.statusLocked(cs)
	st.State = StateCancelled
	return st, nil
}

func (c *Coordinator) dropFromQueueLocked(id string) {
	for i, q := range c.queue {
		if q == id {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// Status returns one campaign's current state.
func (c *Coordinator) Status(id string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	return c.statusLocked(cs), nil
}

func (c *Coordinator) statusLocked(cs *campState) Status {
	return Status{
		ID:           cs.spec.ID,
		Benchmark:    cs.spec.Benchmark,
		Testbed:      cs.testbed,
		State:        cs.state,
		Strategy:     cs.strategy,
		Seed:         cs.spec.Seed,
		Tasks:        cs.hdr.Tasks,
		Samples:      cs.samples,
		Quarantined:  cs.quarantined,
		Best:         cs.best,
		UPB:          cs.upb,
		UPBLo:        cs.upbLo,
		UPBHi:        cs.upbHi,
		GapPct:       cs.gapPct,
		Satisfied:    cs.satisfied,
		CreatedUnix:  cs.created,
		FinishedUnix: cs.finished,
		Err:          cs.errText,
	}
}

// List returns every campaign's status, oldest first, optionally
// filtered by state and/or benchmark.
func (c *Coordinator) List(state State, benchmark string) []Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Status
	for _, cs := range c.campaigns {
		if state != "" && cs.state != state {
			continue
		}
		if benchmark != "" && cs.spec.Benchmark != benchmark {
			continue
		}
		out = append(out, c.statusLocked(cs))
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].CreatedUnix != out[k].CreatedUnix {
			return out[i].CreatedUnix < out[k].CreatedUnix
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// QueryResult is one promoted row keyed by column name.
type QueryResult map[string]any

// Query evaluates a predicate expression (see table.ParseFilter) over
// the promoted-campaigns table and returns the matching rows. It touches
// only the table's in-memory rows and indexes — no journal is opened.
func (c *Coordinator) Query(expr string) ([]QueryResult, error) {
	f, err := table.ParseFilter(expr, c.table.Schema())
	if err != nil {
		return nil, err
	}
	ids := c.table.Select(f)
	s := c.table.Schema()
	out := make([]QueryResult, 0, len(ids))
	for _, id := range ids {
		row := c.table.Get(id)
		qr := make(QueryResult, len(s.Columns))
		for i, col := range s.Columns {
			qr[col.Name] = row[i]
		}
		out = append(out, qr)
	}
	return out, nil
}

// TableLen reports the number of promoted rows.
func (c *Coordinator) TableLen() int { return c.table.Len() }

// Wait blocks until every queued and running campaign has settled
// (terminal, paused or failed). Intended for tests and batch drivers.
func (c *Coordinator) Wait(ctx context.Context) error {
	for {
		c.mu.Lock()
		busy := c.running > 0 || len(c.queue) > 0
		c.mu.Unlock()
		if !busy {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close stops the coordinator: running campaigns stop at their next
// measurement boundary (journals keep everything completed; the specs
// stay un-paused so a restart auto-resumes them), resources release, and
// the table closes. The data directory is left ready for the next Open.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.rootCancel()
	c.wg.Wait()

	c.mu.Lock()
	// Queued campaigns still hold their admission resources.
	for _, cs := range c.campaigns {
		cs.releaseLocked()
	}
	c.queue = nil
	c.mu.Unlock()
	return c.table.Close()
}
