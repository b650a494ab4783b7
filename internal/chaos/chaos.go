// Package chaos is the soak harness that proves the fleet's robustness
// story end to end: it stands up an in-process fleet of real measurement
// servers (TCP, the production protocol, the production registry) behind
// fault-injection proxies, runs real campaigns across it, and disturbs
// the fleet while they run — killing members, partitioning links,
// silencing heartbeats, draining servers mid-flight, adding late joiners.
//
// The harness exists for one assertion, made after every scenario: the
// campaign journal must be byte-identical to an undisturbed serial run's.
// The estimator's statistical contract (Chapter 3 of the paper: an i.i.d.
// sample of the assignment space) survives any fleet weather the
// disturbances can brew, or the scenario fails. A second assertion keeps
// the observability honest: the membership gauges in internal/obs must
// agree with the fleet's actual state whenever it is quiescent.
//
// Disturbances are keyed to committed-draw counts, not wall time, so
// scenarios hit the same campaign phase on every machine and under -race.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/campaign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/faulty"
	"optassign/internal/netdps"
	"optassign/internal/obs"
	"optassign/internal/remote"
	"optassign/internal/t2"
)

// FleetConfig sizes the harness timers. The zero value is usable.
type FleetConfig struct {
	// Heartbeat is the registry's heartbeat interval; suspect fires at
	// 4×, evict at 16×. Default 25 ms — fast enough that scenarios can
	// provoke suspects and evictions in test time.
	Heartbeat time.Duration
	// Tasks is the per-testbed task count. Default 8.
	Tasks int
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 25 * time.Millisecond
	}
	if c.Tasks <= 0 {
		c.Tasks = 8
	}
	return c
}

// Fleet is a live in-process fleet: registry, membership pool, telemetry,
// and the members joined so far. Scenarios drive it through Join and the
// per-member disturbance switches, and run campaigns with RunCampaign.
type Fleet struct {
	cfg FleetConfig

	Obs          *obs.Registry
	Events       *obs.CollectorSink
	Pool         *remote.ClientPool
	Registry     *remote.Registry
	PoolMetrics  *remote.PoolMetrics
	FleetMetrics *remote.MembershipMetrics

	regListener net.Listener

	mu      sync.Mutex
	members map[string]*Member
}

// NewFleet wires an empty fleet: a membership pool, a registry serving on
// loopback, and a shared metrics registry + event collector watching both.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	sink := &obs.CollectorSink{}
	f := &Fleet{
		cfg:          cfg,
		Obs:          reg,
		Events:       sink,
		PoolMetrics:  remote.NewPoolMetrics(reg),
		FleetMetrics: remote.NewMembershipMetrics(reg),
		members:      make(map[string]*Member),
	}
	f.Pool = remote.NewPool(remote.PoolConfig{
		Client: remote.ClientConfig{
			RedialAttempts: 2,
			RedialBase:     time.Millisecond,
			RedialMax:      5 * time.Millisecond,
		},
		QuarantineAfter: 3,
		Cooldown:        50 * time.Millisecond,
		Events:          sink,
		Metrics:         f.PoolMetrics,
	})
	f.Registry = remote.NewRegistry(f.Pool, remote.RegistryConfig{
		HeartbeatInterval: cfg.Heartbeat,
		SuspectAfter:      4 * cfg.Heartbeat,
		EvictAfter:        16 * cfg.Heartbeat,
		Events:            sink,
		Metrics:           f.FleetMetrics,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.regListener = l
	go f.Registry.Serve(l)
	return f, nil
}

// Close tears the whole fleet down: members, registry, pool.
func (f *Fleet) Close() {
	f.mu.Lock()
	members := make([]*Member, 0, len(f.members))
	for _, m := range f.members {
		members = append(members, m)
	}
	f.mu.Unlock()
	for _, m := range members {
		m.Kill()
	}
	f.Registry.Close()
	f.Pool.Close()
}

// Member is one fleet server: a deterministic simulated testbed behind a
// real remote.Server, reached through two fault proxies — one on the
// measurement plane, one on the registration link — so scenarios can
// disturb either independently.
type Member struct {
	Name     string
	Testbed  *netdps.Testbed
	Server   *remote.Server
	Reg      *remote.Registrant
	measureP *faulty.Proxy
	regP     *faulty.Proxy

	fleet  *Fleet
	cancel context.CancelFunc
	done   chan error

	mu     sync.Mutex
	killed bool
}

// Addr is the member's advertised measurement address (the proxy front).
func (m *Member) Addr() string { return m.measureP.Addr() }

// Join starts a new member — testbed, server, proxies, registrant — and
// blocks until the registry has verified it into the pool (or ctx gives
// up). Members may join before or during a campaign.
func (f *Fleet) Join(ctx context.Context, name string) (*Member, error) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), f.cfg.Tasks)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &remote.Server{
		Runner:      tb,
		Topo:        tb.Machine.Topo,
		Tasks:       tb.TaskCount(),
		Name:        name,
		ReadTimeout: 2 * time.Second,
	}
	go srv.Serve(l)
	mproxy, err := faulty.NewProxyConfig(l.Addr().String(), faulty.ProxyConfig{})
	if err != nil {
		srv.Close()
		return nil, err
	}
	rproxy, err := faulty.NewProxyConfig(f.regListener.Addr().String(), faulty.ProxyConfig{})
	if err != nil {
		srv.Close()
		mproxy.Close()
		return nil, err
	}
	registrant, err := remote.NewRegistrant(remote.RegistrantConfig{
		Dial:      func() (net.Conn, error) { return net.Dial("tcp", rproxy.Addr()) },
		Hello:     remote.Hello{Topology: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: name},
		Addr:      mproxy.Addr(),
		Identity:  tb.Identity(),
		RetryBase: 5 * time.Millisecond,
		RetryMax:  250 * time.Millisecond,
		Events:    f.Events,
	})
	if err != nil {
		srv.Close()
		mproxy.Close()
		rproxy.Close()
		return nil, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	m := &Member{
		Name:     name,
		Testbed:  tb,
		Server:   srv,
		Reg:      registrant,
		measureP: mproxy,
		regP:     rproxy,
		fleet:    f,
		cancel:   cancel,
		done:     make(chan error, 1),
	}
	go func() { m.done <- registrant.Run(runCtx) }()

	// The member counts once the dial-back verification admitted it.
	deadline := time.Now().Add(10 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for {
		if _, ok := f.Pool.Members()[m.Addr()]; ok {
			break
		}
		if err := ctx.Err(); err != nil {
			m.Kill()
			return nil, err
		}
		if time.Now().After(deadline) {
			m.Kill()
			return nil, fmt.Errorf("chaos: member %s never joined the pool", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.mu.Lock()
	f.members[name] = m
	f.mu.Unlock()
	return m, nil
}

// Kill is the ungraceful death: the server dies mid-measurement, both
// proxies sever their links, the registrant stops. The registry sees the
// silence and evicts; any in-flight measurement fails over.
func (m *Member) Kill() {
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return
	}
	m.killed = true
	m.mu.Unlock()
	m.cancel()
	m.Server.Close()
	m.measureP.Close()
	m.regP.Close()
	<-m.done
	m.fleet.mu.Lock()
	delete(m.fleet.members, m.Name)
	m.fleet.mu.Unlock()
}

// Drain is the graceful departure: the drain handshake runs, in-flight
// work finishes and commits, and only then does the member shut down.
// Returns once the registry has acknowledged — after which losing this
// server loses nothing.
func (m *Member) Drain(ctx context.Context) error {
	if err := m.Reg.Drain(ctx); err != nil {
		return err
	}
	if err := <-m.done; err != nil {
		return fmt.Errorf("chaos: registrant exit after drain: %w", err)
	}
	m.mu.Lock()
	m.killed = true
	m.mu.Unlock()
	m.Server.Shutdown(ctx)
	m.measureP.Close()
	m.regP.Close()
	m.fleet.mu.Lock()
	delete(m.fleet.members, m.Name)
	m.fleet.mu.Unlock()
	return nil
}

// PartitionMeasure cuts the measurement plane: connections stay up,
// bytes stop. In-flight requests hang until HealMeasure (the resilient
// layer's per-attempt timeout abandons them and fails over meanwhile).
func (m *Member) PartitionMeasure() { m.measureP.Hold() }

// HealMeasure ends a PartitionMeasure.
func (m *Member) HealMeasure() { m.measureP.Release() }

// PartitionRegistry silences the registration link — heartbeat loss
// without measurement loss. Held briefly the member turns suspect and
// recovers; held past the evict timer it is thrown out of the fleet (and
// rejoins by re-announcing once healed).
func (m *Member) PartitionRegistry() { m.regP.Hold() }

// HealRegistry ends a PartitionRegistry.
func (m *Member) HealRegistry() { m.regP.Release() }

// Schedule maps a committed-draw count to a disturbance fired right after
// that commit lands in the journal. Hooks run on the campaign's commit
// path: keep them quick, and spawn a goroutine for anything that blocks
// (Drain, Join).
type Schedule map[int]func()

// CampaignConfig shapes one soak campaign. Topo and Tasks come from the
// fleet; everything else has test-sized defaults.
type CampaignConfig struct {
	Seed       int64
	MaxSamples int // default 220
	Workers    int // default 4
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.MaxSamples <= 0 {
		c.MaxSamples = 220
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// fleetIterConfig builds the campaign configuration for a fleet testbed:
// a short iterated campaign, sized so scenarios finish in test time while
// still crossing several accept/extend rounds.
func fleetIterConfig(topo t2.Topology, tasks int, cfg CampaignConfig) core.IterConfig {
	return core.IterConfig{
		Topo:          topo,
		Tasks:         tasks,
		AcceptLossPct: 8,
		Ninit:         100,
		Ndelta:        30,
		MaxSamples:    cfg.MaxSamples,
		Seed:          cfg.Seed,
		// Small campaigns need a permissive threshold scan to keep enough
		// exceedances for the GPD fit.
		POT: evt.POTOptions{Threshold: evt.ThresholdOptions{MaxExceedFraction: 0.3}},
	}
}

// RunCampaign drives one journaled campaign across the fleet, firing the
// scheduled disturbances as their commit counts land, and returns the
// result plus the journal bytes. The measurement stack is the production
// one: membership pool → resilient retries → replicated workers →
// in-order journal commits (campaign.Run).
func (f *Fleet) RunCampaign(ctx context.Context, dir string, cfg CampaignConfig, sched Schedule) (core.IterResult, []byte, error) {
	cfg = cfg.withDefaults()
	if err := f.Pool.WaitReady(ctx, 1); err != nil {
		return core.IterResult{}, nil, err
	}
	// Retries hide every disturbance from the journal: a measurement that
	// dies with its server is re-run (same assignment, same deterministic
	// result) until it lands. Quarantine would poison the byte-equality
	// assertion, so the budget is generous and each attempt is bounded so
	// a partition cannot wedge a worker.
	resilient := core.NewResilientRunner(f.Pool, core.ResilientConfig{
		MaxAttempts: 60,
		Timeout:     2 * time.Second,
		BaseDelay:   time.Millisecond,
		MaxDelay:    25 * time.Millisecond,
	})
	commits := 0
	fire := func(assign.Assignment, float64, error) error {
		commits++ // Run commits in order from one goroutine
		if hook, ok := sched[commits]; ok {
			hook()
		}
		return nil
	}
	return runJournaled(ctx, dir+"/fleet.journal", resilient,
		fleetIterConfig(f.Pool.Topology(), f.Pool.Tasks(), cfg),
		campaign.RunConfig{Workers: cfg.Workers, Commit: fire})
}

// SerialBaseline runs the same campaign undisturbed on one local testbed
// — no network, no fleet — and returns the reference journal bytes.
func SerialBaseline(dir string, tasks int, cfg CampaignConfig) ([]byte, core.IterResult, error) {
	cfg = cfg.withDefaults()
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), tasks)
	if err != nil {
		return nil, core.IterResult{}, err
	}
	res, data, err := runJournaled(context.Background(), dir+"/serial.journal", core.AsContextRunner(tb),
		fleetIterConfig(tb.Machine.Topo, tb.TaskCount(), cfg), campaign.RunConfig{})
	return data, res, err
}

// runJournaled runs icfg through campaign.Run into a fresh journal at
// path and returns the result plus the journal bytes.
func runJournaled(ctx context.Context, path string, runner core.ContextRunner, icfg core.IterConfig, rc campaign.RunConfig) (core.IterResult, []byte, error) {
	j, err := campaign.CreateJournal(path, campaign.JournalHeader{
		Benchmark: "chaos", Topo: icfg.Topo, Tasks: icfg.Tasks, Seed: icfg.Seed,
	})
	if err != nil {
		return core.IterResult{}, nil, err
	}
	rc.Journal = j
	res, runErr := campaign.Run(ctx, runner, icfg, rc)
	if err := j.Close(); err != nil && runErr == nil {
		runErr = err
	}
	data, err := os.ReadFile(path)
	if err != nil && runErr == nil {
		runErr = err
	}
	return res, data, runErr
}

// VerifyTelemetry cross-checks the metrics gauges against the fleet's
// actual state. Only meaningful at quiescent moments (no disturbance or
// handshake in progress); scenarios call it after campaigns settle.
func (f *Fleet) VerifyTelemetry() error {
	poolMembers := f.Pool.Members()
	regMembers := f.Registry.Members()
	var errs []error
	if got, want := f.PoolMetrics.Members.Value(), float64(len(poolMembers)); got != want {
		errs = append(errs, fmt.Errorf("pool members gauge %v, pool has %v", got, want))
	}
	if got, want := f.FleetMetrics.Members.Value(), float64(len(regMembers)); got != want {
		errs = append(errs, fmt.Errorf("fleet members gauge %v, registry has %v", got, want))
	}
	suspects := 0
	for _, state := range regMembers {
		if state == "suspect" {
			suspects++
		}
	}
	if got, want := f.FleetMetrics.Suspects.Value(), float64(suspects); got != want {
		errs = append(errs, fmt.Errorf("fleet suspects gauge %v, registry has %v", got, want))
	}
	poolSuspects := 0
	for _, state := range poolMembers {
		if state == "suspect" {
			poolSuspects++
		}
	}
	if got, want := f.PoolMetrics.SuspectServers.Value(), float64(poolSuspects); got != want {
		errs = append(errs, fmt.Errorf("pool suspects gauge %v, pool has %v", got, want))
	}
	return errors.Join(errs...)
}
