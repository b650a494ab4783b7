package remote

import (
	"context"
	"errors"
	"fmt"
	"net"

	"strings"
	"sync"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/t2"
)

// PoolConfig tunes a multi-server client pool.
type PoolConfig struct {
	// Client is the per-server reconnect policy (RedialAttempts, backoff);
	// its Dial field is ignored — each server gets a plain TCP dialer for
	// its own address.
	Client ClientConfig
	// QuarantineAfter is how many consecutive transport failures bench a
	// server (its reconnect machinery keeps trying lazily, but the pool
	// stops preferring it). Default 3.
	QuarantineAfter int
	// Cooldown is how long a benched server stays unpreferred. Default 5 s.
	Cooldown time.Duration
	// Metrics counts failovers and bench/membership churn. nil disables.
	Metrics *PoolMetrics
	// now is a test seam; nil means time.Now.
	now func() time.Time
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Typed pool errors. ErrPoolClosed is permanent — the pool will never
// serve again. ErrNoServers is transient — membership is dynamic, so a
// benched server may recover or a new one may join; an outer
// core.ResilientRunner owns the bounded backoff between tries.
var (
	// ErrPoolClosed marks measurements attempted after Close.
	ErrPoolClosed = errors.New("remote: client pool is closed")
	// ErrNoServers marks an acquire that found nothing to wait for:
	// the membership is empty, or every member is benched with no
	// in-flight measurement left that could unbench one. The error text
	// carries the per-server strike summary.
	ErrNoServers = errors.New("remote: no servers available")
)

// serverState is one member's place in the drain state machine.
type serverState int

const (
	// stateActive members take new measurements.
	stateActive serverState = iota
	// stateSuspect members (missed heartbeats) are deprioritized: the
	// pool routes to them only when no active member is usable.
	stateSuspect
	// stateDraining members refuse new measurements; an in-flight one
	// finishes, then the member is closed and removed.
	stateDraining
)

func (s serverState) String() string {
	switch s {
	case stateActive:
		return "active"
	case stateSuspect:
		return "suspect"
	default:
		return "draining"
	}
}

// poolServer is one member of the pool: its reconnecting client plus the
// health and membership bookkeeping. All fields are guarded by the pool's
// mutex — membership transitions and scheduling must see one consistent
// picture.
type poolServer struct {
	addr   string
	client *Client

	state        serverState
	busy         bool
	gone         bool // finalized: closed and removed from membership
	strikes      int
	benchedUntil time.Time
	onDrained    []func() // run (unlocked) once the member is finalized
}

func (s *poolServer) benched(now time.Time) bool { return now.Before(s.benchedUntil) }

// ClientPool drives a campaign across a dynamic fleet of measurement
// servers — the many-testbeds generalization of the paper's two-machine
// setup. It implements core.ContextRunner and is safe for concurrent
// use: each concurrent measurement grabs whichever member is free
// (work-stealing — fast servers naturally take more measurements), so
// wrapping a ClientPool in a core.PoolRunner keeps every testbed busy.
//
// Membership is dynamic: servers join mid-campaign (Add, typically driven
// by a Registry as they announce themselves), are deprioritized while
// their heartbeats are missing (SetSuspect), drain gracefully (Drain —
// the in-flight measurement finishes, no new one starts, then the client
// closes) and leave (Remove). Every joiner is identity-verified against
// the pool's Hello — a pool mixing workloads would produce a
// statistically meaningless sample.
//
// Fault tolerance reuses the single-client machinery per member (stream
// poisoning, redial with backoff, identity verification) and adds the
// pool-level behaviors: failover to the next free member on a transport
// error, and a bench after QuarantineAfter consecutive failures. When the
// whole membership is benched or empty the pool fails fast with
// ErrNoServers instead of spinning — the resilient wrapper above it owns
// the backoff, and a heartbeat-driven join may repopulate the pool
// between tries.
type ClientPool struct {
	cfg PoolConfig

	mu        sync.Mutex
	cond      *sync.Cond
	members   map[string]*poolServer
	order     []string // join order, for deterministic scheduling scans
	hello     Hello
	haveHello bool
	closed    bool
}

// NewPool creates an empty membership-driven pool; servers join via Add
// (or via a Registry wired to this pool). The pool's identity (Hello) is
// set by the first joiner; use WaitReady to block until the fleet has
// members.
func NewPool(cfg PoolConfig) *ClientPool {
	p := &ClientPool{cfg: cfg.withDefaults(), members: make(map[string]*poolServer)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// DialPool connects to every address and verifies the servers all announce
// the same Hello: topology, task count, benchmark name and model. At
// least one address is required; every server must be reachable at dial
// time (fail fast on typos; mid-campaign failures are handled gracefully
// instead). To open several connections to one server, repeat its
// address — each occurrence joins under a distinct member key.
func DialPool(addrs []string, cfg PoolConfig) (*ClientPool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("remote: pool needs at least one server address")
	}
	p := NewPool(cfg)
	seen := make(map[string]int)
	for _, addr := range addrs {
		key := addr
		if n := seen[addr]; n > 0 {
			key = fmt.Sprintf("%s#%d", addr, n)
		}
		seen[addr]++
		if err := p.add(key, addr); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// Add dials addr, verifies its announcement against the pool's identity,
// and admits it as a member. Adding an address that is already an active
// or suspect member refreshes it to active and succeeds (a re-announcing
// server after a network wobble is a rejoin, not an error); adding one
// that is draining fails.
func (p *ClientPool) Add(addr string) error { return p.add(addr, addr) }

func (p *ClientPool) add(key, addr string) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	if s, ok := p.members[key]; ok {
		if s.state == stateDraining {
			p.mu.Unlock()
			return fmt.Errorf("remote: pool server %s is draining", key)
		}
		s.state = stateActive
		p.updateGauges()
		p.cond.Broadcast()
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()

	// Dial outside the lock: a slow joiner must not stall the campaign.
	ccfg := p.cfg.Client
	ccfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	client, err := DialConfig(ccfg)
	if err != nil {
		return fmt.Errorf("remote: pool server %s: %w", addr, err)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		client.Close()
		return ErrPoolClosed
	}
	if s, ok := p.members[key]; ok {
		// A concurrent add won the race; keep the established member.
		client.Close()
		if s.state == stateDraining {
			return fmt.Errorf("remote: pool server %s is draining", key)
		}
		s.state = stateActive
		p.updateGauges()
		p.cond.Broadcast()
		return nil
	}
	h := client.Hello()
	if !p.haveHello {
		p.hello = h
		p.haveHello = true
	} else if h != p.hello {
		client.Close()
		return fmt.Errorf("remote: pool server %s serves %v, but the pool serves %v", addr, h, p.hello)
	}
	p.members[key] = &poolServer{addr: key, client: client}
	p.order = append(p.order, key)
	if m := p.cfg.Metrics; m != nil {
		m.Joins.Inc()
	}
	p.updateGauges()
	p.cond.Broadcast()
	return nil
}

// SetSuspect flips a member between active and suspect. Suspect members
// (missed heartbeats) stay in the pool but only take work when no active
// member is usable — their measurement link may well be fine, so a fleet
// reduced to suspects degrades instead of stalling.
func (p *ClientPool) SetSuspect(addr string, suspect bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.members[addr]
	if !ok || s.state == stateDraining {
		return
	}
	was := s.state
	if suspect {
		s.state = stateSuspect
	} else {
		s.state = stateActive
	}
	if s.state != was {
		p.updateGauges()
		p.cond.Broadcast()
	}
}

// Drain starts a graceful departure: the member takes no new
// measurements, its in-flight one (if any) finishes and commits, then the
// client closes, the member leaves, and onDrained (optional) runs — the
// hook a Registry uses to acknowledge the drain back to the departing
// server. Draining an unknown address reports onDrained immediately.
func (p *ClientPool) Drain(addr string, onDrained func()) {
	p.mu.Lock()
	s, ok := p.members[addr]
	if !ok {
		p.mu.Unlock()
		if onDrained != nil {
			onDrained()
		}
		return
	}
	s.state = stateDraining
	if onDrained != nil {
		s.onDrained = append(s.onDrained, onDrained)
	}
	var callbacks []func()
	if !s.busy {
		callbacks = p.finalizeLocked(s, "drained")
	}
	p.mu.Unlock()
	for _, f := range callbacks {
		f()
	}
}

// Remove evicts a member immediately: its connection is closed even if a
// measurement is in flight (the measurement fails with a transport error
// and fails over to another member). Use Drain for graceful departures.
func (p *ClientPool) Remove(addr, reason string) {
	p.mu.Lock()
	s, ok := p.members[addr]
	if !ok {
		p.mu.Unlock()
		return
	}
	s.state = stateDraining // no new work while we tear down
	var callbacks []func()
	if s.busy {
		// Interrupt the in-flight measurement; release finalizes.
		s.client.Close()
	} else {
		callbacks = p.finalizeLocked(s, reason)
	}
	p.mu.Unlock()
	for _, f := range callbacks {
		f()
	}
}

// finalizeLocked closes and deletes a member. Callers hold p.mu and must
// run the returned callbacks after unlocking.
func (p *ClientPool) finalizeLocked(s *poolServer, reason string) []func() {
	if s.gone {
		return nil
	}
	s.gone = true
	s.client.Close()
	delete(p.members, s.addr)
	for i, a := range p.order {
		if a == s.addr {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	if m := p.cfg.Metrics; m != nil {
		m.Leaves.Inc()
		if reason == "drained" {
			m.Drains.Inc()
		}
	}
	p.updateGauges()
	p.cond.Broadcast()
	return s.onDrained
}

// updateGauges recomputes the membership gauges. Callers hold p.mu.
func (p *ClientPool) updateGauges() {
	m := p.cfg.Metrics
	if m == nil {
		return
	}
	now := p.cfg.now()
	benched, suspects := 0, 0
	for _, s := range p.members {
		if s.benched(now) {
			benched++
		}
		if s.state == stateSuspect {
			suspects++
		}
	}
	m.Members.Set(float64(len(p.members)))
	m.SuspectServers.Set(float64(suspects))
	m.BenchedServers.Set(float64(benched))
}

// Hello returns the announcement shared by every member. Valid once the
// first member has joined (always, for a DialPool pool).
func (p *ClientPool) Hello() Hello {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hello
}

// Topology returns the pooled testbeds' common topology.
func (p *ClientPool) Topology() t2.Topology { return p.Hello().Topology }

// Tasks returns the pooled workload's task count.
func (p *ClientPool) Tasks() int { return p.Hello().Tasks }

// Size returns the current number of members.
func (p *ClientPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.members)
}

// wake wakes cond waiters; context.AfterFunc runs it when a waiter's ctx
// is done. The broadcast runs under the pool mutex, and a waiter arms it
// under that mutex before cond.Wait, so a waiter between its ctx check
// and cond.Wait cannot miss it.
func (p *ClientPool) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// wait blocks on p.cond until a broadcast, arming *stop to wake it when
// ctx is done unless an earlier wait armed it. Callers hold p.mu and
// call the armed stop when they stop waiting.
func (p *ClientPool) wait(ctx context.Context, stop *func() bool) {
	if *stop == nil && ctx.Done() != nil {
		*stop = context.AfterFunc(ctx, p.wake)
	}
	p.cond.Wait()
}

// WaitReady blocks until the pool has at least n members (after which
// Hello is meaningful) or ctx expires.
func (p *ClientPool) WaitReady(ctx context.Context, n int) error {
	var stop func() bool
	p.mu.Lock()
	defer func() {
		p.mu.Unlock()
		if stop != nil {
			stop()
		}
	}()
	for len(p.members) < n {
		if p.closed {
			return ErrPoolClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		p.wait(ctx, &stop)
	}
	return nil
}

// strikeSummaryLocked renders per-server strike counts for ErrNoServers
// diagnostics. Callers hold p.mu.
func (p *ClientPool) strikeSummaryLocked() string {
	if len(p.members) == 0 {
		return "membership is empty"
	}
	parts := make([]string, 0, len(p.members))
	for _, addr := range p.order {
		s := p.members[addr]
		parts = append(parts, fmt.Sprintf("%s: %d strike(s), %s", addr, s.strikes, s.state))
	}
	return strings.Join(parts, "; ")
}

// acquire blocks until a member is free and returns the best candidate:
// an unbenched active member first, an unbenched suspect as a fallback,
// the benched member whose bench expires soonest only while a healthy one
// is busy (it may free up). When there is nothing to wait for — empty
// membership, or every member benched and idle — acquire fails fast with
// ErrNoServers carrying the strike summary, instead of spinning on doomed
// servers until the context deadline; the error is transient, so the
// resilient layer above applies its bounded backoff and retries, by which
// time a bench may have lapsed or a new server joined.
func (p *ClientPool) acquire(ctx context.Context) (*poolServer, error) {
	var stop func() bool
	p.mu.Lock()
	defer func() {
		p.mu.Unlock()
		if stop != nil {
			stop()
		}
	}()
	for {
		if p.closed {
			return nil, core.Permanent(ErrPoolClosed)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := p.cfg.now()
		var active, suspect, benched *poolServer
		busyUsable := false
		for _, addr := range p.order {
			s := p.members[addr]
			if s.state == stateDraining {
				continue
			}
			if s.busy {
				busyUsable = true
				continue
			}
			switch {
			case !s.benched(now) && s.state == stateActive:
				if active == nil {
					active = s
				}
			case !s.benched(now):
				if suspect == nil {
					suspect = s
				}
			default:
				if benched == nil || s.benchedUntil.Before(benched.benchedUntil) {
					benched = s
				}
			}
		}
		pick := active
		if pick == nil {
			pick = suspect
		}
		if pick != nil {
			pick.busy = true
			// Rotate the pick to the back of the scan order so load (and
			// failure detection) spreads round-robin across the fleet
			// instead of pinning to the oldest member.
			for i, a := range p.order {
				if a == pick.addr {
					p.order = append(append(p.order[:i], p.order[i+1:]...), a)
					break
				}
			}
			return pick, nil
		}
		if !busyUsable {
			if benched == nil {
				// Nothing usable at all: empty membership or only
				// draining members.
				return nil, fmt.Errorf("%w (%s)", ErrNoServers, p.strikeSummaryLocked())
			}
			// Every member is benched and idle: nothing in flight could
			// unbench one, so waiting would just spin out the context.
			return nil, fmt.Errorf("%w: all %d member(s) benched (%s)",
				ErrNoServers, len(p.members), p.strikeSummaryLocked())
		}
		p.wait(ctx, &stop)
	}
}

// release returns a member after a measurement; a member that started
// draining while busy is finalized here, once its in-flight work is done.
func (p *ClientPool) release(s *poolServer) {
	p.mu.Lock()
	s.busy = false
	var callbacks []func()
	switch {
	case s.state == stateDraining:
		callbacks = p.finalizeLocked(s, "drained")
	case p.closed:
		callbacks = p.finalizeLocked(s, "pool closed")
	default:
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	for _, f := range callbacks {
		f()
	}
}

// recordSuccess clears a member's strikes; a success on a benched member
// unbenches it immediately.
func (p *ClientPool) recordSuccess(s *poolServer) {
	p.mu.Lock()
	wasBenched := s.benched(p.cfg.now())
	s.strikes = 0
	s.benchedUntil = time.Time{}
	if m := p.cfg.Metrics; wasBenched && m != nil {
		m.Unbenches.Inc()
	}
	p.updateGauges()
	p.mu.Unlock()
}

// recordFailure adds a strike and benches the member once it accumulates
// QuarantineAfter of them.
func (p *ClientPool) recordFailure(s *poolServer) {
	p.mu.Lock()
	now := p.cfg.now()
	wasBenched := s.benched(now)
	s.strikes++
	benched := false
	if s.strikes >= p.cfg.QuarantineAfter {
		s.benchedUntil = now.Add(p.cfg.Cooldown)
		benched = !wasBenched
	}
	if m := p.cfg.Metrics; benched && m != nil {
		m.Benches.Inc()
	}
	p.updateGauges()
	p.mu.Unlock()
}

// MeasureContext implements core.ContextRunner: grab a free member,
// measure, fail over to another on a transport error. Permanent errors
// (server-side measurement failures, identity mismatches) return
// immediately — they would fail identically everywhere. One measurement
// tries at most as many distinct servers as the pool has members; if
// they all fail transiently the last transport error is returned as-is
// (transient), for an outer ResilientRunner to retry the whole cycle
// with backoff.
func (p *ClientPool) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	failover := max(p.Size(), 1)
	var lastErr error
	for try := 0; try < failover; try++ {
		s, err := p.acquire(ctx)
		if err != nil {
			return 0, err
		}
		perf, err := s.client.MeasureContext(ctx, a)
		if err == nil {
			p.recordSuccess(s)
			p.release(s)
			return perf, nil
		}
		if core.IsPermanent(err) || ctx.Err() != nil {
			p.release(s)
			return 0, err
		}
		p.recordFailure(s)
		p.release(s)
		lastErr = err
		if try+1 < failover {
			// The measurement moves on to another member.
			if m := p.cfg.Metrics; m != nil {
				m.Failovers.Inc()
			}
		}
	}
	return 0, fmt.Errorf("remote: %d server(s) failed, last: %w", failover, lastErr)
}

// Members reports the current membership, sorted by address, with each
// member's drain/suspect state — what a registry-driven fleet looks like
// right now.
func (p *ClientPool) Members() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.members))
	for addr, s := range p.members {
		out[addr] = s.state.String()
	}
	return out
}

// Close releases every connection and wakes every blocked acquire with
// ErrPoolClosed. It is idempotent and safe to race with in-flight
// measurements: a release after Close never touches a freed structure,
// and subsequent measurements fail permanently.
func (p *ClientPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var first error
	var callbacks []func()
	for _, addr := range append([]string(nil), p.order...) {
		s := p.members[addr]
		if err := s.client.Close(); err != nil && first == nil {
			first = err
		}
		if !s.busy {
			callbacks = append(callbacks, p.finalizeLocked(s, "pool closed")...)
		}
		// Busy members finalize on release; their client is already
		// closed, so the in-flight measurement unblocks with an error.
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, f := range callbacks {
		f()
	}
	return first
}
