package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// RegistryConfig tunes the controller-side fleet registry.
type RegistryConfig struct {
	// HeartbeatInterval is what joining servers are told to heartbeat at.
	// Default 1 s.
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a member may go silent before it is marked
	// suspect (the pool deprioritizes it but keeps it). Default 3×
	// HeartbeatInterval.
	SuspectAfter time.Duration
	// EvictAfter is how long a member may go silent before it is evicted
	// (removed from the pool; its in-flight measurement, if any, fails
	// over). Default 10× HeartbeatInterval.
	EvictAfter time.Duration
	// Metrics counts membership churn and heartbeat traffic. nil
	// disables.
	Metrics *MembershipMetrics
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.EvictAfter <= c.SuspectAfter {
		c.EvictAfter = 10 * c.HeartbeatInterval
		if c.EvictAfter <= c.SuspectAfter {
			c.EvictAfter = 2 * c.SuspectAfter
		}
	}
	return c
}

// fleetMember is the registry's record of one registered server.
type fleetMember struct {
	addr     string
	identity string
	hello    Hello
	conn     net.Conn
	suspect  bool
	draining bool
}

// Registry is the controller half of the fleet-membership protocol: it
// accepts registration connections from measurement servers, verifies
// each joiner's identity by dialing back its advertised measurement
// address, admits it into the attached ClientPool, tracks its heartbeats
// (silent members turn suspect, then are evicted), and runs the graceful-
// drain handshake when a member announces its departure. The campaign
// never talks to the Registry — it measures through the pool, whose
// membership the Registry edits live.
type Registry struct {
	cfg  RegistryConfig
	pool *ClientPool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	members   map[string]*fleetMember
	wg        sync.WaitGroup
	closed    bool
}

// NewRegistry builds a registry that feeds pool. The pool is typically
// empty (NewPool) — servers populate it by registering.
func NewRegistry(pool *ClientPool, cfg RegistryConfig) *Registry {
	return &Registry{
		cfg:       cfg.withDefaults(),
		pool:      pool,
		listeners: make(map[net.Listener]struct{}),
		members:   make(map[string]*fleetMember),
	}
}

// ErrRegistryClosed is returned by Serve after Close.
var ErrRegistryClosed = errors.New("remote: registry closed")

// Serve accepts registration connections until the listener closes or the
// registry is shut down. Each connection carries one member's lifetime:
// announce, heartbeats, optional drain.
func (r *Registry) Serve(l net.Listener) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	r.listeners[l] = struct{}{}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.listeners, l)
		r.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return nil
		}
		r.wg.Add(1)
		r.mu.Unlock()
		go func() {
			defer r.wg.Done()
			r.handle(conn)
		}()
	}
}

// Close stops the registry: listeners and member connections close, and
// every handler exits. The attached pool is left as-is (the campaign owns
// its lifecycle). Close is idempotent.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	for l := range r.listeners {
		l.Close()
	}
	for _, m := range r.members {
		m.conn.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return nil
}

// Members reports the current fleet, address → state ("active",
// "suspect" or "draining").
func (r *Registry) Members() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.members))
	for addr, m := range r.members {
		switch {
		case m.draining:
			out[addr] = "draining"
		case m.suspect:
			out[addr] = "suspect"
		default:
			out[addr] = "active"
		}
	}
	return out
}

// updateGaugesLocked refreshes the membership gauges. Callers hold r.mu.
func (r *Registry) updateGaugesLocked() {
	m := r.cfg.Metrics
	if m == nil {
		return
	}
	suspects := 0
	for _, fm := range r.members {
		if fm.suspect {
			suspects++
		}
	}
	m.Members.Set(float64(len(r.members)))
	m.Suspects.Set(float64(suspects))
}

// reject refuses a registration with a reason and closes the connection.
func (r *Registry) reject(conn net.Conn, enc *json.Encoder, reason string) {
	if m := r.cfg.Metrics; m != nil {
		m.RejectedJoins.Inc()
	}
	enc.Encode(RegistryFrame{Type: FrameReject, Error: reason})
	conn.Close()
}

// handle runs one member's registration connection end to end.
func (r *Registry) handle(conn net.Conn) {
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))

	// The announce must arrive promptly; a silent dialer is not a member.
	conn.SetReadDeadline(time.Now().Add(r.cfg.SuspectAfter))
	var ann RegistryFrame
	if err := dec.Decode(&ann); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	if ann.Type != FrameAnnounce || ann.Hello == nil || ann.Addr == "" {
		r.reject(conn, enc, "malformed announce")
		return
	}
	if err := ann.Hello.Topology.Validate(); err != nil {
		r.reject(conn, enc, fmt.Sprintf("invalid topology: %v", err))
		return
	}

	// Supersede any stale registration for the same address (a server
	// that reconnected after losing its registry link). The old handler
	// sees its connection close and exits without evicting the new
	// record — membership is keyed by address, and last announce wins.
	m := &fleetMember{addr: ann.Addr, identity: ann.Identity, hello: *ann.Hello, conn: conn}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if old, ok := r.members[ann.Addr]; ok {
		old.conn.Close()
	}
	r.members[ann.Addr] = m
	r.updateGaugesLocked()
	r.mu.Unlock()

	// Identity verification on the measurement plane: the pool dials the
	// advertised address and checks the Hello against the fleet's. A
	// server announcing an address it does not serve — or serving a
	// different workload there — never joins.
	if err := r.pool.Add(ann.Addr); err != nil {
		r.forget(m)
		r.reject(conn, enc, fmt.Sprintf("measurement dial-back: %v", err))
		return
	}
	if err := enc.Encode(RegistryFrame{Type: FrameWelcome, Interval: r.cfg.HeartbeatInterval.String()}); err != nil {
		r.leave(m, "welcome failed")
		return
	}
	if mm := r.cfg.Metrics; mm != nil {
		mm.Joins.Inc()
	}

	// Heartbeat watch. Frames arrive on a reader goroutine so the state
	// machine can also wake on timers; closing the connection unblocks a
	// reader stuck in Decode, the done channel one stuck handing a frame
	// over after the handler has already returned.
	frames := make(chan RegistryFrame)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(frames)
		for {
			var f RegistryFrame
			if err := dec.Decode(&f); err != nil {
				return
			}
			select {
			case frames <- f:
			case <-done:
				return
			}
		}
	}()

	suspect := time.NewTimer(r.cfg.SuspectAfter)
	defer suspect.Stop()
	evict := time.NewTimer(r.cfg.EvictAfter)
	defer evict.Stop()
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				r.leave(m, "disconnected")
				return
			}
			switch f.Type {
			case FrameHeartbeat:
				if mm := r.cfg.Metrics; mm != nil {
					mm.Heartbeats.Inc()
				}
				if !suspect.Stop() {
					select {
					case <-suspect.C:
					default:
					}
				}
				suspect.Reset(r.cfg.SuspectAfter)
				if !evict.Stop() {
					select {
					case <-evict.C:
					default:
					}
				}
				evict.Reset(r.cfg.EvictAfter)
				r.setSuspect(m, false)
			case FrameDrain:
				r.startDrain(m, enc)
			}
		case <-suspect.C:
			r.setSuspect(m, true)
		case <-evict.C:
			r.leave(m, "evicted")
			return
		}
	}
}

// setSuspect flips a member's suspect flag in registry and pool.
func (r *Registry) setSuspect(m *fleetMember, suspect bool) {
	r.mu.Lock()
	if r.members[m.addr] != m || m.suspect == suspect || m.draining {
		r.mu.Unlock()
		return
	}
	m.suspect = suspect
	r.updateGaugesLocked()
	r.mu.Unlock()
	r.pool.SetSuspect(m.addr, suspect)
}

// startDrain begins the graceful-departure handshake: the pool stops
// routing to the member and, once its in-flight measurement has finished
// and its client is closed, the registry acknowledges with "drained" and
// drops the registration. Heartbeats keep flowing meanwhile, so a slow
// drain is not mistaken for a death.
func (r *Registry) startDrain(m *fleetMember, enc *json.Encoder) {
	r.mu.Lock()
	if r.members[m.addr] != m || m.draining {
		r.mu.Unlock()
		return
	}
	m.draining = true
	r.updateGaugesLocked()
	r.mu.Unlock()
	r.pool.Drain(m.addr, func() {
		if mm := r.cfg.Metrics; mm != nil {
			mm.Drains.Inc()
		}
		r.forgetLeft(m)
		enc.Encode(RegistryFrame{Type: FrameDrained})
		m.conn.Close() // unblocks the reader; the handler exits via !ok
	})
}

// leave evicts a member: out of the pool (interrupting any in-flight
// measurement — it fails over) and out of the registry.
func (r *Registry) leave(m *fleetMember, reason string) {
	if !r.forget(m) {
		return
	}
	r.pool.Remove(m.addr, reason)
	if mm := r.cfg.Metrics; mm != nil {
		mm.Leaves.Inc()
	}
}

// forgetLeft drops the registration of a member that already left the
// pool (a completed drain) and counts the leave.
func (r *Registry) forgetLeft(m *fleetMember) {
	if !r.forget(m) {
		return
	}
	if mm := r.cfg.Metrics; mm != nil {
		mm.Leaves.Inc()
	}
}

// forget removes the registry record if m is still current; it reports
// whether this call won (exactly one of the racing paths does).
func (r *Registry) forget(m *fleetMember) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[m.addr] != m {
		return false
	}
	delete(r.members, m.addr)
	r.updateGaugesLocked()
	return true
}

// --- Server side: the registrant -------------------------------------

// RegistrantConfig tunes a measurement server's registration loop.
type RegistrantConfig struct {
	// Dial opens the transport to the registry. Required.
	Dial func() (net.Conn, error)
	// Hello is the workload announcement, Addr the advertised measurement
	// address (what the controller dials back), Identity the testbed
	// identity string.
	Hello    Hello
	Addr     string
	Identity string
	// RetryBase and RetryMax shape the reconnect backoff after a lost
	// registry link: RetryBase doubling up to RetryMax. Defaults 200 ms
	// and 5 s.
	RetryBase, RetryMax time.Duration
}

func (c RegistrantConfig) withDefaults() RegistrantConfig {
	if c.RetryBase <= 0 {
		c.RetryBase = 200 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	return c
}

// ErrRejected marks a registration the registry refused; retrying with
// the same announcement would be refused identically.
var ErrRejected = errors.New("remote: registration rejected")

// errSessionLost is the internal "reconnect and re-announce" signal.
var errSessionLost = errors.New("remote: registry session lost")

// Registrant is the server half of the fleet-membership protocol: it
// keeps one registration alive against a registry — announce, heartbeat
// at the interval the registry dictates, reconnect with backoff and
// re-announce when the link drops — and runs the drain handshake on
// demand. cmd/measured pairs it with a Server: Run in a goroutine for the
// server's lifetime, Drain from the SIGTERM path.
type Registrant struct {
	cfg RegistrantConfig

	mu         sync.Mutex
	draining   bool
	drainDone  chan struct{} // closed when the drained ack lands
	drainAsked chan struct{} // signals the live session to send the frame
}

// NewRegistrant validates cfg and builds a registrant.
func NewRegistrant(cfg RegistrantConfig) (*Registrant, error) {
	cfg = cfg.withDefaults()
	if cfg.Dial == nil {
		return nil, errors.New("remote: registrant needs a Dial function")
	}
	if cfg.Addr == "" {
		return nil, errors.New("remote: registrant needs an advertised address")
	}
	return &Registrant{
		cfg:        cfg,
		drainDone:  make(chan struct{}),
		drainAsked: make(chan struct{}, 1),
	}, nil
}

// Run maintains the registration until ctx is cancelled, the registry
// rejects the announcement (ErrRejected), or a requested drain completes
// (nil). Lost links are re-dialed with exponential backoff and announced
// afresh — the registry treats a re-announce as a rejoin.
func (g *Registrant) Run(ctx context.Context) error {
	delay := g.cfg.RetryBase
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := g.cfg.Dial()
		if err == nil {
			err = g.session(ctx, conn)
			conn.Close()
		}
		switch {
		case err == nil:
			return nil // drained
		case errors.Is(err, ErrRejected):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		}
		if !errors.Is(err, errSessionLost) {
			// Dial or handshake failure: back off harder each time.
			if delay *= 2; delay > g.cfg.RetryMax {
				delay = g.cfg.RetryMax
			}
		} else {
			delay = g.cfg.RetryBase
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// session runs one registration connection: announce, await welcome,
// heartbeat, handle drain. Returns nil only when a drain completed.
func (g *Registrant) session(ctx context.Context, conn net.Conn) error {
	enc := json.NewEncoder(conn)
	if err := enc.Encode(RegistryFrame{
		Type:     FrameAnnounce,
		Hello:    &g.cfg.Hello,
		Addr:     g.cfg.Addr,
		Identity: g.cfg.Identity,
	}); err != nil {
		return fmt.Errorf("announce: %w", err)
	}

	frames := make(chan RegistryFrame)
	sessionDone := make(chan struct{})
	go func() {
		defer close(frames)
		dec := json.NewDecoder(bufio.NewReader(conn))
		for {
			var f RegistryFrame
			if err := dec.Decode(&f); err != nil {
				return
			}
			select {
			case frames <- f:
			case <-sessionDone:
				return
			}
		}
	}()
	defer func() {
		close(sessionDone)
		conn.Close()
	}()

	// Await the verdict on the announcement.
	var interval time.Duration
	welcome := time.NewTimer(g.cfg.RetryMax)
	defer welcome.Stop()
	select {
	case f, ok := <-frames:
		if !ok {
			return fmt.Errorf("%w: closed before welcome", errSessionLost)
		}
		switch f.Type {
		case FrameWelcome:
			d, err := time.ParseDuration(f.Interval)
			if err != nil || d <= 0 {
				return fmt.Errorf("welcome with bad interval %q", f.Interval)
			}
			interval = d
		case FrameReject:
			return fmt.Errorf("%w: %s", ErrRejected, f.Error)
		default:
			return fmt.Errorf("unexpected %q before welcome", f.Type)
		}
	case <-welcome.C:
		return fmt.Errorf("%w: no welcome", errSessionLost)
	case <-ctx.Done():
		return ctx.Err()
	}
	// A drain requested while we were disconnected is sent as soon as
	// the session is up.
	g.mu.Lock()
	if g.draining {
		select {
		case g.drainAsked <- struct{}{}:
		default:
		}
	}
	g.mu.Unlock()

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var seq uint64
	for {
		select {
		case <-ticker.C:
			seq++
			if err := enc.Encode(RegistryFrame{Type: FrameHeartbeat, Seq: seq}); err != nil {
				return fmt.Errorf("%w: heartbeat: %v", errSessionLost, err)
			}
		case <-g.drainAsked:
			if err := enc.Encode(RegistryFrame{Type: FrameDrain}); err != nil {
				return fmt.Errorf("%w: drain: %v", errSessionLost, err)
			}
		case f, ok := <-frames:
			if !ok {
				return fmt.Errorf("%w: connection closed", errSessionLost)
			}
			switch f.Type {
			case FrameDrained:
				g.mu.Lock()
				select {
				case <-g.drainDone:
				default:
					close(g.drainDone)
				}
				g.mu.Unlock()
				return nil
			case FrameReject:
				return fmt.Errorf("%w: %s", ErrRejected, f.Error)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Drain asks the registry for a graceful departure and waits for the
// acknowledgment: when Drain returns nil, every measurement this server
// ever completed has been committed controller-side and no new one will
// arrive — the server can shut down losing nothing. ctx bounds the wait.
func (g *Registrant) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	select {
	case g.drainAsked <- struct{}{}:
	default:
	}
	select {
	case <-g.drainDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
