// Package remote runs measurement campaigns against a testbed on another
// machine, mirroring the paper's physical setup (one T5220 generating
// traffic, one executing assignments, §4): a Server wraps any core.Runner —
// typically the simulated testbed here, a thread-pinning harness on real
// hardware — behind a line-oriented JSON protocol, and a Client implements
// core.ContextRunner over the connection, so CollectSampleContext,
// IterateContext and the whole statistical pipeline drive a remote machine
// unchanged.
//
// Protocol (newline-delimited JSON over TCP):
//
//	server → client  hello:    {"topology":{...},"tasks":N,"name":"..."}
//	client → server  request:  {"id":1,"ctx":[...]}
//	server → client  response: {"id":1,"perf":1.23e6} | {"id":1,"error":"..."}
//
// Framing: the per-measurement lines are written and read without
// reflection, and the bytes on the wire are json.Encoder's. The client
// renders each request, and the server each success response, into a
// reused buffer, byte for byte what json.Encoder writes for it (perf
// omitted when zero, a nil ctx as null, encoding/json's float format); a
// non-finite perf drops the connection, as encoding/json's refusal does.
// Error responses and the hello go through encoding/json. Each end reads
// the peer's canonical line — exactly those bytes, however the stream
// is split into reads — on a strict fast path; any other input goes to
// an encoding/json decoder that owns the rest of the connection, so each
// end accepts, rejects and answers exactly what encoding/json would.
//
// Fault tolerance: the stream is request/response in lockstep, so after
// any transport error its state is unknown — a later call could pair a
// stale response with a new request. The Client therefore poisons itself
// on the first transport error (or garbage / mismatched-ID response),
// drops the connection, and — when it owns a dialer — transparently
// redials with backoff and re-handshakes before the next measurement,
// verifying the server still announces the same Hello: topology, task
// count, benchmark name and model.
// Server-reported measurement errors travel inside a well-formed response
// and do not poison the stream.
package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/t2"
)

// Hello is the server's greeting: what workload this testbed measures.
type Hello struct {
	Topology t2.Topology `json:"topology"`
	Tasks    int         `json:"tasks"`
	Name     string      `json:"name,omitempty"`
	// Model names the measurement model (proc.Model for the simulated
	// testbed), which campaigns record in their journal headers. Empty
	// for a server that names none.
	Model string `json:"model,omitempty"`
}

// String renders the announcement for error messages.
func (h Hello) String() string {
	s := fmt.Sprintf("%q at %d tasks on %v", h.Name, h.Tasks, h.Topology)
	if h.Model != "" {
		s += " under model " + h.Model
	}
	return s
}

// Request asks for one assignment to be executed and measured.
type Request struct {
	ID  uint64 `json:"id"`
	Ctx []int  `json:"ctx"`
}

// Response carries the measurement or the failure.
type Response struct {
	ID    uint64  `json:"id"`
	Perf  float64 `json:"perf,omitempty"`
	Error string  `json:"error,omitempty"`
}

// Fleet-membership frame types (newline-delimited JSON over TCP, like the
// measurement protocol). A measurement server dials the controller's
// registry endpoint, announces itself, and heartbeats; the registry
// verifies its identity out-of-band (by dialing the advertised
// measurement address and checking the Hello) and replies:
//
//	server → registry  announce:  {"type":"announce","hello":{...},"addr":"host:9120","identity":"..."}
//	registry → server  welcome:   {"type":"welcome","interval":"1s"}
//	registry → server  reject:    {"type":"reject","error":"..."}
//	server → registry  heartbeat: {"type":"heartbeat","seq":N}
//	server → registry  drain:     {"type":"drain"}
//	registry → server  drained:   {"type":"drained"}
//
// The drain exchange is the graceful-departure handshake: after the
// server sends "drain" the registry stops routing new measurements to it,
// lets the in-flight one finish and commit, closes the measurement
// connection, and only then acknowledges with "drained" — so a SIGTERM'd
// server that waits for the ack is guaranteed to have lost zero committed
// measurements.
const (
	FrameAnnounce  = "announce"
	FrameHeartbeat = "heartbeat"
	FrameDrain     = "drain"
	FrameWelcome   = "welcome"
	FrameReject    = "reject"
	FrameDrained   = "drained"
)

// RegistryFrame is one message of the fleet-membership protocol; Type
// selects which of the optional fields are meaningful.
type RegistryFrame struct {
	Type string `json:"type"`
	// Announce: what the server measures, where to dial it, and the
	// testbed identity string (netdps.Testbed.Identity or equivalent).
	Hello    *Hello `json:"hello,omitempty"`
	Addr     string `json:"addr,omitempty"`
	Identity string `json:"identity,omitempty"`
	// Heartbeat: a monotonically increasing sequence number.
	Seq uint64 `json:"seq,omitempty"`
	// Welcome: the heartbeat interval the registry expects, as a
	// time.Duration string.
	Interval string `json:"interval,omitempty"`
	// Reject: why registration was refused.
	Error string `json:"error,omitempty"`
}

// Server exposes a core.Runner to remote clients: each request is one
// Measure call.
type Server struct {
	Runner core.Runner
	Topo   t2.Topology
	Tasks  int
	Name   string
	// Model is announced as Hello.Model.
	Model string
	// ReadTimeout bounds how long a connection may sit idle between
	// requests. Without it a dead peer that never closes its socket
	// pins a handler goroutine forever; with it the handler times out
	// and the connection is reaped. 0 disables the deadline.
	ReadTimeout time.Duration
	// Metrics counts connections, requests and measurement latency —
	// the series cmd/measured exposes on /metrics. nil disables.
	Metrics *ServerMetrics

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	closed    bool
}

// ErrServerClosed is returned by Serve after Close or Shutdown.
var ErrServerClosed = errors.New("remote: server closed")

// Serve accepts connections until the listener closes or the server is
// shut down. Each connection is handled on its own goroutine; requests
// within a connection are processed in order (measurements on one machine
// are inherently serial anyway).
func (s *Server) Serve(l net.Listener) error {
	if s.Runner == nil {
		return errors.New("remote: server has no runner")
	}
	if err := s.Topo.Validate(); err != nil {
		return err
	}
	if err := s.trackListener(l); err != nil {
		return err
	}
	defer s.untrackListener(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closing() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.trackConn(conn) {
			conn.Close()
			return nil
		}
		go func() {
			defer s.untrackConn(conn)
			s.handle(conn)
		}()
	}
}

// Close stops the server immediately: listeners and live connections are
// closed, then Close waits for every handler goroutine to exit. Serve
// returns nil. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Shutdown stops the server gracefully: new connections are refused, but
// live ones keep serving until they disconnect or ctx expires, at which
// point they are closed like in Close. It returns ctx.Err() if the
// deadline forced the close, nil if everything drained on its own.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) trackListener(l net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[l] = struct{}{}
	return nil
}

func (s *Server) untrackListener(l net.Listener) {
	s.mu.Lock()
	delete(s.listeners, l)
	s.mu.Unlock()
}

func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	if s.Metrics != nil {
		s.Metrics.Connections.Inc()
		s.Metrics.ActiveConnections.Inc()
	}
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	if s.Metrics != nil {
		s.Metrics.ActiveConnections.Dec()
	}
	s.wg.Done()
}

func (s *Server) handle(conn net.Conn) {
	enc := json.NewEncoder(conn)
	if err := enc.Encode(Hello{Topology: s.Topo, Tasks: s.Tasks, Name: s.Name, Model: s.Model}); err != nil {
		return
	}
	fr := newFrameReader(conn)
	var req Request
	var line []byte
	for {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		if err := fr.readRequest(&req); err != nil {
			return // EOF, timeout or garbage: drop the connection
		}
		resp := Response{ID: req.ID}
		a := assign.Assignment{Topo: s.Topo, Ctx: req.Ctx}
		if s.Metrics != nil {
			s.Metrics.Requests.Inc()
		}
		switch {
		case len(req.Ctx) != s.Tasks:
			resp.Error = fmt.Sprintf("remote: assignment has %d tasks, testbed runs %d", len(req.Ctx), s.Tasks)
		default:
			start := time.Time{}
			if s.Metrics != nil {
				start = time.Now()
			}
			perf, err := s.Runner.Measure(a)
			if s.Metrics != nil {
				s.Metrics.MeasureSeconds.Observe(time.Since(start).Seconds())
			}
			if err != nil {
				resp.Error = err.Error()
			} else {
				resp.Perf = perf
			}
		}
		if resp.Error != "" {
			if s.Metrics != nil {
				s.Metrics.MeasureErrors.Inc()
			}
			if err := enc.Encode(resp); err != nil {
				return
			}
			continue
		}
		if math.IsNaN(resp.Perf) || math.IsInf(resp.Perf, 0) {
			return // encoding/json refuses the value: drop the connection
		}
		line = appendResponse(line[:0], resp.ID, resp.Perf)
		if _, err := conn.Write(line); err != nil {
			return
		}
	}
}

// ErrStreamBroken marks a client whose request/response stream is in an
// unknown state after a transport error. A client with a dialer recovers
// by redialing; one wrapping a raw connection stays poisoned.
var ErrStreamBroken = errors.New("remote: stream broken")

// ClientConfig tunes the client's reconnect behavior.
type ClientConfig struct {
	// Dial re-establishes the transport after the stream breaks. nil
	// disables reconnection: the first transport error permanently
	// poisons the client.
	Dial func() (net.Conn, error)
	// RedialAttempts bounds how many dials one reconnection tries before
	// giving up (the measurement then fails; the next measurement tries
	// again). Default 5.
	RedialAttempts int
	// RedialBase and RedialMax shape the backoff between redials:
	// RedialBase doubling up to RedialMax. Defaults 100 ms and 3 s.
	RedialBase, RedialMax time.Duration
	// Metrics counts requests, poisonings and reconnects; a bundle
	// shared between clients (e.g. across a pool) aggregates them. nil
	// disables.
	Metrics *ClientMetrics
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.RedialAttempts <= 0 {
		c.RedialAttempts = 5
	}
	if c.RedialBase <= 0 {
		c.RedialBase = 100 * time.Millisecond
	}
	if c.RedialMax <= 0 {
		c.RedialMax = 3 * time.Second
	}
	return c
}

// errClientClosed fails every measurement after Close, permanently. A
// call that Close interrupts fails with errClosedInFlight instead, a
// transport error, so a pool fails the draw over to another member.
var (
	errClientClosed   = errors.New("remote: client is closed")
	errClosedInFlight = fmt.Errorf("%w (%w)", errClientClosed, ErrStreamBroken)
)

// Client is a core.ContextRunner that measures on a remote Server,
// transparently reconnecting when it owns a dialer.
type Client struct {
	cfg ClientConfig

	// mu is the call lock: a measurement holds it for its whole round
	// trip. conn is read under it and swapped only while holding both mu
	// and connMu, so Close can take connMu alone and drop the connection
	// under an in-flight call.
	mu     sync.Mutex
	connMu sync.Mutex
	conn   net.Conn
	closed atomic.Bool // set under connMu
	fr     *frameReader
	line   []byte   // the request being sent
	resp   Response // the response being read
	hello  Hello
	next   uint64
	broken bool
	// tripped receives once a cancelled call's watcher has set its
	// connection's deadline.
	tripped chan struct{}
}

// Dial connects to a measurement server, performs the handshake, and
// arms automatic reconnection to addr.
func Dial(addr string) (*Client, error) {
	return DialConfig(ClientConfig{Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
}

// DialConfig connects using cfg.Dial and keeps it for reconnection.
func DialConfig(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Dial == nil {
		return nil, errors.New("remote: DialConfig needs a Dial function")
	}
	conn, err := cfg.Dial()
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, tripped: make(chan struct{}, 1)}
	if err := c.attach(conn, true); err != nil {
		return nil, err
	}
	return c, nil
}

// attach handshakes on conn and installs it as the client's transport.
// When first is true the announced Hello becomes the client's identity;
// on reconnects the announcement must match it. A closed client installs
// nothing.
func (c *Client) attach(conn net.Conn, first bool) error {
	fr := newFrameReader(conn)
	var hello Hello
	if err := fr.decodeJSON(&hello); err != nil {
		conn.Close()
		return fmt.Errorf("remote: handshake: %w", err)
	}
	if err := hello.Topology.Validate(); err != nil {
		conn.Close()
		return fmt.Errorf("remote: server announced invalid topology: %w", err)
	}
	if !first && hello != c.hello {
		conn.Close()
		return core.Permanent(fmt.Errorf("remote: server changed between connections: was %v, now %v", c.hello, hello))
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed.Load() {
		conn.Close()
		return errClosedInFlight
	}
	c.conn, c.fr = conn, fr
	if first {
		c.hello = hello
	}
	c.broken = false
	return nil
}

// Hello returns the server's announcement.
func (c *Client) Hello() Hello { return c.hello }

// Topology returns the remote machine's topology.
func (c *Client) Topology() t2.Topology { return c.hello.Topology }

// Tasks returns the remote workload's task count.
func (c *Client) Tasks() int { return c.hello.Tasks }

// MeasureContext implements core.ContextRunner: ctx cancellation or
// deadline expiry interrupts the in-flight network round trip. Transport
// failures poison the stream (see the package comment) and surface as
// transient errors — wrap the client in a core.ResilientRunner to retry
// them; server-reported measurement failures and identity mismatches are
// marked permanent.
func (c *Client) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	if a.Topo != c.hello.Topology {
		return 0, core.Permanent(fmt.Errorf("remote: assignment topology %v differs from server's %v", a.Topo, c.hello.Topology))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return 0, core.Permanent(errClientClosed)
	}
	if c.broken {
		if err := c.reconnect(ctx); err != nil {
			return 0, err
		}
	}

	// Tie the blocking socket I/O to ctx: a watcher trips the connection
	// deadline on cancellation, failing the pending read/write. A watcher
	// that has started is waited for, and its deadline cleared, before
	// the client is released: it must not land on the next call.
	if ctx.Done() != nil {
		conn := c.conn
		stop := context.AfterFunc(ctx, func() {
			conn.SetDeadline(time.Now())
			c.tripped <- struct{}{}
		})
		defer func() {
			if !stop() {
				<-c.tripped
				conn.SetDeadline(time.Time{})
			}
		}()
	}

	c.next++
	id := c.next
	if m := c.cfg.Metrics; m != nil {
		m.Requests.Inc()
	}
	c.line = appendRequest(c.line[:0], id, a.Ctx)
	if _, err := c.conn.Write(c.line); err != nil {
		c.poison()
		return 0, fmt.Errorf("remote: send: %w (%w)", err, ErrStreamBroken)
	}
	resp := &c.resp
	if err := c.fr.readResponse(resp); err != nil {
		c.poison()
		if errors.Is(err, io.EOF) {
			return 0, fmt.Errorf("remote: server closed the connection (%w)", ErrStreamBroken)
		}
		return 0, fmt.Errorf("remote: receive: %w (%w)", err, ErrStreamBroken)
	}
	if resp.ID != id {
		// The stream is desynced: some earlier response is still in
		// flight. Nothing read from this connection can be trusted.
		c.poison()
		return 0, fmt.Errorf("remote: response id %d for request %d (%w)", resp.ID, id, ErrStreamBroken)
	}
	if resp.Error != "" {
		// A well-formed error response: the stream is intact, but the
		// measurement itself failed server-side; retrying the same
		// assignment would fail identically.
		return 0, core.Permanent(fmt.Errorf("remote: server: %s", resp.Error))
	}
	return resp.Perf, nil
}

// poison marks the stream unusable and drops the connection, so a later
// Close has nothing left to close. Callers hold c.mu.
func (c *Client) poison() {
	c.broken = true
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.connMu.Unlock()
	if m := c.cfg.Metrics; m != nil {
		m.StreamPoisonings.Inc()
	}
}

// reconnect redials with exponential backoff and re-handshakes, verifying
// the server still measures the same workload. Callers hold c.mu.
func (c *Client) reconnect(ctx context.Context) error {
	if c.cfg.Dial == nil {
		return core.Permanent(fmt.Errorf("remote: client has no dialer to recover with: %w", ErrStreamBroken))
	}
	delay := c.cfg.RedialBase
	var lastErr error
	for attempt := 1; attempt <= c.cfg.RedialAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.closed.Load() {
			return errClosedInFlight
		}
		conn, err := c.cfg.Dial()
		if err == nil {
			if err = c.attach(conn, false); err == nil {
				if m := c.cfg.Metrics; m != nil {
					m.Reconnects.Inc()
				}
				return nil
			}
			if core.IsPermanent(err) {
				return err
			}
		}
		lastErr = err
		if attempt == c.cfg.RedialAttempts {
			break
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		if delay *= 2; delay > c.cfg.RedialMax {
			delay = c.cfg.RedialMax
		}
	}
	if m := c.cfg.Metrics; m != nil {
		m.ReconnectFailures.Inc()
	}
	return fmt.Errorf("remote: reconnect failed after %d attempts: %w (%w)", c.cfg.RedialAttempts, lastErr, ErrStreamBroken)
}

// Close releases the connection without waiting for an in-flight
// measurement, which then fails with a transport error, as does a
// reconnect in progress, which installs no new connection. Subsequent
// measurements fail permanently.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.closed.Store(true)
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
