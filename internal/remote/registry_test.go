package remote

// Fleet-membership protocol tests: registration with dial-back identity
// verification, heartbeat-driven suspect/evict, the graceful-drain
// handshake, and rejoin after a lost registry link. Raw-frame clients are
// used where a test needs to misbehave (go silent, announce a bogus
// address) in ways the real Registrant never would.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/obs"
	"optassign/internal/t2"
)

// validAssignmentFor builds a trivially valid assignment (task i on
// hardware context i) for a testbed running the given task count.
func validAssignmentFor(tasks int) assign.Assignment {
	ctx := make([]int, tasks)
	for i := range ctx {
		ctx[i] = i
	}
	return assign.Assignment{Topo: t2.UltraSPARCT2(), Ctx: ctx}
}

// fastRegistryConfig keeps heartbeat timers test-sized.
func fastRegistryConfig() RegistryConfig {
	return RegistryConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectAfter:      80 * time.Millisecond,
		EvictAfter:        400 * time.Millisecond,
	}
}

// startRegistry wires a fresh pool + registry on a loopback listener.
func startRegistry(t *testing.T, cfg RegistryConfig) (*ClientPool, *Registry, string) {
	t.Helper()
	pool := NewPool(fastPoolConfig())
	reg := NewRegistry(pool, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go reg.Serve(l)
	t.Cleanup(func() {
		reg.Close()
		pool.Close()
	})
	return pool, reg, l.Addr().String()
}

// startRegistrant runs a real Registrant against the registry for a
// testbed server at addr and returns it plus a cancel/wait pair.
func startRegistrant(t *testing.T, regAddr, addr string, hello Hello, identity string) (*Registrant, context.CancelFunc, chan error) {
	t.Helper()
	g, err := NewRegistrant(RegistrantConfig{
		Dial:      func() (net.Conn, error) { return net.Dial("tcp", regAddr) },
		Hello:     hello,
		Addr:      addr,
		Identity:  identity,
		RetryBase: 5 * time.Millisecond,
		RetryMax:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		done <- g.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-exited
	})
	return g, cancel, done
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRegistryJoinMeasureDrain(t *testing.T) {
	tb, addr, kill := startPoolServer(t, 8)
	defer kill()
	reg := obs.NewRegistry()
	cfg := fastRegistryConfig()
	cfg.Metrics = NewMembershipMetrics(reg)
	pool, registry, regAddr := startRegistry(t, cfg)

	hello := Hello{Topology: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: "fleet-sim"}
	g, _, done := startRegistrant(t, regAddr, addr, hello, "test-identity")

	// The server registers; the pool gains a verified member.
	if err := pool.WaitReady(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := registry.Members()[addr]; got != "active" {
		t.Fatalf("registry member state = %q, want active", got)
	}
	if pool.Topology() != tb.Machine.Topo || pool.Tasks() != tb.TaskCount() {
		t.Fatalf("pool identity %+v does not match the testbed", pool.Hello())
	}

	// Measurements flow through the fleet exactly like a dialed pool.
	want, err := tb.Measure(validAssignmentFor(tb.TaskCount()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.MeasureContext(context.Background(), validAssignmentFor(tb.TaskCount()))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fleet measurement %v != local %v", got, want)
	}

	// Heartbeats keep the member active (and are counted).
	time.Sleep(5 * cfg.HeartbeatInterval)
	if pool.Members()[addr] != "active" {
		t.Fatalf("heartbeating member went %s", pool.Members()[addr])
	}
	if hb := cfg.Metrics.Heartbeats.Value(); hb < 2 {
		t.Fatalf("heartbeats counter = %v, want >= 2", hb)
	}

	// Graceful drain: acknowledged, zero members afterward, Run exits nil.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	if err := g.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run after drain = %v, want nil", err)
	}
	waitFor(t, "membership to empty", func() bool { return pool.Size() == 0 && len(registry.Members()) == 0 })
	if v := cfg.Metrics.Drains.Value(); v != 1 {
		t.Fatalf("drains counter = %v, want 1", v)
	}
	if v := cfg.Metrics.Members.Value(); v != 0 {
		t.Fatalf("members gauge = %v, want 0", v)
	}
}

func TestRegistryRejectsUnreachableAdvertisedAddr(t *testing.T) {
	pool, _, regAddr := startRegistry(t, fastRegistryConfig())
	// Announce an address nothing listens on: the dial-back must fail and
	// the registration be refused — a server cannot join a fleet it would
	// not serve.
	_, _, done := startRegistrant(t, regAddr, "127.0.0.1:1", validHello(), "x")
	select {
	case err := <-done:
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("Run = %v, want ErrRejected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unreachable registrant kept running")
	}
	if pool.Size() != 0 {
		t.Fatalf("unreachable server joined the pool: %v", pool.Members())
	}
}

// rawRegistryClient speaks the frame protocol by hand so tests can
// misbehave: skip heartbeats, go silent, or re-announce at will.
type rawRegistryClient struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialRawRegistrant(t *testing.T, regAddr, addr string, hello Hello) *rawRegistryClient {
	t.Helper()
	conn, err := net.Dial("tcp", regAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawRegistryClient{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}
	if err := c.enc.Encode(RegistryFrame{Type: FrameAnnounce, Hello: &hello, Addr: addr, Identity: "raw"}); err != nil {
		t.Fatal(err)
	}
	var f RegistryFrame
	if err := c.dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameWelcome {
		t.Fatalf("announce answered with %q (%s), want welcome", f.Type, f.Error)
	}
	return c
}

func (c *rawRegistryClient) heartbeat(t *testing.T, seq uint64) {
	t.Helper()
	if err := c.enc.Encode(RegistryFrame{Type: FrameHeartbeat, Seq: seq}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryMarksSuspectAndRecovers(t *testing.T) {
	tb, addr, kill := startPoolServer(t, 8)
	defer kill()
	reg := obs.NewRegistry()
	cfg := fastRegistryConfig()
	cfg.Metrics = NewMembershipMetrics(reg)
	pool, registry, regAddr := startRegistry(t, cfg)

	hello := Hello{Topology: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: "pool-sim"}
	c := dialRawRegistrant(t, regAddr, addr, hello)

	// Silence past SuspectAfter: the member turns suspect but stays a
	// member — measurements still route to it when nothing else is free.
	waitFor(t, "suspect state", func() bool { return registry.Members()[addr] == "suspect" })
	if got := pool.Members()[addr]; got != "suspect" {
		t.Fatalf("pool state = %q, want suspect", got)
	}
	if v := cfg.Metrics.Suspects.Value(); v != 1 {
		t.Fatalf("suspects gauge = %v, want 1", v)
	}
	if _, err := pool.MeasureContext(context.Background(), validAssignmentFor(tb.TaskCount())); err != nil {
		t.Fatalf("suspect-only fleet refused a measurement: %v", err)
	}

	// A heartbeat recovers it before eviction.
	c.heartbeat(t, 1)
	waitFor(t, "recovery", func() bool { return registry.Members()[addr] == "active" })
	if v := cfg.Metrics.Suspects.Value(); v != 0 {
		t.Fatalf("suspects gauge = %v, want 0 after recovery", v)
	}

	// Total silence past EvictAfter: the member is gone from both views.
	waitFor(t, "eviction", func() bool { return pool.Size() == 0 && len(registry.Members()) == 0 })
	if v := cfg.Metrics.Leaves.Value(); v != 1 {
		t.Fatalf("leaves counter = %v, want 1", v)
	}
}

func TestRegistrySupersedesReannounce(t *testing.T) {
	tb, addr, kill := startPoolServer(t, 8)
	defer kill()
	pool, registry, regAddr := startRegistry(t, fastRegistryConfig())
	hello := Hello{Topology: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: "pool-sim"}

	// First registration, then the server "restarts" and announces again
	// on a fresh connection without deregistering. Last announce wins;
	// the fleet still has exactly one member for the address.
	first := dialRawRegistrant(t, regAddr, addr, hello)
	second := dialRawRegistrant(t, regAddr, addr, hello)
	waitFor(t, "old session to close", func() bool {
		first.conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		var f RegistryFrame
		return first.dec.Decode(&f) != nil
	})
	if n := pool.Size(); n != 1 {
		t.Fatalf("pool size after re-announce = %d, want 1", n)
	}
	if n := len(registry.Members()); n != 1 {
		t.Fatalf("registry size after re-announce = %d, want 1", n)
	}
	second.heartbeat(t, 1)
	if got := registry.Members()[addr]; got != "active" {
		t.Fatalf("member state = %q, want active", got)
	}
}

func TestRegistrantReconnectsAfterRegistryBlip(t *testing.T) {
	tb, addr, kill := startPoolServer(t, 8)
	defer kill()
	pool, _, regAddr := startRegistry(t, fastRegistryConfig())
	hello := Hello{Topology: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: "pool-sim"}

	// Dial through a severable wrapper so the test can cut the registry
	// link without touching the registry itself.
	var mu sync.Mutex
	var live net.Conn
	g, err := NewRegistrant(RegistrantConfig{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", regAddr)
			if err == nil {
				mu.Lock()
				live = conn
				mu.Unlock()
			}
			return conn, err
		},
		Hello:     hello,
		Addr:      addr,
		Identity:  "blip",
		RetryBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	defer func() { cancel(); <-done }()

	if err := pool.WaitReady(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Sever the registration link; the registrant must re-dial and
	// re-announce, and the registry must treat the rejoin idempotently.
	mu.Lock()
	live.Close()
	mu.Unlock()
	waitFor(t, "rejoin", func() bool {
		return pool.Size() == 1 && pool.Members()[addr] == "active"
	})
}

// --- pool satellite behaviors ----------------------------------------

func TestPoolCloseIdempotentAndRacesAcquire(t *testing.T) {
	_, addr, kill := startPoolServer(t, 8)
	defer kill()
	pool, err := DialPool([]string{addr}, fastPoolConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Hammer Close from many goroutines while measurements are in
	// flight: shutdown must be idempotent and every loser must see the
	// typed, permanent ErrPoolClosed (or a transport error from its own
	// in-flight request being cut) — never a send on a dead channel or a
	// deadlock. Run under -race in CI.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 5; j++ {
				pool.MeasureContext(context.Background(), validAssignmentFor(8))
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := pool.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	_, err = pool.MeasureContext(context.Background(), validAssignmentFor(8))
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("measure after close = %v, want ErrPoolClosed", err)
	}
	if !core.IsPermanent(err) {
		t.Fatal("ErrPoolClosed must be permanent: retrying a closed pool is useless")
	}
}

func TestPoolEmptyMembershipFailsFast(t *testing.T) {
	pool := NewPool(fastPoolConfig())
	defer pool.Close()
	start := time.Now()
	_, err := pool.MeasureContext(context.Background(), validAssignmentFor(8))
	if !errors.Is(err, ErrNoServers) {
		t.Fatalf("empty pool measure = %v, want ErrNoServers", err)
	}
	if core.IsPermanent(err) {
		t.Fatal("ErrNoServers must stay transient: a server may join any moment")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("empty pool spun for %v instead of failing fast", elapsed)
	}
}

func TestPoolAllBenchedFailsFastWithStrikeSummary(t *testing.T) {
	_, addr1, kill1 := startPoolServer(t, 8)
	_, addr2, kill2 := startPoolServer(t, 8)
	cfg := fastPoolConfig()
	cfg.Cooldown = time.Hour // benches must not lapse mid-test
	pool, err := DialPool([]string{addr1, addr2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Kill both servers and measure until both members are benched.
	kill1()
	kill2()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = pool.MeasureContext(context.Background(), validAssignmentFor(8))
		if errors.Is(err, ErrNoServers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached ErrNoServers; last err: %v", err)
		}
	}
	// The error names every member with its strike count — the operator-
	// facing summary the satellite task asks for.
	for _, addr := range []string{addr1, addr2} {
		if !strings.Contains(err.Error(), addr) {
			t.Errorf("strike summary misses %s: %v", addr, err)
		}
	}
	if !strings.Contains(err.Error(), "strike") {
		t.Errorf("strike summary missing: %v", err)
	}
	// Fail-fast, not context-deadline spin.
	start := time.Now()
	_, err = pool.MeasureContext(context.Background(), validAssignmentFor(8))
	if !errors.Is(err, ErrNoServers) {
		t.Fatalf("benched pool measure = %v, want ErrNoServers", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("benched pool spun for %v instead of failing fast", elapsed)
	}
}

func TestPoolDynamicAddAndDrainMidCampaign(t *testing.T) {
	tb, addr1, kill1 := startPoolServer(t, 8)
	defer kill1()
	_, addr2, kill2 := startPoolServer(t, 8)
	defer kill2()

	pool := NewPool(fastPoolConfig())
	defer pool.Close()
	if err := pool.Add(addr1); err != nil {
		t.Fatal(err)
	}

	// Measurements flow; a second member joins mid-stream; the first
	// drains away. The campaign never notices.
	drained := make(chan struct{})
	var once sync.Once
	for i := 0; i < 40; i++ {
		switch i {
		case 10:
			if err := pool.Add(addr2); err != nil {
				t.Fatal(err)
			}
		case 20:
			pool.Drain(addr1, func() { once.Do(func() { close(drained) }) })
		}
		want, err := tb.Measure(validAssignmentFor(tb.TaskCount()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.MeasureContext(context.Background(), validAssignmentFor(tb.TaskCount()))
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("draw %d: pool %v != local %v", i, got, want)
		}
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain callback never ran")
	}
	if got := addrs(pool); len(got) != 1 || got[0] != addr2 {
		t.Fatalf("membership after drain = %v, want [%s]", got, addr2)
	}
}
