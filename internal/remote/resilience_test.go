package remote

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/faulty"
	"optassign/internal/netdps"
	"optassign/internal/t2"
)

// pipeServer runs a scripted fake server on one end of a net.Pipe and
// returns a client on the other. The script gets the raw connection after
// the hello has been sent.
func pipeServer(t *testing.T, hello Hello, script func(conn net.Conn)) *Client {
	t.Helper()
	server, clientConn := net.Pipe()
	go func() {
		enc := json.NewEncoder(server)
		if err := enc.Encode(hello); err != nil {
			server.Close()
			return
		}
		if script != nil {
			script(server)
		}
	}()
	c, err := newClient(clientConn)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func validHello() Hello {
	return Hello{Topology: t2.UltraSPARCT2(), Tasks: 3, Name: "fake"}
}

func validAssignment() assign.Assignment {
	return assign.Assignment{Topo: t2.UltraSPARCT2(), Ctx: []int{0, 1, 2}}
}

func assertPoisoned(t *testing.T, c *Client) {
	t.Helper()
	// Without a dialer the client must fail fast and permanently; a
	// retry loop should quarantine instead of hammering a dead link.
	_, err := c.MeasureContext(context.Background(), validAssignment())
	if err == nil {
		t.Fatal("poisoned client accepted a measurement")
	}
	if !core.IsPermanent(err) {
		t.Errorf("poisoned dialer-less client returned a transient error: %v", err)
	}
	if !errors.Is(err, ErrStreamBroken) {
		t.Errorf("err = %v, want ErrStreamBroken", err)
	}
}

func TestClientPoisonedByServerDeathMidRequest(t *testing.T) {
	c := pipeServer(t, validHello(), func(conn net.Conn) {
		// Read the request, then die without responding.
		var req Request
		json.NewDecoder(conn).Decode(&req)
		conn.Close()
	})
	defer c.Close()
	_, err := c.MeasureContext(context.Background(), validAssignment())
	if err == nil || !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("err = %v, want stream-broken", err)
	}
	if core.IsPermanent(err) {
		t.Error("first transport error should look transient (a dialer could recover)")
	}
	assertPoisoned(t, c)
}

func TestClientPoisonedByGarbageResponse(t *testing.T) {
	c := pipeServer(t, validHello(), func(conn net.Conn) {
		var req Request
		json.NewDecoder(conn).Decode(&req)
		conn.Write([]byte("@@not-json@@\n"))
	})
	defer c.Close()
	if _, err := c.MeasureContext(context.Background(), validAssignment()); err == nil || !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("err = %v, want stream-broken", err)
	}
	assertPoisoned(t, c)
}

func TestClientPoisonedByMismatchedResponseID(t *testing.T) {
	c := pipeServer(t, validHello(), func(conn net.Conn) {
		dec := json.NewDecoder(conn)
		enc := json.NewEncoder(conn)
		for {
			var req Request
			if dec.Decode(&req) != nil {
				return
			}
			enc.Encode(Response{ID: req.ID + 7, Perf: 1}) // stale/desynced id
		}
	})
	defer c.Close()
	if _, err := c.MeasureContext(context.Background(), validAssignment()); err == nil || !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("err = %v, want stream-broken", err)
	}
	// Even though the fake server keeps answering, the stream is
	// untrusted now: the client must refuse without a reconnect.
	assertPoisoned(t, c)
}

func TestClientContextCancelsInFlightMeasure(t *testing.T) {
	c := pipeServer(t, validHello(), func(conn net.Conn) {
		var req Request
		json.NewDecoder(conn).Decode(&req)
		// Never respond: the measurement hangs server-side.
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.MeasureContext(ctx, validAssignment())
	if err == nil {
		t.Fatal("hung measurement returned success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not cut the hang: %v", elapsed)
	}
}

func startTestbedServer(t *testing.T, srv *Server) (*netdps.Testbed, string, func()) {
	t.Helper()
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		t.Fatal(err)
	}
	srv.Runner = tb
	srv.Topo = tb.Machine.Topo
	srv.Tasks = tb.TaskCount()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return tb, l.Addr().String(), func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// TestClientReconnectsThroughDrops drives a campaign through a proxy that
// kills the connection every few responses: the reconnecting client plus
// a resilient retry wrapper must still deliver the identical sample a
// fault-free run produces.
func TestClientReconnectsThroughDrops(t *testing.T) {
	tb, addr, shutdown := startTestbedServer(t, &Server{Name: "sim"})
	defer shutdown()

	proxy, err := faulty.NewProxy(addr, 6) // hello + 5 responses, then cut
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client, err := DialConfig(ClientConfig{
		Dial:       func() (net.Conn, error) { return net.Dial("tcp", proxy.Addr()) },
		RedialBase: time.Millisecond,
		RedialMax:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resilient := core.NewResilientRunner(client, core.ResilientConfig{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
	})
	const n = 40
	results, skipped, err := core.CollectSampleContext(context.Background(),
		rand.New(rand.NewSource(4)), tb.Machine.Topo, tb.TaskCount(), n, resilient)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("%d measurements quarantined: %v", len(skipped), skipped[0].Err)
	}
	if len(results) != n {
		t.Fatalf("measured %d, want %d", len(results), n)
	}
	if proxy.Cuts() == 0 {
		t.Fatal("proxy never dropped a connection; the test proves nothing")
	}
	// Identical to fault-free local measurements.
	for i, r := range results {
		local, err := tb.Measure(r.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if local != r.Perf {
			t.Fatalf("measurement %d: remote %v != local %v", i, r.Perf, local)
		}
	}
}

func TestReconnectRejectsChangedServer(t *testing.T) {
	tbA, addrA, shutdownA := startTestbedServer(t, &Server{Name: "A"})
	defer shutdownA()
	// Server B announces a different workload (different task count).
	tbB, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 4)
	if err != nil {
		t.Fatal(err)
	}
	srvB := &Server{Runner: tbB, Topo: tbB.Machine.Topo, Tasks: tbB.TaskCount(), Name: "B"}
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	doneB := make(chan error, 1)
	go func() { doneB <- srvB.Serve(lB) }()
	defer func() { srvB.Close(); <-doneB }()

	var dials atomic.Int64
	client, err := DialConfig(ClientConfig{
		Dial: func() (net.Conn, error) {
			if dials.Add(1) == 1 {
				return net.Dial("tcp", addrA)
			}
			return net.Dial("tcp", lB.Addr().String())
		},
		RedialBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(5))
	a, err := assign.RandomPermutation(rng, tbA.Machine.Topo, tbA.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.MeasureContext(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	// Break the stream; the next measurement redials — onto server B,
	// whose identity does not match. That must be a permanent error.
	client.mu.Lock()
	client.poison()
	client.mu.Unlock()
	_, err = client.MeasureContext(context.Background(), a)
	if err == nil {
		t.Fatal("identity-changed reconnect accepted")
	}
	if !core.IsPermanent(err) {
		t.Errorf("identity mismatch should be permanent, got %v", err)
	}
}

func TestServerReadTimeoutReapsDeadPeer(t *testing.T) {
	_, addr, shutdown := startTestbedServer(t, &Server{Name: "sim", ReadTimeout: 50 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello Hello
	if err := json.NewDecoder(conn).Decode(&hello); err != nil {
		t.Fatal(err)
	}
	// Send nothing. The server must give up on us and close the
	// connection instead of leaking the handler goroutine forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("expected the server to close the idle connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("idle reap took %v", elapsed)
	}
	// Close() must return promptly because no handler is stuck.
	doneClose := make(chan struct{})
	go func() { shutdown(); close(doneClose) }()
	select {
	case <-doneClose:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close blocked on a leaked handler")
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	srv := &Server{Name: "sim"}
	_, addr, _ := startTestbedServer(t, srv)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The client's connection was severed; an immediate measurement
	// sees a transport error (transient: its dialer could in principle
	// reach a restarted server, which here stays down).
	a := validAssignment()
	a.Topo = client.Topology()
	a.Ctx = make([]int, client.Tasks())
	for i := range a.Ctx {
		a.Ctx[i] = i
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := client.MeasureContext(ctx, a); err == nil {
		t.Error("measurement through a closed server succeeded")
	}
	// Serving on a closed server must refuse.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := srv.Serve(l); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve after Close = %v, want ErrServerClosed", err)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	srv := &Server{Name: "sim"}
	_, addr, _ := startTestbedServer(t, srv)

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	// An idle-but-open client holds Shutdown until the deadline, then
	// gets cut.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	client.Close()

	// A drained server shuts down cleanly.
	srv2 := &Server{Name: "sim"}
	_, addr2, _ := startTestbedServer(t, srv2)
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv2.Shutdown(ctx2); err != nil {
		t.Errorf("Shutdown of drained server = %v", err)
	}
}

// TestClientCloseInterruptsInFlight closes a client whose server never
// answers: Close must not wait for the round trip, the call fails with a
// transport error, and later calls fail permanently.
func TestClientCloseInterruptsInFlight(t *testing.T) {
	got := make(chan struct{})
	c := pipeServer(t, validHello(), func(conn net.Conn) {
		buf := make([]byte, 512)
		var once sync.Once
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			once.Do(func() { close(got) })
		}
	})
	errc := make(chan error, 1)
	go func() {
		_, err := c.MeasureContext(context.Background(), validAssignment())
		errc <- err
	}()
	<-got
	within(t, 2*time.Second, "Close", func() { c.Close() })
	if err := <-errc; !errors.Is(err, ErrStreamBroken) {
		t.Errorf("in-flight measurement: err = %v, want a transport error", err)
	}
	if _, err := c.MeasureContext(context.Background(), validAssignment()); !core.IsPermanent(err) {
		t.Errorf("measurement after Close: err = %v, want permanent", err)
	}
}

// TestClientCloseStopsReconnect closes a client while its reconnect is
// dialing: the connection that dial yields is closed, not installed, and
// the measurement fails with a transport error, which a pool fails over
// (a permanent one would quarantine the draw).
func TestClientCloseStopsReconnect(t *testing.T) {
	dialing, release, dropped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var dials atomic.Int64
	serve := func(conn net.Conn, onClose func()) {
		if err := json.NewEncoder(conn).Encode(validHello()); err != nil {
			return
		}
		buf := make([]byte, 512)
		for {
			if _, err := conn.Read(buf); err != nil {
				onClose()
				return
			}
		}
	}
	c, err := DialConfig(ClientConfig{
		Dial: func() (net.Conn, error) {
			server, client := net.Pipe()
			if dials.Add(1) == 1 {
				go serve(server, func() {})
				return client, nil
			}
			close(dialing)
			<-release
			go serve(server, func() { close(dropped) })
			return client, nil
		},
		RedialAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.poison()
	c.mu.Unlock()

	errc := make(chan error, 1)
	go func() {
		_, err := c.MeasureContext(context.Background(), validAssignment())
		errc <- err
	}()
	<-dialing
	within(t, 2*time.Second, "Close", func() { c.Close() })
	close(release)
	if err := <-errc; core.IsPermanent(err) || !errors.Is(err, ErrStreamBroken) || !errors.Is(err, errClientClosed) {
		t.Errorf("measurement reconnecting across Close: err = %v, want a transient client-closed transport error", err)
	}
	select {
	case <-dropped:
	case <-time.After(2 * time.Second):
		t.Fatal("the connection dialed after Close was not closed")
	}
}
