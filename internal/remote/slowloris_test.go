package remote

// Slow-write (slowloris) peers: a client whose request bytes trickle in
// one at a time must not wedge a measurement server — the per-frame read
// deadline reaps the connection — and the campaign-side resilient wrapper
// must quarantine the doomed measurement instead of hanging.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"optassign/internal/core"
	"optassign/internal/faulty"
)

func TestServerReadDeadlineDefeatsSlowloris(t *testing.T) {
	tb, addr, shutdown := startTestbedServer(t, &Server{
		Name:        "sim",
		ReadTimeout: 50 * time.Millisecond,
	})
	defer shutdown()

	// Every request byte takes 5 ms through the proxy, so a ~30-byte
	// request frame needs ~150 ms — far past the server's 50 ms read
	// deadline. The hello and response directions run at full speed; only
	// the client's writes are slowloris-slow.
	proxy, err := faulty.NewProxyConfig(addr, faulty.ProxyConfig{SlowWrite: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client, err := DialConfig(ClientConfig{
		Dial:           func() (net.Conn, error) { return net.Dial("tcp", proxy.Addr()) },
		RedialAttempts: 1,
		RedialBase:     time.Millisecond,
		RedialMax:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resilient := core.NewResilientRunner(client, core.ResilientConfig{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	})

	// The measurement must fail by quarantine in bounded time — the read
	// deadline fires server-side, the client sees its stream die, and the
	// retry budget runs out. A hang here means the server waited forever
	// on the trickling frame.
	done := make(chan error, 1)
	go func() {
		_, err := resilient.MeasureContext(context.Background(), validAssignmentFor(tb.TaskCount()))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("slowloris measurement succeeded, want quarantine")
		}
		if !errors.Is(err, core.ErrQuarantined) {
			t.Fatalf("err = %v, want ErrQuarantined", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("slowloris request hung the campaign instead of quarantining")
	}

	// The server itself must have survived the attack: a direct,
	// well-behaved client still measures.
	direct, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	want, err := tb.Measure(validAssignmentFor(tb.TaskCount()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := direct.MeasureContext(context.Background(), validAssignmentFor(tb.TaskCount()))
	if err != nil {
		t.Fatalf("server unhealthy after slowloris: %v", err)
	}
	if got != want {
		t.Fatalf("post-slowloris measurement %v != local %v", got, want)
	}
}
