package remote

// Graceful drain at the production default timings (1 s heartbeats, not
// the fast timers the rest of the suite uses), across a registry restart:
// the controller process a member first registered with dies, a new one
// takes over the address, the member re-announces through backoff — and a
// drain requested after all that must still complete promptly while a
// two-worker measurement loop keeps the pool busy.

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/obs"
)

func TestDrainAtDefaultTimingsSurvivesRegistryRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	tb, addr, shutdown := startTestbedServer(t, &Server{Name: "sim"})
	defer shutdown()

	events := &obs.CollectorSink{}
	pool := NewPool(PoolConfig{Events: events})
	defer pool.Close()
	reg := NewRegistry(pool, RegistryConfig{Events: events}) // default 1s heartbeat
	defer reg.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go reg.Serve(l)

	regAddr := l.Addr().String()
	registrant, err := NewRegistrant(RegistrantConfig{
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", regAddr) },
		Hello:    Hello{Topology: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: "sim"},
		Addr:     addr,
		Identity: tb.Identity(),
		Events:   events,
	})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- registrant.Run(runCtx) }()

	if err := pool.WaitReady(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	// Two workers hammer the pool, like the CLI campaign does.
	var stop atomic.Bool
	a := validAssignmentFor(tb.TaskCount())
	for i := 0; i < 2; i++ {
		go func() {
			for !stop.Load() {
				pool.MeasureContext(context.Background(), a)
			}
		}()
	}
	defer stop.Store(true)

	time.Sleep(1500 * time.Millisecond) // let heartbeats flow

	// Registry restart: the first controller exits, a second one starts on
	// the same address, the registrant re-announces after backoff.
	reg.Close()
	l.Close()
	pool.Close()
	time.Sleep(500 * time.Millisecond)
	pool2 := NewPool(PoolConfig{Events: events})
	defer pool2.Close()
	reg2 := NewRegistry(pool2, RegistryConfig{Events: events})
	defer reg2.Close()
	l2, err := net.Listen("tcp", regAddr)
	if err != nil {
		t.Fatal(err)
	}
	go reg2.Serve(l2)
	if err := pool2.WaitReady(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go func() {
			for !stop.Load() {
				pool2.MeasureContext(context.Background(), a)
			}
		}()
	}
	time.Sleep(1500 * time.Millisecond)

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	start := time.Now()
	if err := registrant.Drain(dctx); err != nil {
		t.Fatalf("drain after %v: %v (events: joins=%d drains=%d left=%d)",
			time.Since(start), err,
			events.Count("member_joined"), events.Count("member_draining"), events.Count("member_left"))
	}
	t.Logf("drain completed in %v", time.Since(start))
	if err := <-runErr; err != nil {
		t.Fatalf("registrant run: %v", err)
	}
}
