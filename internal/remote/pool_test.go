package remote

// Multi-server client pool: correctness of pooled measurement, identity
// verification across servers, failover when a server dies mid-batch, and
// survival of deterministic link cuts. The stress tests matter most under
// `go test -race`, which CI runs.

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/faulty"
	"optassign/internal/netdps"
)

// startPoolServer launches a testbed-backed server and returns its address
// plus a kill switch that severs listeners and live connections at once —
// the "testbed went down mid-campaign" event the pool must absorb.
func startPoolServer(t *testing.T, tasks int) (*netdps.Testbed, string, func()) {
	t.Helper()
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), tasks)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Runner: tb, Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: "pool-sim"}
	go srv.Serve(l)
	var once sync.Once
	return tb, l.Addr().String(), func() { once.Do(func() { srv.Close() }) }
}

// fastPoolConfig keeps every retry and cooldown small enough for tests.
func fastPoolConfig() PoolConfig {
	return PoolConfig{
		Client: ClientConfig{
			RedialAttempts: 1,
			RedialBase:     time.Millisecond,
			RedialMax:      2 * time.Millisecond,
		},
		QuarantineAfter: 2,
		Cooldown:        50 * time.Millisecond,
	}
}

func TestPoolMeasureMatchesLocal(t *testing.T) {
	tb, addr1, kill1 := startPoolServer(t, 8)
	defer kill1()
	_, addr2, kill2 := startPoolServer(t, 8)
	defer kill2()
	_, addr3, kill3 := startPoolServer(t, 8)
	defer kill3()

	pool, err := DialPool([]string{addr1, addr2, addr3}, fastPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 3 {
		t.Fatalf("Size() = %d, want 3", pool.Size())
	}
	if pool.Topology() != tb.Machine.Topo || pool.Tasks() != tb.TaskCount() {
		t.Fatalf("pool identity %+v does not match the testbed", pool.Hello())
	}

	// Drive the pool the way a parallel campaign does: one core worker
	// per server, sharing the concurrency-safe ClientPool.
	workers, err := core.NewReplicatedPool(pool, pool.Size())
	if err != nil {
		t.Fatal(err)
	}
	as, err := assign.Sample(rand.New(rand.NewSource(1)), tb.Machine.Topo, tb.TaskCount(), 60)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range workers.MeasureBatch(context.Background(), as) {
		if o.Err != nil {
			t.Fatalf("draw %d: %v", i, o.Err)
		}
		want, err := tb.Measure(as[i])
		if err != nil {
			t.Fatal(err)
		}
		if o.Perf != want {
			t.Fatalf("draw %d: pooled perf %v, local %v", i, o.Perf, want)
		}
	}
}

func TestDialPoolValidation(t *testing.T) {
	if _, err := DialPool(nil, PoolConfig{}); err == nil {
		t.Error("empty address list accepted")
	}
	// An unreachable server must fail at dial time, not mid-campaign.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	if _, err := DialPool([]string{dead}, fastPoolConfig()); err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestDialPoolRejectsMismatchedServers(t *testing.T) {
	_, addr8, kill8 := startPoolServer(t, 8)
	defer kill8()
	_, addr4, kill4 := startPoolServer(t, 4)
	defer kill4()
	_, err := DialPool([]string{addr8, addr4}, fastPoolConfig())
	if err == nil {
		t.Fatal("pool accepted servers measuring different workloads")
	}
	if !strings.Contains(err.Error(), "tasks") {
		t.Errorf("err = %v, want a workload-mismatch explanation", err)
	}
}

// TestPoolFailoverOnServerDeath kills one of two servers mid-batch: every
// measurement must still succeed via the surviving server, and the dead
// server must accumulate strikes.
func TestPoolFailoverOnServerDeath(t *testing.T) {
	tb, addr1, kill1 := startPoolServer(t, 8)
	defer kill1()
	_, addr2, kill2 := startPoolServer(t, 8)
	defer kill2()

	pool, err := DialPool([]string{addr1, addr2}, fastPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	as, err := assign.Sample(rand.New(rand.NewSource(2)), tb.Machine.Topo, tb.TaskCount(), 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range as {
		if i == 10 {
			kill2() // the second testbed dies mid-campaign
		}
		perf, err := pool.MeasureContext(context.Background(), a)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		want, err := tb.Measure(a)
		if err != nil {
			t.Fatal(err)
		}
		if perf != want {
			t.Fatalf("draw %d: perf %v, want %v", i, perf, want)
		}
	}
	if strikes := pool.Strikes(); strikes[addr2] == 0 {
		t.Errorf("dead server has no strikes: %v", strikes)
	}
}

// TestPoolAllServersDown: when every server is unreachable the pool
// reports a transient error (an outer ResilientRunner owns the retry
// policy), not a permanent one.
func TestPoolAllServersDown(t *testing.T) {
	_, addr, kill := startPoolServer(t, 8)
	pool, err := DialPool([]string{addr}, fastPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	kill()

	_, err = pool.MeasureContext(context.Background(), validAssignment())
	if err == nil {
		t.Fatal("measurement on a dead pool succeeded")
	}
	if core.IsPermanent(err) {
		t.Errorf("dead pool returned a permanent error: %v", err)
	}
	if !errors.Is(err, ErrStreamBroken) {
		t.Errorf("err = %v, want a stream-broken chain", err)
	}
}

// TestPoolSurvivesProxyDrops runs a parallel campaign through proxies that
// deterministically cut every link, with the standard resilient stack on
// top: the campaign must complete with correct values anyway.
func TestPoolSurvivesProxyDrops(t *testing.T) {
	tb, addr, kill := startPoolServer(t, 8)
	defer kill()

	proxies := make(map[string]*faulty.Proxy)
	for i := 0; i < 2; i++ {
		// Drop each connection after 12 server→client frames (the hello
		// counts as one), so every client loses its link repeatedly.
		p, err := faulty.NewProxy(addr, 12)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies[p.Addr()] = p
	}
	cfg := fastPoolConfig()
	cfg.Client.RedialAttempts = 3
	addrs := make([]string, 0, len(proxies))
	for a := range proxies {
		addrs = append(addrs, a)
	}
	pool, err := DialPool(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	resilient := core.NewResilientRunner(pool, core.ResilientConfig{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	})
	workers, err := core.NewReplicatedPool(resilient, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	results, skipped, err := core.CollectSampleParallel(context.Background(),
		rng, tb.Machine.Topo, tb.TaskCount(), 50, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("%d draws quarantined despite retries", len(skipped))
	}
	for i, r := range results {
		want, err := tb.Measure(r.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if r.Perf != want {
			t.Fatalf("result %d: perf %v, want %v", i, r.Perf, want)
		}
	}
	cuts := 0
	for _, p := range proxies {
		cuts += p.Cuts()
	}
	if cuts == 0 {
		t.Fatal("proxies cut nothing; the test exercised no faults")
	}
}

// TestPoolConcurrentStress hammers one pool from many goroutines — the
// shape a core.PoolRunner imposes — and checks every value.
func TestPoolConcurrentStress(t *testing.T) {
	tb, addr1, kill1 := startPoolServer(t, 8)
	defer kill1()
	_, addr2, kill2 := startPoolServer(t, 8)
	defer kill2()
	_, addr3, kill3 := startPoolServer(t, 8)
	defer kill3()

	pool, err := DialPool([]string{addr1, addr2, addr3}, fastPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				a, err := assign.Random(rng, tb.Machine.Topo, tb.TaskCount())
				if err != nil {
					t.Error(err)
					return
				}
				perf, err := pool.MeasureContext(context.Background(), a)
				if err != nil {
					t.Errorf("goroutine %d draw %d: %v", seed, i, err)
					return
				}
				want, err := tb.Measure(a)
				if err != nil {
					t.Error(err)
					return
				}
				if perf != want {
					t.Errorf("goroutine %d draw %d: perf %v, want %v", seed, i, perf, want)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
}

// TestPoolShutdownDuringInflight closes the pool while measurements are in
// flight: no measurement may hang, and post-close measurements fail
// permanently.
func TestPoolShutdownDuringInflight(t *testing.T) {
	tb, addr, kill := startPoolServer(t, 8)
	defer kill()
	pool, err := DialPool([]string{addr}, fastPoolConfig())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < 10; i++ {
				a, err := assign.Random(rng, tb.Machine.Topo, tb.TaskCount())
				if err != nil {
					t.Error(err)
					return
				}
				// Errors are expected once Close lands; hangs are not.
				pool.MeasureContext(context.Background(), a)
			}
		}(int64(g + 1))
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := pool.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()

	_, err = pool.MeasureContext(context.Background(), validAssignment())
	if err == nil || !core.IsPermanent(err) {
		t.Fatalf("measurement on a closed pool: err = %v, want permanent", err)
	}
}
