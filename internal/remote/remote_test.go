package remote

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/netdps"
	"optassign/internal/t2"
)

// startServer launches a testbed-backed server on a loopback listener and
// returns its address plus a shutdown func.
func startServer(t testing.TB) (*netdps.Testbed, string, func()) {
	t.Helper()
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Runner: tb, Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: "sim"}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return tb, l.Addr().String(), func() {
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

func TestRemoteMeasureMatchesLocal(t *testing.T) {
	tb, addr, shutdown := startServer(t)
	defer shutdown()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if client.Topology() != tb.Machine.Topo || client.Tasks() != tb.TaskCount() {
		t.Fatalf("hello = %+v", client.Hello())
	}
	if client.Hello().Name != "sim" {
		t.Errorf("name = %q", client.Hello().Name)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
		if err != nil {
			t.Fatal(err)
		}
		remote, err := client.MeasureContext(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		local, err := tb.Measure(a)
		if err != nil {
			t.Fatal(err)
		}
		if remote != local {
			t.Fatalf("remote %v != local %v", remote, local)
		}
	}
}

func TestRemoteDrivesStatisticalPipeline(t *testing.T) {
	tb, addr, shutdown := startServer(t)
	defer shutdown()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The whole §3 pipeline over the wire.
	rng := rand.New(rand.NewSource(2))
	rs, _, err := core.CollectSampleContext(context.Background(), rng, client.Topology(), client.Tasks(), 1200, client)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateOptimal(core.Perfs(rs), evt.POTOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Optimal < est.BestObserved {
		t.Errorf("estimate %v below best %v", est.Optimal, est.BestObserved)
	}
	_ = tb
}

func TestRemoteErrorPropagation(t *testing.T) {
	tb, addr, shutdown := startServer(t)
	defer shutdown()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Wrong task count: server-side validation comes back as an error.
	short := assign.Assignment{Topo: tb.Machine.Topo, Ctx: []int{0, 1, 2}}
	if _, err := client.MeasureContext(context.Background(), short); err == nil || !strings.Contains(err.Error(), "tasks") {
		t.Errorf("err = %v", err)
	}
	// Colliding assignment: runner-side error crosses the wire.
	ctx := make([]int, tb.TaskCount())
	if _, err := client.MeasureContext(context.Background(), assign.Assignment{Topo: tb.Machine.Topo, Ctx: ctx}); err == nil {
		t.Error("colliding assignment accepted")
	}
	// Topology mismatch is caught client-side without a round trip.
	other := assign.Assignment{Topo: t2.Topology{Cores: 1, PipesPerCore: 1, ContextsPerPipe: 12}, Ctx: make([]int, 12)}
	if _, err := client.MeasureContext(context.Background(), other); err == nil {
		t.Error("topology mismatch accepted")
	}
	// The connection survives all those errors.
	rng := rand.New(rand.NewSource(3))
	a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.MeasureContext(context.Background(), a); err != nil {
		t.Errorf("connection did not survive error traffic: %v", err)
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	tb, addr, shutdown := startServer(t)
	defer shutdown()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer client.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
				if err != nil {
					errs[w] = err
					return
				}
				if _, err := client.MeasureContext(context.Background(), a); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", w, err)
		}
	}
}

func TestServerValidation(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := (&Server{}).Serve(l); err == nil {
		t.Error("runner-less server accepted")
	}
	runner := runnerFunc(func(assign.Assignment) (float64, error) { return 1, nil })
	if err := (&Server{Runner: runner}).Serve(l); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestClientRejectsBadHandshake(t *testing.T) {
	server, client := net.Pipe()
	go func() {
		server.Write([]byte("garbage\n"))
		server.Close()
	}()
	if _, err := NewClient(client); err == nil {
		t.Error("garbage handshake accepted")
	}

	server2, client2 := net.Pipe()
	go func() {
		server2.Write([]byte(`{"topology":{"Cores":0,"PipesPerCore":0,"ContextsPerPipe":0},"tasks":3}` + "\n"))
		server2.Close()
	}()
	if _, err := NewClient(client2); err == nil {
		t.Error("invalid announced topology accepted")
	}
}

func TestClientServerClosed(t *testing.T) {
	_, addr, shutdown := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	shutdown()
	client.conn.Close()
	a := assign.Assignment{Topo: client.Topology(), Ctx: make([]int, client.Tasks())}
	for i := range a.Ctx {
		a.Ctx[i] = i
	}
	if _, err := client.MeasureContext(context.Background(), a); err == nil {
		t.Error("measure on closed connection succeeded")
	}
	if !errors.Is(client.Close(), net.ErrClosed) && client.Close() == nil {
		// double close tolerated either way; just exercise the path
		_ = err
	}
}

// runnerFunc adapts a plain function to core.Runner, a Server's backend.
type runnerFunc func(a assign.Assignment) (float64, error)

func (f runnerFunc) Measure(a assign.Assignment) (float64, error) { return f(a) }
