package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/remote"
	"optassign/internal/search"
)

// fleetServers is how many loopback measurement servers the fleet
// workloads run: one per processor of the reference two-core machine.
const fleetServers = 2

// testbedRep derives a testbed's noise seed from the workload seed
// (search.RepSeed stream), apart from the campaign streams 0, 1, 2, ...
const testbedRep = 1 << 20

// fleetApp and fleetInstances are what the loopback servers measure:
// IPFwd-L1 with 8 pipeline instances (24 tasks).
const (
	fleetApp       = "IPFwd-L1"
	fleetInstances = 8
)

// fleet is a set of loopback remote.Servers, each over its own simulated
// testbed with the same noise seed, and a client pool dialed to them.
type fleet struct {
	servers []*remote.Server
	served  []chan error
	pool    *remote.ClientPool
	// tr, once set by trace, records every server-side measurement as a
	// "remote.server" span.
	tr atomic.Pointer[tracer]

	closeOnce sync.Once
	closeErr  error
}

// trace starts recording server-side spans into tr.
func (f *fleet) trace(tr *tracer) { f.tr.Store(tr) }

// startFleet starts the servers and dials the pool.
func startFleet(seed int64) (*fleet, error) {
	app, err := apps.ByName(fleetApp, netgen.DefaultProfile())
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	var addrs []string
	for i := 0; i < fleetServers; i++ {
		tb, err := netdps.NewTestbed(app, fleetInstances, netdps.WithSeed(search.RepSeed(seed, testbedRep)))
		if err != nil {
			f.close()
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		srv := &remote.Server{Runner: serverRunner{tb: tb, f: f}, Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: app.Name()}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(l) }()
		f.servers = append(f.servers, srv)
		f.served = append(f.served, served)
		addrs = append(addrs, l.Addr().String())
	}
	f.pool, err = remote.DialPool(addrs, remote.PoolConfig{})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("dialing the fleet: %w", err)
	}
	return f, nil
}

// close closes the pool, then every server, and waits until each server's
// Serve has returned. Closing again returns the first close's error.
func (f *fleet) close() error {
	f.closeOnce.Do(func() {
		var errs []error
		if f.pool != nil {
			errs = append(errs, f.pool.Close())
		}
		for i, srv := range f.servers {
			errs = append(errs, srv.Close(), <-f.served[i])
		}
		f.closeErr = errors.Join(errs...)
	})
	return f.closeErr
}

// serverRunner times the server side of each remote measurement. Its
// spans have no parent: they are recorded on the far side of the wire.
type serverRunner struct {
	tb *netdps.Testbed
	f  *fleet
}

// detached is the parent of a span recorded where its cause is not
// known (the server side of a remote call); it is not a root.
const detached = -2

func (r serverRunner) Measure(a assign.Assignment) (float64, error) {
	tr := r.f.tr.Load()
	if tr == nil {
		return r.tb.MeasureAnalytic(a)
	}
	id := tr.begin("remote.server", detached, "server")
	perf, err := r.tb.MeasureAnalytic(a)
	tr.end(id, 1)
	return perf, err
}

// warmUp measures warmDraws draws across the fleet.
func (f *fleet) warmUp(ctx context.Context, seed int64) error {
	h := f.pool.Hello()
	return warmUp(ctx, f.pool, h.Topology, h.Tasks, seed, fleetServers)
}
