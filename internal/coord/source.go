package coord

import (
	"fmt"

	"optassign/internal/apps"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/remote"
	"optassign/internal/t2"
)

// Source provides measurement capacity to campaigns. The coordinator
// acquires a handle per admitted campaign and closes it when the run
// leaves the scheduler, so a source can hand out per-campaign testbeds
// (LocalSource) or share one fleet across every campaign (PoolSource).
type Source interface {
	// Acquire returns a measurement handle for the campaign spec. The
	// handle stays open across the whole run (including while the
	// campaign waits in the queue) and is closed exactly once.
	Acquire(spec Spec) (Handle, error)
	// Testbed names the source for the result table's testbed column.
	Testbed() string
}

// Handle is one campaign's attachment to its measurement source.
type Handle interface {
	Runner() core.ContextRunner
	Topo() t2.Topology
	Tasks() int
	// Name is the benchmark/testbed name stamped into the journal header.
	Name() string
	Close() error
}

// LocalSource builds a deterministic in-process simulated testbed per
// campaign: same benchmark, instances and seed → same testbed → the same
// draw sequence measures to the same journal bytes on every run. That
// determinism is what makes the coordinator's crash/restart guarantee
// testable byte-for-byte.
type LocalSource struct{}

// Testbed implements Source.
func (LocalSource) Testbed() string { return "local" }

// Acquire implements Source.
func (LocalSource) Acquire(spec Spec) (Handle, error) {
	app, err := apps.ByName(spec.Benchmark, netgen.DefaultProfile())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	instances := spec.Instances
	if instances <= 0 {
		instances = 8
	}
	tb, err := netdps.NewTestbed(app, instances, netdps.WithSeed(spec.Seed))
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	return localHandle{tb: tb, name: app.Name()}, nil
}

type localHandle struct {
	tb   *netdps.Testbed
	name string
}

func (h localHandle) Runner() core.ContextRunner { return h.tb }
func (h localHandle) Topo() t2.Topology          { return h.tb.Machine.Topo }
func (h localHandle) Tasks() int                 { return h.tb.TaskCount() }
func (h localHandle) Name() string               { return h.name }
func (h localHandle) Close() error               { return nil }

// PoolSource shares one membership-driven remote fleet across every
// campaign: draws fan out over whatever servers are registered when they
// run. The pool outlives any campaign, so handles never close it.
type PoolSource struct {
	Pool *remote.ClientPool
}

// Testbed implements Source.
func (s PoolSource) Testbed() string { return "pool:" + s.Pool.Hello().Name }

// Acquire implements Source.
func (s PoolSource) Acquire(Spec) (Handle, error) {
	hello := s.Pool.Hello()
	if hello.Tasks == 0 {
		return nil, fmt.Errorf("coord: fleet pool has no ready servers")
	}
	return poolHandle{pool: s.Pool, hello: hello}, nil
}

type poolHandle struct {
	pool  *remote.ClientPool
	hello remote.Hello
}

func (h poolHandle) Runner() core.ContextRunner { return h.pool }
func (h poolHandle) Topo() t2.Topology          { return h.hello.Topology }
func (h poolHandle) Tasks() int                 { return h.hello.Tasks }
func (h poolHandle) Name() string               { return h.hello.Name }
func (h poolHandle) Close() error               { return nil }
