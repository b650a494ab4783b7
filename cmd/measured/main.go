// Command measured ("measure daemon") serves a testbed over TCP so that a
// controller on another machine can run measurement campaigns against it —
// the two-machine layout of the paper's industrial setup. Here it serves
// the simulated UltraSPARC T2; on real hardware the same protocol would
// front a thread-pinning measurement harness.
//
// Usage:
//
//	measured [-addr :9120] [-benchmark IPFwd-L1] [-instances 8] [-seed 1]
//	         [-read-timeout 5m] [-drain 10s] [-metrics-addr :9121]
//	         [-register controller:9130] [-advertise host:9120]
//	         [-cache] [-cache-size 4096] [-cache-dir DIR]
//
// Drive it with cmd/optassign -connect host:9120, or join a dynamic fleet
// with -register: the server announces itself (topology, task count,
// testbed identity) to the registry hosted by optassign -registry,
// heartbeats for as long as it serves, and re-announces automatically if
// the registry link drops. -advertise is the measurement address the
// controller dials back to verify and use; it defaults to the first -addr
// and must be set explicitly when that is a wildcard like ":9120".
//
// -addr accepts a comma-separated list to serve several listeners from
// one process (e.g. one per NIC, or several loopback ports to exercise a
// client pool). Idle connections are reaped after -read-timeout so dead
// controllers don't leak handlers. SIGINT/SIGTERM shuts down gracefully:
// a registered server first runs the drain handshake — the controller
// stops routing new measurements, in-flight ones finish and commit, the
// registry acknowledges — then live connections drain for up to -drain,
// then the process exits. A drained exit loses zero committed
// measurements.
//
// Memoization: -cache serves structurally duplicate assignments from
// memory server-side, so several controllers (or one controller re-running
// campaigns) share measurements of symmetric assignments. -cache-dir DIR
// (implies -cache) persists the memoized classes to a checksummed
// append-only store in DIR, shared across restarts and across measured
// processes on one host; delete the directory to invalidate it.
//
// Observability: -metrics-addr serves Prometheus text-format metrics at
// /metrics (connections, requests, measurement latency) and a JSON
// health report at /healthz, and the runtime profiles at /debug/pprof/;
// empty (the default) disables the endpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"optassign/internal/apps"
	"optassign/internal/cas"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/obs"
	"optassign/internal/proc"
	"optassign/internal/remote"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("measured: ")

	addr := flag.String("addr", ":9120", "listen address, or a comma-separated list of them")
	benchmark := flag.String("benchmark", "IPFwd-L1", "benchmark name (see cmd/optassign)")
	instances := flag.Int("instances", 8, "pipeline instances")
	seed := flag.Int64("seed", 1, "testbed seed")
	readTimeout := flag.Duration("read-timeout", 5*time.Minute, "drop a connection idle for this long (0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "how long shutdown waits for live connections to finish")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /healthz and /debug/pprof/ on this address (empty disables)")
	register := flag.String("register", "", "join the fleet registry at this address (see optassign -registry; empty disables)")
	advertise := flag.String("advertise", "", "measurement address to advertise to the registry (default: the first -addr)")
	cacheOn := flag.Bool("cache", false, "memoize measurements by canonical assignment class, shared by every connection this server handles")
	cacheSize := flag.Int("cache-size", 4096, "canonical classes kept by -cache before LRU eviction")
	cacheDir := flag.String("cache-dir", "", "persist memoized classes to this directory, shared across restarts and processes (implies -cache; delete the directory to invalidate)")
	flag.Parse()

	app, err := apps.ByName(*benchmark, netgen.DefaultProfile())
	if err != nil {
		log.Fatal(err)
	}
	tb, err := netdps.NewTestbed(app, *instances, netdps.WithSeed(*seed))
	if err != nil {
		log.Fatal(err)
	}
	if *cacheDir != "" {
		*cacheOn = true
	}
	// One registry serves both the cache metrics and (when enabled) the
	// /metrics endpoint; nil-safe throughout, so no endpoint costs nothing.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	var runner core.Runner = tb
	var store *cas.Store
	if *cacheOn {
		c := core.NewCache(*cacheSize, core.NewCacheMetrics(reg))
		if *cacheDir != "" {
			store, err = cas.Open(*cacheDir)
			if err != nil {
				log.Fatal(err)
			}
			c.AttachStore(store)
			fmt.Printf("persistent measurement store at %s: %d classes on disk\n", *cacheDir, store.Len())
		}
		runner = core.NewCachedContextRunner(tb, c, tb.Identity())
	}
	var listeners []net.Listener
	for _, a := range strings.Split(*addr, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		l, err := net.Listen("tcp", a)
		if err != nil {
			log.Fatal(err)
		}
		listeners = append(listeners, l)
		fmt.Printf("serving %s (%d tasks on %s) at %s\n",
			app.Name(), tb.TaskCount(), tb.Machine.Topo, l.Addr())
	}
	if len(listeners) == 0 {
		log.Fatal("-addr names no listen address")
	}
	srv := &remote.Server{
		Runner:      runner,
		Topo:        tb.Machine.Topo,
		Tasks:       tb.TaskCount(),
		Name:        app.Name(),
		Model:       proc.Model,
		ReadTimeout: *readTimeout,
	}

	// Observability endpoint: a separate listener so a scraper never
	// competes with the measurement protocol for the main ports.
	var obsSrv *http.Server
	if *metricsAddr != "" {
		srv.Metrics = remote.NewServerMetrics(reg)
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		detail := func() any {
			return map[string]any{
				"benchmark": app.Name(),
				"tasks":     tb.TaskCount(),
				"topology":  tb.Machine.Topo.String(),
			}
		}
		obsSrv = &http.Server{Handler: obs.Mux(reg, nil, detail)}
		go obsSrv.Serve(ml)
		fmt.Printf("observability at http://%s/metrics, /healthz and /debug/pprof/\n", ml.Addr())
	}

	// Fleet membership: announce to the registry, heartbeat for life, and
	// keep re-announcing through registry blips.
	var registrant *remote.Registrant
	var regCancel context.CancelFunc
	if *register != "" {
		addrAd := *advertise
		if addrAd == "" {
			addrAd = listeners[0].Addr().String()
		}
		regAddr := *register
		var err error
		registrant, err = remote.NewRegistrant(remote.RegistrantConfig{
			Dial:     func() (net.Conn, error) { return net.Dial("tcp", regAddr) },
			Hello:    remote.Hello{Topology: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: app.Name(), Model: proc.Model},
			Addr:     addrAd,
			Identity: tb.Identity(),
		})
		if err != nil {
			log.Fatal(err)
		}
		var regCtx context.Context
		regCtx, regCancel = context.WithCancel(context.Background())
		defer regCancel()
		go func() {
			if err := registrant.Run(regCtx); err != nil && regCtx.Err() == nil {
				// A rejection (identity mismatch, unreachable advertise
				// address) is permanent; the server keeps serving -connect
				// clients, but the operator must know the fleet refused it.
				log.Printf("fleet registration ended: %v", err)
			}
		}()
		fmt.Printf("registering with fleet at %s, advertising %s\n", regAddr, addrAd)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		if registrant != nil {
			// Graceful departure first: after the registry acknowledges the
			// drain, every measurement this server completed is committed
			// controller-side and no new one will arrive.
			fmt.Println("draining from fleet registry")
			dctx, cancel := context.WithTimeout(context.Background(), *drain)
			if err := registrant.Drain(dctx); err != nil {
				log.Printf("fleet drain incomplete: %v", err)
			}
			cancel()
			regCancel()
		}
		fmt.Println("shutting down, draining connections")
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("forced shutdown: %v", err)
		}
		if obsSrv != nil {
			obsSrv.Close()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, len(listeners))
	for _, l := range listeners {
		wg.Add(1)
		go func(l net.Listener) {
			defer wg.Done()
			if err := srv.Serve(l); err != nil {
				errs <- err
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	failed := false
	for err := range errs {
		log.Print(err)
		failed = true
	}
	// Close is where the store reports a write that never became durable.
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("closing the measurement store: %v", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
