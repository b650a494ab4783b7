// Command campaignd is campaign-as-a-service: a multi-tenant coordinator
// that runs many statistical task-assignment campaigns concurrently, each
// journaled and checkpointed under one data directory, and serves their
// lifecycle and results over HTTP.
//
// Usage:
//
//	campaignd -data DIR [-addr :9160] [-max-concurrent 4]
//	          [-registry :9140] [-min-servers 1] [-buffer 64]
//
// The HTTP API:
//
//	POST /campaigns                submit a campaign spec (JSON)
//	GET  /campaigns                list campaigns (?state=, ?benchmark=)
//	GET  /campaigns/{id}           live status: samples, best, upb ±, gap
//	POST /campaigns/{id}/pause     stop at the next measurement boundary
//	POST /campaigns/{id}/resume    continue a paused or failed campaign
//	POST /campaigns/{id}/cancel    terminate (journal kept, row promoted)
//	GET  /query?q=EXPR             predicate query over finished campaigns
//	GET  /metrics, /healthz        Prometheus metrics and health
//	GET  /debug/pprof/             runtime profiles (CPU, heap, goroutines)
//
// Campaigns measure on per-campaign simulated testbeds by default;
// -registry hosts a fleet membership registry instead, fanning every
// campaign's draws out over the measurement servers (cmd/measured
// -register) that have joined.
//
// Durability: every campaign has a write-ahead journal and an estimator
// checkpoint under DIR. Kill the daemon at any instant and restart it:
// every in-flight campaign resumes from its journal and converges to the
// same result — the same journal bytes — as an uninterrupted run.
// Finished campaigns are promoted into an indexed table store under DIR,
// so /query answers over thousands of campaigns without reopening any
// journal. SIGTERM drains gracefully: campaigns stop at a measurement
// boundary and auto-resume on the next start.
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
	"syscall"

	"optassign/internal/coord"
	"optassign/internal/obs"
	"optassign/internal/remote"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaignd: ")

	addr := flag.String("addr", ":9160", "HTTP API listen address")
	data := flag.String("data", "", "data directory: journals, checkpoints, spec files and the result table (required)")
	maxConcurrent := flag.Int("max-concurrent", 4, "campaigns running simultaneously; the rest queue")
	registry := flag.String("registry", "", "host a fleet registry on this address and measure on servers that register with it (default: per-campaign simulated testbeds)")
	minServers := flag.Int("min-servers", 1, "with -registry, wait for this many registered servers before serving")
	buffer := flag.Int("buffer", 64, "result-table commit buffer size")
	flag.Parse()

	if *data == "" {
		log.Fatal("-data is required")
	}

	reg := obs.NewRegistry()
	source := coord.Source(coord.LocalSource{})
	if *registry != "" {
		pool := remote.NewPool(remote.PoolConfig{
			Client:  remote.ClientConfig{Metrics: remote.NewClientMetrics(reg)},
			Metrics: remote.NewPoolMetrics(reg),
		})
		defer pool.Close()
		fleet := remote.NewRegistry(pool, remote.RegistryConfig{
			Metrics: remote.NewMembershipMetrics(reg),
		})
		rl, err := net.Listen("tcp", *registry)
		if err != nil {
			log.Fatal(err)
		}
		go fleet.Serve(rl)
		defer fleet.Close()
		fmt.Printf("fleet registry at %s; waiting for %d server(s) (measured -register %s)\n",
			rl.Addr(), *minServers, rl.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = pool.WaitReady(ctx, *minServers)
		stop()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fleet ready: %d server(s), %d tasks on %s\n",
			pool.Size(), pool.Tasks(), pool.Topology())
		source = coord.PoolSource{Pool: pool}
	}

	c, err := coord.Open(coord.Config{
		DataDir:       *data,
		MaxConcurrent: *maxConcurrent,
		Source:        source,
		TableBuf:      *buffer,
		Metrics:       coord.NewMetrics(reg),
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		c.Close()
		log.Fatal(err)
	}
	srv := &http.Server{Handler: c.Handler(reg)}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	fmt.Printf("campaign service at http://%s (data in %s)\n", l.Addr(), *data)

	// SIGTERM / Ctrl-C: stop accepting, stop campaigns at a measurement
	// boundary, release every lock. Whatever was running resumes on the
	// next start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	log.Printf("shutting down: draining campaigns")
	srv.Close()
	if err := c.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained; all journals released")
}
