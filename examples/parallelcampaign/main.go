// Parallelcampaign fans one measurement campaign out across a pool of
// measurement servers — the many-testbeds generalization of the paper's
// two-machine setup (§4) — and proves on the spot that parallelism is
// free: the parallel campaign measures the exact assignment sequence a
// serial campaign would, so its results (and its write-ahead journal)
// are identical, for any worker count.
//
// The §3.1 random sample is embarrassingly parallel — the n assignments
// are drawn up front from the seeded RNG, so they can execute anywhere in
// any order as long as results are reassembled in draw order. At the
// paper's ~1.5 s of testbed time per measurement (§5.4), a 3000-sample
// campaign costs 75 minutes on one testbed; N pooled testbeds divide the
// wall clock by ~N without touching the statistics.
//
// Run with:
//
//	go run ./examples/parallelcampaign [-servers 3] [-samples 600]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"time"

	"optassign/internal/apps"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/remote"
)

// measurementSeconds is the paper's per-assignment testbed time: ~1.5 s to
// process three million packets (§4.4).
const measurementSeconds = 1.5

func main() {
	log.SetFlags(0)
	servers := flag.Int("servers", 3, "measurement servers to start")
	samples := flag.Int("samples", 600, "campaign size (assignment draws)")
	flag.Parse()

	// --- The measurement machines: N testbeds behind TCP servers. -------
	// All must serve the same workload; DialPool verifies that.
	var addrs []string
	for i := 0; i < *servers; i++ {
		tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
		if err != nil {
			log.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &remote.Server{Runner: tb, Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: tb.App.Name()}
		go srv.Serve(l)
		addrs = append(addrs, l.Addr().String())
	}

	// --- The controller: one pool over every server. --------------------
	pool, err := remote.DialPool(addrs, remote.PoolConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	fmt.Printf("pooled %d measurement servers: %s\n", pool.Size(), strings.Join(addrs, ", "))
	fmt.Printf("common workload: %d tasks on %s\n\n", pool.Tasks(), pool.Topology())

	// Work-stealing fan-out: one worker per server keeps every testbed
	// busy; a fast testbed simply absorbs more draws.
	workers, err := core.NewReplicatedPool(pool, pool.Size())
	if err != nil {
		log.Fatal(err)
	}

	topo, tasks := pool.Topology(), pool.Tasks()
	const seed = 7

	start := time.Now()
	parallel, _, err := core.CollectSampleParallel(context.Background(),
		rand.New(rand.NewSource(seed)), topo, tasks, *samples, workers, nil)
	if err != nil {
		log.Fatal(err)
	}
	parallelTime := time.Since(start)
	fmt.Printf("parallel campaign: %d measurements across %d servers in %v\n",
		len(parallel), pool.Size(), parallelTime.Round(time.Millisecond))

	// --- The equivalence proof: re-run serially, compare. ----------------
	// One local testbed stands in for the serial baseline; remote and
	// local measurements agree because the testbed is deterministic.
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	serial, _, err := core.CollectSampleContext(context.Background(),
		rand.New(rand.NewSource(seed)), topo, tasks, *samples, tb)
	if err != nil {
		log.Fatal(err)
	}
	serialTime := time.Since(start)
	if !reflect.DeepEqual(parallel, serial) {
		log.Fatal("parallel and serial campaigns differ — this must never happen")
	}
	fmt.Printf("serial re-run:     %d measurements on 1 testbed in %v\n", len(serial), serialTime.Round(time.Millisecond))
	fmt.Println("every assignment, measurement and ordering identical: parallelism changed nothing but the wall clock")

	// --- §5.4 testbed-time arithmetic. -----------------------------------
	oneTestbed := time.Duration(float64(*samples) * measurementSeconds * float64(time.Second))
	pooled := oneTestbed / time.Duration(pool.Size())
	fmt.Printf("\non real hardware (%.1f s per measurement, §5.4):\n", measurementSeconds)
	fmt.Printf("  %d samples on 1 testbed:  %v\n", *samples, oneTestbed.Round(time.Minute))
	fmt.Printf("  %d samples on %d testbeds: %v\n", *samples, pool.Size(), pooled.Round(time.Minute))
	fmt.Printf("the journal written under -workers N resumes identically under any other N\n")
}
