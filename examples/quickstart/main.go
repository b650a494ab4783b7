// Quickstart: estimate the optimal task assignment performance of a
// workload in ~40 lines.
//
// We run 8 instances of the IPFwd-L1 benchmark (24 threads) on the
// simulated UltraSPARC T2, measure 1000 random task assignments, and use
// the Extreme Value Theory estimator to bound the performance of the best
// possible assignment — without ever enumerating the ~10^26 possibilities.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"optassign/internal/apps"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/netdps"
)

func main() {
	log.SetFlags(0)

	// A testbed is anything that can measure an assignment; here it is the
	// simulated machine, on real hardware it would pin threads and count.
	testbed, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		log.Fatal(err)
	}

	// §3.1: how many random assignments do we need so that, with 99%
	// probability, at least one is among the best-performing 1%?
	n, err := core.RequiredSampleSize(1, 0.99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capturing a top-1%% assignment with 99%% probability needs %d samples; we run 5000\n", n)

	// Step 1: measure 5000 iid random assignments.
	rng := rand.New(rand.NewSource(42))
	results, _, err := core.CollectSampleContext(context.Background(), rng, testbed.Machine.Topo, testbed.TaskCount(), 5000, testbed)
	if err != nil {
		log.Fatal(err)
	}

	// Steps 2-4: POT threshold, GPD fit, upper performance bound.
	est, err := core.EstimateOptimal(core.Perfs(results), evt.POTOptions{})
	if err != nil {
		log.Fatal(err)
	}

	best := results[core.Best(results)]
	fmt.Printf("best of 5000 random assignments: %.6g PPS\n", best.Perf)
	fmt.Printf("  %s\n", best.Assignment)
	fmt.Printf("estimated optimal performance:   %.6g PPS (0.95 CI [%.6g, %.6g])\n",
		est.Optimal, est.Lo, est.Hi)
	fmt.Printf("room left for improvement:       %.2f%% (conservative: %.2f%%)\n",
		est.HeadroomPct, est.HeadroomHiPct)
}
