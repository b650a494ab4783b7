package proc_test

import (
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/proc"
)

// BenchmarkSolve measures one fixed-point solve of IPFwd-L1 × 8 (24
// tasks, 16 links) on the T2 model, cycling through pre-drawn random
// placements. iters/op is the mean number of fixed-point iterations.
func BenchmarkSolve(b *testing.B) {
	m := proc.UltraSPARCT2Machine()
	demands := apps.NewIPFwd(apps.IPFwdL1).MeanDemands()
	var tasks []proc.Task
	var links []proc.Link
	for g := 0; g < 8; g++ {
		for _, d := range demands {
			tasks = append(tasks, proc.Task{Demand: d, Group: g})
		}
		links = append(links,
			proc.Link{A: 3 * g, B: 3*g + 1, Volume: apps.CommVolume},
			proc.Link{A: 3*g + 1, B: 3*g + 2, Volume: apps.CommVolume})
	}
	rng := rand.New(rand.NewSource(1))
	placements := make([][]int, 256)
	for i := range placements {
		a, err := assign.Random(rng, m.Topo, len(tasks))
		if err != nil {
			b.Fatal(err)
		}
		placements[i] = a.Ctx
	}
	b.ReportAllocs()
	b.ResetTimer()
	iterations := 0
	for i := 0; i < b.N; i++ {
		res, err := m.Solve(tasks, links, placements[i%len(placements)])
		if err != nil {
			b.Fatal(err)
		}
		iterations += res.Iterations
	}
	b.ReportMetric(float64(iterations)/float64(b.N), "iters/op")
}
