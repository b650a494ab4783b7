package assign

import (
	"fmt"
	"math/rand"

	"optassign/internal/t2"
)

// Random generates one uniformly distributed valid assignment of tasks
// tasks onto topo using exactly the paper's §3.3.2 Step 1 procedure:
// independently draw a uniform context for every task and discard the whole
// assignment on any collision ("sampling with replacement" over the
// population of valid assignments). The resulting sample is iid uniform
// over valid (injective) assignments.
//
// The expected number of rejections grows steeply as tasks approaches
// topo.Contexts() (the birthday problem); use RandomPermutation for
// near-full workloads — it draws from the identical distribution.
func Random(rng *rand.Rand, topo t2.Topology, tasks int) (Assignment, error) {
	if err := topo.Validate(); err != nil {
		return Assignment{}, err
	}
	v := topo.Contexts()
	if tasks < 1 || tasks > v {
		return Assignment{}, fmt.Errorf("assign: %d tasks do not fit %d contexts", tasks, v)
	}
	ctx := make([]int, tasks)
	used := make([]bool, v)
	for {
		ok := true
		for i := range ctx {
			c := rng.Intn(v)
			if used[c] {
				ok = false
				// Reject at the first collision: the round's remaining
				// draws are never made, so a rejected round consumes
				// only the variates up to its collision. Campaign
				// journals pin this variate stream. Clear and retry.
				break
			}
			used[c] = true
			ctx[i] = c
		}
		if ok {
			return Assignment{Topo: topo, Ctx: ctx}, nil
		}
		for i := range used {
			used[i] = false
		}
	}
}

// RandomPermutation generates one uniformly distributed valid assignment by
// a partial Fisher-Yates shuffle of the context indices. The distribution
// is identical to Random's (uniform over injective task→context maps) but
// generation is O(V) worst case, independent of how full the machine is.
func RandomPermutation(rng *rand.Rand, topo t2.Topology, tasks int) (Assignment, error) {
	if err := topo.Validate(); err != nil {
		return Assignment{}, err
	}
	v := topo.Contexts()
	if tasks < 1 || tasks > v {
		return Assignment{}, fmt.Errorf("assign: %d tasks do not fit %d contexts", tasks, v)
	}
	perm := make([]int, v)
	for i := range perm {
		perm[i] = i
	}
	ctx := make([]int, tasks)
	for i := 0; i < tasks; i++ {
		j := i + rng.Intn(v-i)
		perm[i], perm[j] = perm[j], perm[i]
		ctx[i] = perm[i]
	}
	return Assignment{Topo: topo, Ctx: ctx}, nil
}

// Sample draws n iid uniform random assignments. For workloads using more
// than half the machine's contexts it switches from the paper-faithful
// rejection generator to the equivalent permutation generator to keep
// generation cheap.
func Sample(rng *rand.Rand, topo t2.Topology, tasks, n int) ([]Assignment, error) {
	gen := Random
	if v := topo.Contexts(); v > 0 && tasks*2 > v {
		gen = RandomPermutation
	}
	out := make([]Assignment, 0, n)
	for i := 0; i < n; i++ {
		a, err := gen(rng, topo, tasks)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
