package assign

import (
	"fmt"
	"math"
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
// The variate contract, which campaign journals pin: each context is the
// value rng.Intn(topo.Contexts()) would return, computed as Intn computes
// it from one rng.Int63() per 31-bit variate (Int31n over Int31, the
// Int63's top 31 bits), and a rejected round stops at its first
// collision. Random therefore reads the same variates, as many of them,
// as a loop of rng.Intn calls, and leaves rng at the same position, on
// every rand.Source. Topologies of 2³¹ contexts or more are refused.
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
	if v > math.MaxInt32 {
		return Assignment{}, fmt.Errorf("assign: %d contexts exceed the sampler's 31-bit variates", v)
	}
	// Int31n's arithmetic on one variate: a power-of-two n masks it, any
	// other n rejects variates above limit and reduces the rest modulo n.
	n := uint32(v)
	pow2 := n&(n-1) == 0
	limit := uint32(math.MaxInt32 - (1<<31)%n)
	variate := func() uint32 { return uint32(rng.Int63() >> 32) }

	ctx := make([]int, tasks)
	var small [4]uint64 // 256 contexts on the stack
	used := scratch(small[:], (v+63)/64)
	for {
		clear(used)
		i := 0
		for ; i < tasks; i++ {
			x := variate()
			if pow2 {
				x &= n - 1
			} else {
				for x > limit {
					x = variate()
				}
				x %= n
			}
			word, bit := x>>6, uint64(1)<<(x&63)
			if used[word]&bit != 0 {
				// Reject at the first collision: the round's remaining
				// draws are never made, so a rejected round consumes
				// only the variates up to its collision. Retry.
				break
			}
			used[word] |= bit
			ctx[i] = int(x)
		}
		if i == tasks {
			return Assignment{Topo: topo, Ctx: ctx}, nil
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
