package assign

import (
	"math/rand"
	"slices"
	"testing"

	"optassign/internal/t2"
)

// randomRef is the rejection sampler as it was written before the
// bitset: a []bool of used contexts and one rng.Intn per draw. It is the
// executable specification of Random's variate contract.
func randomRef(rng *rand.Rand, topo t2.Topology, tasks int) Assignment {
	v := topo.Contexts()
	ctx := make([]int, tasks)
	used := make([]bool, v)
	for {
		ok := true
		for i := range ctx {
			c := rng.Intn(v)
			if used[c] {
				ok = false
				break
			}
			used[c] = true
			ctx[i] = c
		}
		if ok {
			return Assignment{Topo: topo, Ctx: ctx}
		}
		for i := range used {
			used[i] = false
		}
	}
}

// randomTopos have 16, 24, 64, 128 and 320 contexts: a power of two, one
// that is not (Intn's rejection branch), the T2, one wider than a word of
// the bitset, and one wider than its stack scratch.
var randomTopos = []t2.Topology{
	{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 4},
	{Cores: 3, PipesPerCore: 2, ContextsPerPipe: 4},
	t2.UltraSPARCT2(),
	{Cores: 16, PipesPerCore: 2, ContextsPerPipe: 4},
	{Cores: 40, PipesPerCore: 2, ContextsPerPipe: 4},
}

// TestRandomMatchesIntnLoop pins Random to randomRef: the same
// assignments from the same seed, and the generator left at the same
// position, over seeds, topologies and task counts up to the full
// machine's birthday range.
func TestRandomMatchesIntnLoop(t *testing.T) {
	for _, topo := range randomTopos {
		v := topo.Contexts()
		for _, tasks := range []int{1, 2, v / 8, v / 4, v / 3} {
			// Past ~42 tasks a collision-free round is too rare to wait for.
			if tasks < 1 || tasks > 42 {
				continue
			}
			for seed := int64(1); seed <= 20; seed++ {
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for draw := 0; draw < 10; draw++ {
					a, err := Random(got, topo, tasks)
					if err != nil {
						t.Fatal(err)
					}
					ref := randomRef(want, topo, tasks)
					if !slices.Equal(a.Ctx, ref.Ctx) || a.Topo != ref.Topo {
						t.Fatalf("%d contexts, %d tasks, seed %d, draw %d: Random %v, reference %v",
							v, tasks, seed, draw, a.Ctx, ref.Ctx)
					}
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("%d contexts, %d tasks, seed %d: generator positions differ (next variate %d, want %d)",
						v, tasks, seed, g, w)
				}
			}
		}
	}
}

// int63Source hides a generator's Uint64, so rand.Rand sees a plain
// rand.Source rather than a rand.Source64.
type int63Source struct{ src rand.Source }

func (s int63Source) Int63() int64    { return s.src.Int63() }
func (s int63Source) Seed(seed int64) { s.src.Seed(seed) }

// TestRandomMatchesIntnLoopOnAnySource: the variate contract does not
// depend on the source offering Uint64.
func TestRandomMatchesIntnLoopOnAnySource(t *testing.T) {
	topo := randomTopos[1] // 24 contexts: Intn's rejection branch
	got := rand.New(int63Source{rand.NewSource(3)})
	want := rand.New(int63Source{rand.NewSource(3)})
	for draw := 0; draw < 50; draw++ {
		a, err := Random(got, topo, 5)
		if err != nil {
			t.Fatal(err)
		}
		if ref := randomRef(want, topo, 5); !slices.Equal(a.Ctx, ref.Ctx) {
			t.Fatalf("draw %d: Random %v, reference %v", draw, a.Ctx, ref.Ctx)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("generator positions differ (next variate %d, want %d)", g, w)
	}
}

// TestRandomRefusesWideTopology checks the 31-bit variate bound without
// drawing: a topology of 2³¹ contexts is refused before any allocation.
func TestRandomRefusesWideTopology(t *testing.T) {
	topo := t2.Topology{Cores: 1 << 16, PipesPerCore: 1 << 15, ContextsPerPipe: 1}
	if _, err := Random(rand.New(rand.NewSource(1)), topo, 1); err == nil {
		t.Fatal("Random accepted 2^31 contexts")
	}
}

// BenchmarkRandom compares Random with the []bool/Intn loop it replaced
// at the case-study load (24 tasks on a T2).
func BenchmarkRandom(b *testing.B) {
	topo := t2.UltraSPARCT2()
	b.Run("bitset", func(b *testing.B) {
		rng := rand.New(rand.NewSource(4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Random(rng, topo, 24); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		rng := rand.New(rand.NewSource(4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			randomRef(rng, topo, 24)
		}
	})
}
