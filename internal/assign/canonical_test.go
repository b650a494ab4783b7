package assign

import (
	"math/rand"
	"slices"
	"testing"

	"optassign/internal/raceflag"
	"optassign/internal/t2"
)

// canonicalTopos are the topologies the byte-compatibility property runs
// over: the case-study T2, a degenerate single-core machine, a deep
// single-slot machine, a wide shallow one, and two with 128 contexts,
// whose draws reach multi-word task masks, heap scratch and three-digit
// task IDs.
var canonicalTopos = []t2.Topology{
	{Cores: 8, PipesPerCore: 2, ContextsPerPipe: 4},
	{Cores: 1, PipesPerCore: 1, ContextsPerPipe: 8},
	{Cores: 4, PipesPerCore: 3, ContextsPerPipe: 1},
	{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 2},
	{Cores: 16, PipesPerCore: 1, ContextsPerPipe: 2},
	{Cores: 16, PipesPerCore: 2, ContextsPerPipe: 4},
	{Cores: 4, PipesPerCore: 4, ContextsPerPipe: 8},
}

// TestCanonicalKeyMatchesReference pins the rewritten CanonicalKey to the
// original construction byte for byte: the testbed's deterministic
// measurement noise and the memoization cache both key on this string, so
// the encoding may never drift.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, topo := range canonicalTopos {
		v := topo.Contexts()
		for trial := 0; trial < 200; trial++ {
			tasks := 1 + rng.Intn(v)
			a, err := RandomPermutation(rng, topo, tasks)
			if err != nil {
				t.Fatal(err)
			}
			fast, ref := a.CanonicalKey(), a.canonicalKeyRef()
			if fast != ref {
				t.Fatalf("topo %v tasks %v: CanonicalKey %q != reference %q", topo, a.Ctx, fast, ref)
			}
		}
	}
	// Full machine and single task, explicitly.
	topo := t2.UltraSPARCT2()
	full, err := RandomPermutation(rng, topo, topo.Contexts())
	if err != nil {
		t.Fatal(err)
	}
	if full.CanonicalKey() != full.canonicalKeyRef() {
		t.Error("full-machine key differs from reference")
	}
	one := Assignment{Topo: topo, Ctx: []int{13}}
	if one.CanonicalKey() != one.canonicalKeyRef() {
		t.Error("single-task key differs from reference")
	}
}

// TestCanonicalKeyDoesNotMutate verifies the encoder never reorders the
// caller's Ctx slice (the reference sorted freshly allocated copies; the
// encoder must be equally side-effect free).
func TestCanonicalKeyDoesNotMutate(t *testing.T) {
	topo := t2.UltraSPARCT2()
	a := Assignment{Topo: topo, Ctx: []int{9, 1, 8, 0, 33}}
	want := append([]int(nil), a.Ctx...)
	a.CanonicalKey()
	for i, c := range a.Ctx {
		if c != want[i] {
			t.Fatalf("Ctx mutated: %v, want %v", a.Ctx, want)
		}
	}
}

// BenchmarkCanonicalKey compares the mask encoder against the original
// map/sort/fmt construction on a 6-task draw (perfbench's sample-cached
// shape), the case-study workload size (24 tasks) and a full 64-task
// machine.
func BenchmarkCanonicalKey(b *testing.B) {
	topo := t2.UltraSPARCT2()
	for _, tasks := range []int{6, 24, 64} {
		rng := rand.New(rand.NewSource(11))
		a, err := RandomPermutation(rng, topo, tasks)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchLabel("fast", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if a.CanonicalKey() == "" {
					b.Fatal("empty key")
				}
			}
		})
		b.Run(benchLabel("reference", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if a.canonicalKeyRef() == "" {
					b.Fatal("empty key")
				}
			}
		})
	}
}

func benchLabel(kind string, tasks int) string {
	return kind + "-" + string(rune('0'+tasks/10)) + string(rune('0'+tasks%10)) + "tasks"
}

// TestCanonicalKeyAllocatesOnlyItsString: up to a full T2 the key is
// rendered in stack scratch, and the returned string is the one
// allocation; AppendCanonicalKey into a buffer with room makes none.
func TestCanonicalKeyAllocatesOnlyItsString(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	topo := t2.UltraSPARCT2()
	rng := rand.New(rand.NewSource(3))
	for _, tasks := range []int{1, 24, 64} {
		a, err := RandomPermutation(rng, topo, tasks)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { a.CanonicalKey() }); n > 1 {
			t.Errorf("%d tasks: CanonicalKey allocates %v times, want at most 1", tasks, n)
		}
		buf := make([]byte, 0, 512)
		if n := testing.AllocsPerRun(100, func() { buf = a.AppendCanonicalKey(buf[:0]) }); n != 0 {
			t.Errorf("%d tasks: AppendCanonicalKey allocates %v times, want 0", tasks, n)
		}
		if string(buf) != a.CanonicalKey() {
			t.Errorf("%d tasks: AppendCanonicalKey %q, CanonicalKey %q", tasks, buf, a.CanonicalKey())
		}
	}
}

// TestAppendCanonicalKeyAppends keeps dst's prefix and spills keys past
// the stack scratch to the heap unchanged.
func TestAppendCanonicalKeyAppends(t *testing.T) {
	topo := t2.Topology{Cores: 40, PipesPerCore: 2, ContextsPerPipe: 2} // 160 contexts, 80 pipes
	rng := rand.New(rand.NewSource(4))
	for _, tasks := range []int{5, 70, 160} {
		a, err := RandomPermutation(rng, topo, tasks)
		if err != nil {
			t.Fatal(err)
		}
		got := string(a.AppendCanonicalKey([]byte("key:")))
		if want := "key:" + a.canonicalKeyRef(); got != want {
			t.Fatalf("%d tasks: AppendCanonicalKey = %q, want %q", tasks, got, want)
		}
	}
}

// FuzzCanonicalKey is the differential check of AppendCanonicalKey
// against canonicalKeyRef over arbitrary shapes: up to 20 cores of up to
// 4 pipes of up to 8 slots, and up to 256 tasks placed injectively by
// data. The prefix in dst must survive, the bytes after it must be the
// reference's, and Ctx must come back unmodified.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint8(4), uint8(5), []byte{3, 1, 4, 1, 5, 9})
	f.Add(uint8(8), uint8(2), uint8(4), uint8(63), []byte{})
	f.Add(uint8(16), uint8(2), uint8(4), uint8(120), []byte{2, 7, 1, 8})
	f.Add(uint8(4), uint8(4), uint8(8), uint8(255), []byte{0})
	f.Fuzz(func(t *testing.T, cores, pipes, slots, tasks uint8, data []byte) {
		topo := t2.Topology{Cores: 1 + int(cores)%20, PipesPerCore: 1 + int(pipes)%4, ContextsPerPipe: 1 + int(slots)%8}
		free := make([]int, topo.Contexts())
		for i := range free {
			free[i] = i
		}
		ctx := make([]int, 1+int(tasks)%len(free))
		for i := range ctx {
			r := i
			if len(data) > 0 {
				r += 131 * int(data[i%len(data)])
			}
			j := r % len(free)
			ctx[i] = free[j]
			free[j] = free[len(free)-1]
			free = free[:len(free)-1]
		}
		a := Assignment{Topo: topo, Ctx: ctx}
		before := append([]int(nil), ctx...)
		want := "key:" + a.canonicalKeyRef()
		if got := string(a.AppendCanonicalKey([]byte("key:"))); got != want {
			t.Fatalf("topo %v ctx %v: AppendCanonicalKey = %q, want %q", topo, ctx, got, want)
		}
		if !slices.Equal(ctx, before) {
			t.Fatalf("Ctx mutated: %v, want %v", ctx, before)
		}
	})
}
