package assign

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"optassign/internal/t2"
)

func topoT2() t2.Topology { return t2.UltraSPARCT2() }

func TestValidate(t *testing.T) {
	topo := topoT2()
	good := Assignment{Topo: topo, Ctx: []int{0, 5, 63}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	cases := []struct {
		a    Assignment
		want error
	}{
		{Assignment{Topo: topo, Ctx: nil}, ErrNoTasks},
		{Assignment{Topo: topo, Ctx: []int{64}}, ErrContextOutOfRange},
		{Assignment{Topo: topo, Ctx: []int{-1}}, ErrContextOutOfRange},
		{Assignment{Topo: topo, Ctx: []int{3, 3}}, ErrContextCollision},
	}
	for _, c := range cases {
		if err := c.a.Validate(); !errors.Is(err, c.want) {
			t.Errorf("Validate(%v) = %v, want %v", c.a.Ctx, err, c.want)
		}
	}
	if err := (Assignment{Ctx: []int{0}}).Validate(); err == nil {
		t.Error("zero topology should be invalid")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Assignment{Topo: topoT2(), Ctx: []int{1, 2}}
	b := a.Clone()
	b.Ctx[0] = 9
	if a.Ctx[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestGrouping(t *testing.T) {
	topo := topoT2()
	// Tasks 0,1 in pipe 0; task 2 in pipe 1 (same core 0); task 3 in core 1.
	a := Assignment{Topo: topo, Ctx: []int{0, 1, 4, 8}}
	byCore := a.TasksByCore()
	if len(byCore[0]) != 3 || len(byCore[1]) != 1 {
		t.Errorf("TasksByCore = %v", byCore)
	}
}

func TestCanonicalKeyInvariantUnderSymmetry(t *testing.T) {
	topo := topoT2()
	base := Assignment{Topo: topo, Ctx: []int{0, 1, 4, 8}}

	// Swap slot labels within pipe 0 (contexts 0<->1).
	slotSwap := Assignment{Topo: topo, Ctx: []int{1, 0, 4, 8}}
	// Swap the two pipes of core 0 (ctx c -> c±4) and of core 1.
	pipeSwap := Assignment{Topo: topo, Ctx: []int{4, 5, 0, 12}}
	// Swap core 0 and core 2 (ctx c -> c±16).
	coreSwap := Assignment{Topo: topo, Ctx: []int{16, 17, 20, 8}}

	want := base.CanonicalKey()
	for i, a := range []Assignment{slotSwap, pipeSwap, coreSwap} {
		if got := a.CanonicalKey(); got != want {
			t.Errorf("symmetry %d: key %q != base %q", i, got, want)
		}
	}
	// A structurally different assignment gets a different key: task 3
	// joins core 0 instead of its own core.
	diff := Assignment{Topo: topo, Ctx: []int{0, 1, 4, 5}}
	if diff.CanonicalKey() == want {
		t.Error("different structure produced the same canonical key")
	}
}

func TestCanonicalKeyRandomSymmetryProperty(t *testing.T) {
	topo := topoT2()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := RandomPermutation(rng, topo, 2+rng.Intn(20))
		if err != nil {
			return false
		}
		// Apply a random symmetry: permute cores, pipes in each core, slots.
		corePerm := rng.Perm(topo.Cores)
		pipePerms := make([][]int, topo.Cores)
		slotPerms := make([][]int, topo.Pipes())
		for i := range pipePerms {
			pipePerms[i] = rng.Perm(topo.PipesPerCore)
		}
		for i := range slotPerms {
			slotPerms[i] = rng.Perm(topo.ContextsPerPipe)
		}
		b := a.Clone()
		for i, ctx := range a.Ctx {
			core := topo.CoreOf(ctx)
			pipe := topo.PipeOf(ctx) % topo.PipesPerCore
			slot := ctx % topo.ContextsPerPipe
			nc := corePerm[core]
			np := pipePerms[core][pipe]
			ns := slotPerms[topo.PipeOf(ctx)][slot]
			b.Ctx[i] = topo.Context(nc, np, ns)
		}
		return a.CanonicalKey() == b.CanonicalKey()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	topo := topoT2()
	a := Assignment{Topo: topo, Ctx: []int{0, 1, 4, 8}}
	s := a.String()
	if !strings.Contains(s, "t0") || !strings.Contains(s, "{") {
		t.Errorf("String() = %q", s)
	}
}

func TestCountAnchors(t *testing.T) {
	topo := topoT2()
	// The paper's §2 worked example: 3 tasks -> 11 assignments.
	c3, err := Count(topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Cmp(big.NewInt(11)) != 0 {
		t.Errorf("Count(3) = %v, want 11", c3)
	}
	// The paper's Fig. 1/3 population: 6 tasks -> "around 1500" (exactly 1526).
	c6, err := Count(topo, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c6.Cmp(big.NewInt(1526)) != 0 {
		t.Errorf("Count(6) = %v, want 1526", c6)
	}
	// Degenerate cases.
	c0, _ := Count(topo, 0)
	if c0.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("Count(0) = %v", c0)
	}
	c65, _ := Count(topo, 65)
	if c65.Sign() != 0 {
		t.Errorf("Count(65) = %v, want 0", c65)
	}
	if _, err := Count(topo, -1); err == nil {
		t.Error("negative task count should error")
	}
	if _, err := Count(t2.Topology{}, 1); err == nil {
		t.Error("invalid topology should error")
	}
}

func TestCountFullMachine(t *testing.T) {
	topo := topoT2()
	// 60 tasks: Table 1's last row. The population must be astronomically
	// large (the paper quotes ~10^51 years at one second per assignment,
	// i.e. a count of several times 10^58).
	c60, err := Count(topo, 60)
	if err != nil {
		t.Fatal(err)
	}
	digits := len(c60.Text(10))
	if digits < 50 || digits > 70 {
		t.Errorf("Count(60) has %d digits (%s), expected ~59", digits, c60.Text(10))
	}
	// Monotone growth in workload size until saturation effects near V.
	prev := big.NewInt(0)
	for n := 1; n <= 24; n++ {
		c, err := Count(topo, n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cmp(prev) <= 0 {
			t.Fatalf("Count(%d) = %v not greater than Count(%d) = %v", n, c, n-1, prev)
		}
		prev = c
	}
}

func TestCountMatchesEnumerate(t *testing.T) {
	topo := topoT2()
	for n := 1; n <= 6; n++ {
		want, err := Count(topo, n)
		if err != nil {
			t.Fatal(err)
		}
		all, err := Enumerate(topo, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(all)) != want.Int64() {
			t.Errorf("n=%d: Enumerate found %d, Count says %v", n, len(all), want)
		}
		// All enumerated assignments are valid and canonically distinct.
		keys := make(map[string]bool, len(all))
		for _, a := range all {
			if err := a.Validate(); err != nil {
				t.Fatalf("n=%d: invalid enumerated assignment %v: %v", n, a.Ctx, err)
			}
			k := a.CanonicalKey()
			if keys[k] {
				t.Fatalf("n=%d: duplicate canonical class %q", n, k)
			}
			keys[k] = true
		}
	}
}

func TestCountSmallTopology(t *testing.T) {
	// 1 core, 1 pipe, K contexts: any k<=K tasks have exactly one
	// assignment.
	topo := t2.Topology{Cores: 1, PipesPerCore: 1, ContextsPerPipe: 4}
	for n := 1; n <= 4; n++ {
		c, err := Count(topo, n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cmp(big.NewInt(1)) != 0 {
			t.Errorf("Count(%d) on single pipe = %v, want 1", n, c)
		}
	}
	// 2 cores × 1 pipe × 1 ctx, 2 tasks: both tasks must take separate
	// cores -> 1 assignment.
	topo = t2.Topology{Cores: 2, PipesPerCore: 1, ContextsPerPipe: 1}
	c, _ := Count(topo, 2)
	if c.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("Count = %v, want 1", c)
	}
}

func TestEnumerateLimit(t *testing.T) {
	topo := topoT2()
	if _, err := Enumerate(topo, 6, 100); !errors.Is(err, ErrTooManyAssignments) {
		t.Errorf("err = %v, want ErrTooManyAssignments", err)
	}
	if _, err := Enumerate(topo, 0, 0); err == nil {
		t.Error("0 tasks should error")
	}
	if _, err := Enumerate(topo, 65, 0); err == nil {
		t.Error("overfull should error")
	}
}

func TestRawPlacements(t *testing.T) {
	topo := topoT2()
	r, err := RawPlacements(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cmp(big.NewInt(64*63)) != 0 {
		t.Errorf("RawPlacements(2) = %v, want %d", r, 64*63)
	}
	r0, _ := RawPlacements(topo, 0)
	if r0.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("RawPlacements(0) = %v", r0)
	}
	rOver, _ := RawPlacements(topo, 100)
	if rOver.Sign() != 0 {
		t.Errorf("RawPlacements(100) = %v", rOver)
	}
	if _, err := RawPlacements(t2.Topology{}, 1); err == nil {
		t.Error("invalid topology should error")
	}
}

func TestRandomGeneratorsProduceValidAssignments(t *testing.T) {
	topo := topoT2()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, err := Random(rng, topo, 24)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Random produced invalid assignment: %v", err)
		}
		b, err := RandomPermutation(rng, topo, 60)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("RandomPermutation produced invalid assignment: %v", err)
		}
	}
	if _, err := Random(rng, topo, 0); err == nil {
		t.Error("0 tasks should error")
	}
	if _, err := Random(rng, topo, 65); err == nil {
		t.Error("overfull should error")
	}
	if _, err := RandomPermutation(rng, topo, 65); err == nil {
		t.Error("overfull should error")
	}
	if _, err := Random(rng, t2.Topology{}, 1); err == nil {
		t.Error("invalid topology should error")
	}
	if _, err := RandomPermutation(rng, t2.Topology{}, 1); err == nil {
		t.Error("invalid topology should error")
	}
}

// TestRandomGeneratorsAgreeInDistribution checks that the paper-faithful
// rejection sampler and the Fisher-Yates sampler draw from the same
// distribution by comparing per-context usage frequencies.
func TestRandomGeneratorsAgreeInDistribution(t *testing.T) {
	topo := t2.Topology{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 2} // V=8
	const tasks, trials = 3, 40000
	countA := make([]int, topo.Contexts())
	countB := make([]int, topo.Contexts())
	rngA := rand.New(rand.NewSource(2))
	rngB := rand.New(rand.NewSource(3))
	for i := 0; i < trials; i++ {
		a, err := Random(rngA, topo, tasks)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range a.Ctx {
			countA[c]++
		}
		b, err := RandomPermutation(rngB, topo, tasks)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range b.Ctx {
			countB[c]++
		}
	}
	expected := float64(trials*tasks) / float64(topo.Contexts())
	for c := range countA {
		for _, got := range []int{countA[c], countB[c]} {
			if math.Abs(float64(got)-expected) > 5*math.Sqrt(expected) {
				t.Errorf("context %d used %d times, expected ≈ %.0f", c, got, expected)
			}
		}
	}
}

func TestSample(t *testing.T) {
	topo := topoT2()
	rng := rand.New(rand.NewSource(4))
	s, err := Sample(rng, topo, 24, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 50 {
		t.Fatalf("sample size %d", len(s))
	}
	for _, a := range s {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Near-full machine exercises the permutation fast path.
	s, err = Sample(rng, topo, 60, 10)
	if err != nil || len(s) != 10 {
		t.Fatalf("near-full sample: %v", err)
	}
	if _, err := Sample(rng, topo, 0, 5); err == nil {
		t.Error("0 tasks should error")
	}
}

// TestValidateMessages pins Validate's exact errors: which check fires
// first, and both task indices of a collision, on the stack-table path
// (a T2's 64 contexts) and on the heap path (128 contexts).
func TestValidateMessages(t *testing.T) {
	topo := topoT2()
	wide := t2.Topology{Cores: 16, PipesPerCore: 2, ContextsPerPipe: 4}
	cases := []struct {
		a    Assignment
		want string
	}{
		{Assignment{Topo: topo, Ctx: []int{5, 64}}, "assign: context out of range: task 1 -> context 64 (V=64)"},
		{Assignment{Topo: topo, Ctx: []int{-2}}, "assign: context out of range: task 0 -> context -2 (V=64)"},
		{Assignment{Topo: topo, Ctx: []int{7, 3, 9, 3}}, "assign: two tasks mapped to the same context: tasks 1 and 3 -> context 3"},
		{Assignment{Topo: topo, Ctx: []int{3, 3, 99}}, "assign: two tasks mapped to the same context: tasks 0 and 1 -> context 3"},
		{Assignment{Topo: topo, Ctx: []int{3, 99, 3}}, "assign: context out of range: task 1 -> context 99 (V=64)"},
		{Assignment{Topo: wide, Ctx: []int{100, 5, 127, 100}}, "assign: two tasks mapped to the same context: tasks 0 and 3 -> context 100"},
		{Assignment{Topo: wide, Ctx: []int{128}}, "assign: context out of range: task 0 -> context 128 (V=128)"},
		{Assignment{Topo: topo}, "assign: assignment has no tasks"},
		{Assignment{Topo: t2.Topology{Cores: 0, PipesPerCore: 2, ContextsPerPipe: 4}, Ctx: []int{0}},
			"t2: invalid topology 0 cores × 2 pipes × 4 contexts (0 virtual CPUs): all dimensions must be >= 1"},
	}
	for _, c := range cases {
		err := c.a.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate(%+v) = %v, want %q", c.a, err, c.want)
		}
	}
	if err := (Assignment{Topo: wide, Ctx: []int{127, 0, 64}}).Validate(); err != nil {
		t.Errorf("valid 128-context assignment rejected: %v", err)
	}
}

// validateDraw is a valid 24-task T2 assignment.
func validateDraw(t testing.TB) Assignment {
	a, err := Random(rand.New(rand.NewSource(1)), topoT2(), 24)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestValidateAllocates nothing on a T2: it runs on every measurement.
func TestValidateAllocates(t *testing.T) {
	a := validateDraw(t)
	if n := testing.AllocsPerRun(100, func() {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Validate allocates %v times per call, want 0", n)
	}
}

func BenchmarkValidate(b *testing.B) {
	a := validateDraw(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
