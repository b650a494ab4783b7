package t2

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestUltraSPARCT2(t *testing.T) {
	topo := UltraSPARCT2()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Contexts() != 64 {
		t.Errorf("Contexts = %d, want 64", topo.Contexts())
	}
	if topo.Pipes() != 16 {
		t.Errorf("Pipes = %d, want 16", topo.Pipes())
	}
}

func TestValidate(t *testing.T) {
	bad := []Topology{{}, {Cores: 1}, {Cores: 1, PipesPerCore: 1}, {Cores: -1, PipesPerCore: 2, ContextsPerPipe: 4}}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid topology", topo)
		}
	}
}

func TestContextDecomposition(t *testing.T) {
	topo := UltraSPARCT2()
	// Context 0 is core0.pipe0; context 63 is core7.pipe1 (global pipe 15).
	if topo.CoreOf(0) != 0 || topo.PipeOf(0) != 0 {
		t.Error("context 0 decomposition wrong")
	}
	if topo.CoreOf(63) != 7 || topo.PipeOf(63) != 15 {
		t.Errorf("context 63: core=%d pipe=%d", topo.CoreOf(63), topo.PipeOf(63))
	}
	// Context 9: core 9/(2*4)=1, pipe 9/4=2.
	if topo.CoreOf(9) != 1 || topo.PipeOf(9) != 2 {
		t.Errorf("context 9: core=%d pipe=%d", topo.CoreOf(9), topo.PipeOf(9))
	}
}

func TestContextRoundTripProperty(t *testing.T) {
	topo := UltraSPARCT2()
	f := func(raw uint8) bool {
		ctx := int(raw) % topo.Contexts()
		core := topo.CoreOf(ctx)
		pipeInCore := topo.PipeOf(ctx) % topo.PipesPerCore
		slot := ctx % topo.ContextsPerPipe
		return topo.Context(core, pipeInCore, slot) == ctx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShareLevel(t *testing.T) {
	topo := UltraSPARCT2()
	cases := []struct {
		a, b int
		want SharingLevel
	}{
		{0, 0, IntraPipe},
		{0, 3, IntraPipe},  // same pipe, different slots
		{0, 4, IntraCore},  // same core, different pipes
		{3, 7, IntraCore},  // slots 3 of pipe0 and pipe1 in core0
		{0, 8, InterCore},  // core0 vs core1
		{7, 63, InterCore}, // core0 vs core7
	}
	for _, c := range cases {
		if got := topo.ShareLevel(c.a, c.b); got != c.want {
			t.Errorf("ShareLevel(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestShareLevelSymmetricProperty(t *testing.T) {
	topo := UltraSPARCT2()
	f := func(ra, rb uint8) bool {
		a, b := int(ra)%64, int(rb)%64
		return topo.ShareLevel(a, b) == topo.ShareLevel(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNamesAndStrings(t *testing.T) {
	topo := UltraSPARCT2()
	if s := topo.String(); !strings.Contains(s, "64") {
		t.Errorf("String() = %q", s)
	}
	for _, l := range []SharingLevel{IntraPipe, IntraCore, InterCore, SharingLevel(9)} {
		if l.String() == "" {
			t.Error("empty sharing level name")
		}
	}
}
