package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"optassign/internal/t2"
)

func TestNaiveProducesValidAssignments(t *testing.T) {
	topo := t2.UltraSPARCT2()
	n := Naive{Rng: rand.New(rand.NewSource(1))}
	if n.Name() == "" {
		t.Error("empty name")
	}
	for i := 0; i < 50; i++ {
		a, err := n.Assign(topo, 24)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Nil RNG falls back to a default source.
	if _, err := (Naive{}).Assign(topo, 3); err != nil {
		t.Fatal(err)
	}
}

func TestLinuxLikeBalances(t *testing.T) {
	topo := t2.UltraSPARCT2()
	l := LinuxLike{}
	if l.Name() == "" {
		t.Error("empty name")
	}
	a, err := l.Assign(topo, 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// 24 tasks on 8 cores: exactly 3 per core; pipes within a core differ
	// by at most one.
	byCore := a.TasksByCore()
	if len(byCore) != 8 {
		t.Fatalf("cores used = %d, want 8", len(byCore))
	}
	for core, ts := range byCore {
		if len(ts) != 3 {
			t.Errorf("core %d has %d tasks, want 3", core, len(ts))
		}
	}
	perPipe := make(map[int]int)
	for _, ctx := range a.Ctx {
		perPipe[topo.PipeOf(ctx)]++
	}
	for pipe, n := range perPipe {
		if n > 2 {
			t.Errorf("pipe %d has %d tasks, want <= 2", pipe, n)
		}
	}
}

func TestLinuxLikeSmallWorkloadSpreads(t *testing.T) {
	topo := t2.UltraSPARCT2()
	a, err := LinuxLike{}.Assign(topo, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 6 tasks across 8 cores: all on distinct cores.
	if got := len(a.TasksByCore()); got != 6 {
		t.Errorf("cores used = %d, want 6", got)
	}
}

func TestLinuxLikeDeterministic(t *testing.T) {
	topo := t2.UltraSPARCT2()
	a, _ := LinuxLike{}.Assign(topo, 17)
	b, _ := LinuxLike{}.Assign(topo, 17)
	for i := range a.Ctx {
		if a.Ctx[i] != b.Ctx[i] {
			t.Fatal("Linux-like not deterministic")
		}
	}
}

func TestLinuxLikeFullMachine(t *testing.T) {
	topo := t2.UltraSPARCT2()
	a, err := LinuxLike{}.Assign(topo, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerErrors(t *testing.T) {
	topo := t2.UltraSPARCT2()
	if _, err := (LinuxLike{}).Assign(topo, 0); err == nil {
		t.Error("0 tasks accepted")
	}
	if _, err := (LinuxLike{}).Assign(topo, 65); err == nil {
		t.Error("overfull accepted")
	}
	if _, err := (LinuxLike{}).Assign(t2.Topology{}, 1); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestLinuxLikeBalancePropertyAllSizes(t *testing.T) {
	topo := t2.UltraSPARCT2()
	f := func(raw uint8) bool {
		tasks := 1 + int(raw)%64
		a, err := LinuxLike{}.Assign(topo, tasks)
		if err != nil || a.Validate() != nil {
			return false
		}
		// Core loads differ by at most one.
		byCore := a.TasksByCore()
		minL, maxL := 64, 0
		for c := 0; c < topo.Cores; c++ {
			l := len(byCore[c])
			if l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
		}
		return maxL-minL <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}
