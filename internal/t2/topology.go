// Package t2 models the hardware topology of multithreaded processors with
// several levels of resource sharing, parameterized as cores × hardware
// pipelines × hardware contexts (strands). The UltraSPARC T2 of the paper's
// case study is the 8 × 2 × 4 instance: resources are shared at three
// levels — IntraPipe (instruction fetch/integer units), IntraCore (L1
// caches, TLBs, LSU, FPU, crypto unit) and InterCore (L2, crossbar, memory
// controllers) — so where a task lands determines what it competes for.
package t2

import (
	"fmt"
)

// SharingLevel identifies one of the levels at which hardware resources are
// shared between concurrently running tasks (cf. Fig. 8 of the paper).
type SharingLevel int

const (
	// IntraPipe resources (IFU, IEU) are shared by tasks in the same
	// hardware pipeline.
	IntraPipe SharingLevel = iota
	// IntraCore resources (L1I, L1D, TLBs, LSU, FPU, crypto) are shared by
	// tasks on the same core.
	IntraCore
	// InterCore resources (L2 cache, crossbar, memory controllers) are
	// shared by every task on the processor.
	InterCore
)

// String implements fmt.Stringer.
func (l SharingLevel) String() string {
	switch l {
	case IntraPipe:
		return "IntraPipe"
	case IntraCore:
		return "IntraCore"
	case InterCore:
		return "InterCore"
	default:
		return fmt.Sprintf("SharingLevel(%d)", int(l))
	}
}

// Topology describes a processor as cores, each split into hardware
// pipelines, each supporting a fixed number of hardware contexts
// (virtual CPUs).
type Topology struct {
	Cores           int // number of physical cores
	PipesPerCore    int // hardware execution pipelines per core
	ContextsPerPipe int // hardware contexts (strands) per pipeline
}

// UltraSPARCT2 returns the topology of the paper's case-study processor:
// eight cores, two pipelines per core, four strands per pipeline — up to 64
// simultaneously running tasks.
func UltraSPARCT2() Topology { return Topology{Cores: 8, PipesPerCore: 2, ContextsPerPipe: 4} }

// Validate reports whether the topology is well formed.
func (t Topology) Validate() error {
	if t.Cores < 1 || t.PipesPerCore < 1 || t.ContextsPerPipe < 1 {
		return fmt.Errorf("t2: invalid topology %+v: all dimensions must be >= 1", t)
	}
	return nil
}

// Contexts returns the total number of hardware contexts V.
func (t Topology) Contexts() int { return t.Cores * t.PipesPerCore * t.ContextsPerPipe }

// Pipes returns the total number of hardware pipelines.
func (t Topology) Pipes() int { return t.Cores * t.PipesPerCore }

// CoreOf returns the core index of hardware context ctx.
func (t Topology) CoreOf(ctx int) int { return ctx / (t.PipesPerCore * t.ContextsPerPipe) }

// PipeOf returns the global pipeline index of hardware context ctx
// (core * PipesPerCore + pipe-in-core).
func (t Topology) PipeOf(ctx int) int { return ctx / t.ContextsPerPipe }

// Context returns the hardware context index for (core, pipeInCore, slot).
func (t Topology) Context(core, pipeInCore, slot int) int {
	return (core*t.PipesPerCore+pipeInCore)*t.ContextsPerPipe + slot
}

// ShareLevel returns the closest (most contended) sharing level between two
// hardware contexts: IntraPipe if they sit in the same pipeline, IntraCore
// if in the same core, InterCore otherwise. Both arguments must be valid
// context indices; a == b is reported as IntraPipe.
func (t Topology) ShareLevel(a, b int) SharingLevel {
	switch {
	case t.PipeOf(a) == t.PipeOf(b):
		return IntraPipe
	case t.CoreOf(a) == t.CoreOf(b):
		return IntraCore
	default:
		return InterCore
	}
}

// String implements fmt.Stringer.
func (t Topology) String() string {
	return fmt.Sprintf("%d cores × %d pipes × %d contexts (%d virtual CPUs)",
		t.Cores, t.PipesPerCore, t.ContextsPerPipe, t.Contexts())
}
