// Package proc models the performance behaviour of a multithreaded
// processor with several levels of resource sharing — the simulated stand-in
// for the UltraSPARC T2 silicon of the paper's case study.
//
// Every task presents a demand vector: cycles per packet of occupancy on
// each shared hardware resource, plus a serial component that never
// contends (long-latency private units, think of the integer multiplier in
// the IPFwd-intmul variant). Given a task-to-context assignment the solver
// computes, by fixed-point iteration, the utilization-driven slowdown of
// every resource instance, the resulting effective service time of every
// task, and the steady-state throughput of every software pipeline. The
// three sharing levels of Fig. 8 map directly onto resource scopes:
//
//	IntraPipe:  IFU, IEU                  — one instance per hardware pipeline
//	IntraCore:  L1I, L1D, TLB, LSU, FPU, CRY — one instance per core
//	InterCore:  L2, XBAR, MEM             — one instance for the whole chip
package proc

import "optassign/internal/t2"

// Resource identifies one kind of shared hardware resource.
type Resource int

// The modeled resources, grouped by sharing level.
const (
	// IntraPipe resources.
	IFU Resource = iota // instruction fetch unit
	IEU                 // integer execution units
	// IntraCore resources.
	L1I // L1 instruction cache
	L1D // L1 data cache
	TLB // instruction+data TLBs
	LSU // load/store unit
	FPU // floating point and graphics unit
	CRY // cryptographic processing unit
	// InterCore resources.
	L2   // shared L2 cache
	XBAR // on-chip crossbar
	MEM  // memory controllers

	NumResources int = iota
)

var resourceNames = [...]string{
	IFU: "IFU", IEU: "IEU", L1I: "L1I", L1D: "L1D", TLB: "TLB",
	LSU: "LSU", FPU: "FPU", CRY: "CRY", L2: "L2", XBAR: "XBAR", MEM: "MEM",
}

// String implements fmt.Stringer.
func (r Resource) String() string {
	if int(r) >= 0 && int(r) < len(resourceNames) {
		return resourceNames[r]
	}
	return "Resource(?)"
}

// Level returns the sharing level at which the resource is instantiated.
func (r Resource) Level() t2.SharingLevel {
	switch r {
	case IFU, IEU:
		return t2.IntraPipe
	case L1I, L1D, TLB, LSU, FPU, CRY:
		return t2.IntraCore
	default:
		return t2.InterCore
	}
}

// Demand is the per-packet resource footprint of one task: Serial cycles
// that never contend plus occupancy cycles on each shared resource. The
// un-contended per-packet service time is Serial + ΣRes.
type Demand struct {
	Serial float64
	Res    [NumResources]float64
}

// Base returns the un-contended cycles per packet.
func (d Demand) Base() float64 {
	s := d.Serial
	for _, v := range d.Res {
		s += v
	}
	return s
}

// Add returns the component-wise sum of two demands.
func (d Demand) Add(o Demand) Demand {
	out := d
	out.Serial += o.Serial
	for i := range out.Res {
		out.Res[i] += o.Res[i]
	}
	return out
}
