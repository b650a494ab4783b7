package netdps

import (
	"optassign/internal/assign"
	"optassign/internal/cycle"
	"optassign/internal/proc"
)

// MeasureCycle measures the assignment on the cycle-approximate
// fine-grained-multithreading simulator (internal/cycle): issue slots,
// LSU-port arbitration and latency hiding are simulated per cycle instead
// of being charged through utilization curves. It is the slowest and
// lowest-level of the three measurement paths; use it to sanity-check the
// other two, not for mass campaigns.
func (tb *Testbed) MeasureCycle(a assign.Assignment, packets int) (cycle.Result, error) {
	if err := tb.checkAssignment(a); err != nil {
		return cycle.Result{}, err
	}
	return cycle.Run(tb.Machine, tb.tasks, tb.links, a.Ctx, cycle.Config{QueueDepth: QueueDepth}, packets)
}

// ProfileAssignment exposes the hardware-counter view of an assignment at
// the analytic operating point (proc.SolveProfile) — what an engineer
// would pull from cpustat after a measurement run.
func (tb *Testbed) ProfileAssignment(a assign.Assignment) (*proc.Profile, error) {
	if err := tb.checkAssignment(a); err != nil {
		return nil, err
	}
	return tb.Machine.SolveProfile(tb.tasks, tb.links, a.Ctx)
}
