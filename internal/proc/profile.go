package proc

import (
	"fmt"
	"io"
	"sort"
)

// ResourceUse is the utilization of one resource instance at the solved
// steady state, in work units per cycle against its capacity.
type ResourceUse struct {
	Resource Resource
	Instance int // pipe index, core index, or 0 for chip-wide resources
	Util     float64
	Cap      float64
}

// Saturated reports whether the instance is over-subscribed.
func (u ResourceUse) Saturated() bool { return u.Util > u.Cap }

// Profile is the hardware-counter view of one solved assignment: what every
// shared resource instance sees, and which ones throttle the workload. It
// plays the role of the performance-counter data that profile-based
// schedulers (SOS and friends, §6 of the paper) consume.
type Profile struct {
	Result Result
	Uses   []ResourceUse // sorted by Util/Cap descending
}

// Hottest returns the most over-subscribed resource uses, at most n.
func (p *Profile) Hottest(n int) []ResourceUse {
	if n > len(p.Uses) {
		n = len(p.Uses)
	}
	return p.Uses[:n]
}

// SaturatedCount returns how many resource instances are over capacity.
func (p *Profile) SaturatedCount() int {
	n := 0
	for _, u := range p.Uses {
		if u.Saturated() {
			n++
		}
	}
	return n
}

// Dump writes a human-readable counter report.
func (p *Profile) Dump(w io.Writer, top int) {
	fmt.Fprintf(w, "total rate: %.6g PPS; %d saturated resource instances\n",
		p.Result.TotalPPS, p.SaturatedCount())
	for _, u := range p.Hottest(top) {
		mark := ""
		if u.Saturated() {
			mark = "  << saturated"
		}
		fmt.Fprintf(w, "  %-4v[%2d]  util %.3f / cap %.3f%s\n", u.Resource, u.Instance, u.Util, u.Cap, mark)
	}
}

// SolveProfile runs Solve and additionally reports the per-instance
// utilization of every shared resource at the solved operating point — the
// simulated equivalent of reading hardware performance counters after a
// measurement run.
func (m *Machine) SolveProfile(tasks []Task, links []Link, placement []int) (*Profile, error) {
	res, tab, err := m.solve(tasks, links, placement)
	if err != nil {
		return nil, err
	}

	// Accumulate utilization at the final rates over the instances some
	// task demands.
	util := make([]float64, tab.first[NumResources])
	used := make([]bool, len(util))
	for i := range tasks {
		rate := res.GroupRate[tasks[i].Group]
		for _, u := range tab.taskUses(i) {
			util[u.inst] += rate * u.d
			used[u.inst] = true
		}
	}

	prof := &Profile{Result: res}
	for r := 0; r < NumResources; r++ {
		for inst := tab.first[r]; inst < tab.first[r+1]; inst++ {
			if used[inst] {
				prof.Uses = append(prof.Uses, ResourceUse{
					Resource: Resource(r),
					Instance: inst - tab.first[r],
					Util:     util[inst],
					Cap:      m.Caps[r],
				})
			}
		}
	}
	sort.Slice(prof.Uses, func(i, j int) bool {
		a, b := prof.Uses[i], prof.Uses[j]
		ra, rb := a.Util/a.Cap, b.Util/b.Cap
		if ra != rb {
			return ra > rb
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Instance < b.Instance
	})
	return prof, nil
}
