package search

import (
	"optassign/internal/obs"
)

// Metrics observes the search layer, labeled by strategy so dashboards
// can compare policies: draws proposed, adaptive (Explore) draws,
// improvements of the campaign best, and accepted annealing moves. The
// engine-side counters (Draws/Explore/Improved) are added from each
// completed round by core.IterMetrics.Observe; Accepted by the annealer
// itself. Per the internal/obs
// conventions a nil bundle disables recording, and instrumentation never
// perturbs draws or journal bytes.
type Metrics struct {
	Draws    *obs.Counter
	Explore  *obs.Counter
	Improved *obs.Counter
	Accepted *obs.Counter
}

// NewMetrics registers the search series for one strategy on r; a nil
// registry yields a nil bundle.
func NewMetrics(r *obs.Registry, strategy string) *Metrics {
	if r == nil {
		return nil
	}
	l := obs.L("strategy", strategy)
	return &Metrics{
		Draws:    r.Counter("optassign_search_draws_total", "Assignment draws proposed by the search strategy.", l),
		Explore:  r.Counter("optassign_search_explore_draws_total", "Adaptive draws excluded from the EVT tail fit.", l),
		Improved: r.Counter("optassign_search_improvements_total", "Draws that improved the campaign's best observed performance.", l),
		Accepted: r.Counter("optassign_search_accepted_moves_total", "Moves accepted by the annealer's Metropolis rule.", l),
	}
}
