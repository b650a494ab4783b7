package obs

// StreamMetrics publishes the live state of the streaming tail estimator
// (evt.StreamEstimator): the per-commit monotone quantities — committed
// observations, best observed, exceedances above the current threshold
// and their ECDF mass — and the headline numbers of the last scheduled
// refit (UPB point estimate, confidence-interval width, refit count).
// Together with the campaign gauges this is what makes a long campaign's
// converging optimum visible on /metrics while it runs, instead of only
// in the final report.
//
// As with every bundle, a nil registry yields a nil bundle, nil bundles
// are skipped at the recording site, and recording never influences the
// campaign.
type StreamMetrics struct {
	Observed        *Gauge
	Best            *Gauge
	UPBPoint        *Gauge
	UPBCIWidth      *Gauge
	TailExceedances *Gauge
	TailMass        *Gauge
	RefitCount      *Gauge
}

// NewStreamMetrics registers the streaming-estimator series on r; a nil
// registry yields a nil (disabled) bundle.
func NewStreamMetrics(r *Registry) *StreamMetrics {
	if r == nil {
		return nil
	}
	return &StreamMetrics{
		Observed:        r.Gauge("optassign_stream_observed", "Committed tail-eligible observations in the streaming estimator."),
		Best:            r.Gauge("optassign_stream_best_observed", "Best committed observation in the streaming estimator."),
		UPBPoint:        r.Gauge("optassign_stream_upb_point", "Streaming UPB point estimate from the last scheduled refit."),
		UPBCIWidth:      r.Gauge("optassign_stream_upb_ci_width", "Width of the streaming UPB confidence interval (+Inf while the tail cannot be bounded)."),
		TailExceedances: r.Gauge("optassign_stream_tail_exceedances", "Observations above the current POT threshold, updated per commit."),
		TailMass:        r.Gauge("optassign_stream_tail_mass", "ECDF mass above the current POT threshold (exceedances / observations)."),
		RefitCount:      r.Gauge("optassign_stream_refit_count", "Full refits (threshold scan + MLE + Wilks CI) completed by this process; starts again at a resume."),
	}
}
