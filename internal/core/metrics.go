package core

import (
	"strconv"
	"time"

	"optassign/internal/obs"
	"optassign/internal/search"
)

// This file defines the package's metric bundles: one struct per
// instrumented subsystem, built from an obs.Registry. Every constructor
// accepts a nil registry and then returns nil, so a nil bundle disables
// its subsystem's metrics. Recording sites either guard on the nil
// bundle or, where the owner swaps a nil bundle for a zero one at
// construction (Cache, ResilientRunner), call the nil-safe obs
// instruments directly; either way an uninstrumented campaign pays one
// pointer check per event and allocates nothing — the
// zero-overhead-when-disabled rule of internal/obs.

// ResilientMetrics counts what a ResilientRunner does to keep a campaign
// alive: attempts, retries, backoff time, quarantines, and attempts
// abandoned at their timeout (with the eventual late outcomes, so
// operators can see when Timeout is set too tight).
type ResilientMetrics struct {
	Attempts       *obs.Counter
	Retries        *obs.Counter
	Quarantines    *obs.Counter
	BackoffSeconds *obs.Counter
	Abandoned      *obs.Counter
	LateSuccesses  *obs.Counter
	LateFailures   *obs.Counter
}

// NewResilientMetrics registers the resilient-runner series on r; a nil
// registry yields a nil (disabled) bundle.
func NewResilientMetrics(r *obs.Registry) *ResilientMetrics {
	if r == nil {
		return nil
	}
	return &ResilientMetrics{
		Attempts:       r.Counter("optassign_resilient_attempts_total", "Measurement attempts, first tries and retries included."),
		Retries:        r.Counter("optassign_resilient_retries_total", "Attempts that failed transiently and were retried."),
		Quarantines:    r.Counter("optassign_resilient_quarantines_total", "Assignments abandoned after exhausting their retry budget."),
		BackoffSeconds: r.Counter("optassign_resilient_backoff_seconds_total", "Time scheduled sleeping between retries."),
		Abandoned:      r.Counter("optassign_resilient_abandoned_total", "Attempts abandoned on their goroutine at the per-attempt timeout."),
		LateSuccesses:  r.Counter("optassign_resilient_late_outcomes_total", "Outcomes from abandoned attempts, by eventual result.", obs.L("result", "success")),
		LateFailures:   r.Counter("optassign_resilient_late_outcomes_total", "Outcomes from abandoned attempts, by eventual result.", obs.L("result", "failure")),
	}
}

// PoolMetrics observes a PoolRunner and the parallel collector above it:
// how busy each worker is, how far completions run ahead of the in-order
// commit point (reorder-buffer depth, commit lag), and how many draws
// flow through.
type PoolMetrics struct {
	Dispatched  *obs.Counter
	Completed   *obs.Counter
	Committed   *obs.Counter
	BusySeconds []*obs.Counter // indexed by worker
	// ReorderDepth is the number of completions parked in the reorder
	// buffer waiting for an earlier draw; CommitLag is, per completion,
	// how many draw indices ahead of the commit point it arrived.
	ReorderDepth *obs.Gauge
	CommitLag    *obs.Histogram
}

// NewPoolMetrics registers the worker-pool series on r for a pool of the
// given size; a nil registry yields a nil bundle.
func NewPoolMetrics(r *obs.Registry, workers int) *PoolMetrics {
	if r == nil {
		return nil
	}
	m := &PoolMetrics{
		Dispatched:   r.Counter("optassign_pool_dispatched_total", "Draws handed to a worker."),
		Completed:    r.Counter("optassign_pool_completed_total", "Draws whose measurement finished (successfully or not)."),
		Committed:    r.Counter("optassign_pool_committed_total", "Draws committed in order by the parallel collector."),
		ReorderDepth: r.Gauge("optassign_pool_reorder_depth", "Completions buffered awaiting an earlier draw."),
		CommitLag:    r.Histogram("optassign_pool_commit_lag", "Draw indices a completion arrived ahead of the commit point.", []float64{0, 1, 2, 4, 8, 16, 32, 64}),
	}
	for i := 0; i < workers; i++ {
		m.BusySeconds = append(m.BusySeconds,
			r.Counter("optassign_pool_worker_busy_seconds_total", "Wall-clock time each worker spent measuring.", obs.L("worker", strconv.Itoa(i))))
	}
	return m
}

// dispatch records n draws handed to a worker, nil-safely, and returns
// the start of their measurement (zero when disabled).
func (m *PoolMetrics) dispatch(n int) time.Time {
	if m == nil {
		return time.Time{}
	}
	m.Dispatched.Add(float64(n))
	return time.Now()
}

// complete records worker i finishing n draws it started at t0.
func (m *PoolMetrics) complete(i, n int, t0 time.Time) {
	if m == nil {
		return
	}
	m.Completed.Add(float64(n))
	if i < len(m.BusySeconds) {
		m.BusySeconds[i].Add(time.Since(t0).Seconds())
	}
}

// CacheMetrics observes a measurement Cache: how many draws were served
// from memoized classes (hits), how many reached the real testbed
// (misses), how many joined an in-flight measurement instead of starting
// their own (coalesced), plus the entry count, evictions and in-flight
// leaders.
// The Disk* series observe the optional persistent L2 tier (see
// diskcache.go): lookups answered from disk, lookups that fell through to
// a real measurement, the store's on-disk footprint, and store I/O errors
// (which degrade the cache, never the campaign).
type CacheMetrics struct {
	Hits       *obs.Counter
	Misses     *obs.Counter
	Coalesced  *obs.Counter
	Evictions  *obs.Counter
	Size       *obs.Gauge
	Inflight   *obs.Gauge
	DiskHits   *obs.Counter
	DiskMisses *obs.Counter
	DiskBytes  *obs.Gauge
	DiskErrors *obs.Counter
}

// NewCacheMetrics registers the measurement-cache series on r; a nil
// registry yields a nil (disabled) bundle.
func NewCacheMetrics(r *obs.Registry) *CacheMetrics {
	if r == nil {
		return nil
	}
	return &CacheMetrics{
		Hits:       r.Counter("optassign_cache_hits_total", "Measurements served from the canonical-form cache."),
		Misses:     r.Counter("optassign_cache_misses_total", "Measurements that reached the wrapped runner."),
		Coalesced:  r.Counter("optassign_cache_coalesced_total", "Callers that joined an in-flight measurement of the same class."),
		Evictions:  r.Counter("optassign_cache_evictions_total", "Entries evicted by the LRU bound."),
		Size:       r.Gauge("optassign_cache_entries", "Canonical classes currently memoized."),
		Inflight:   r.Gauge("optassign_cache_inflight", "Cache-led measurements currently running."),
		DiskHits:   r.Counter("optassign_diskcache_hits_total", "Lookups answered by the persistent store without measuring."),
		DiskMisses: r.Counter("optassign_diskcache_misses_total", "Lookups the persistent store could not answer."),
		DiskBytes:  r.Gauge("optassign_diskcache_bytes", "On-disk footprint of the persistent measurement store."),
		DiskErrors: r.Counter("optassign_diskcache_errors_total", "Persistent-store failures (cache degraded, measurement unaffected)."),
	}
}

// BatchMetrics observes the batched measurement path: how many draws each
// core-sharded batch actually measured (after cache hits and in-batch
// duplicates are peeled off) and how many batches ran.
type BatchMetrics struct {
	Batches *obs.Counter
	Size    *obs.Histogram
}

// NewBatchMetrics registers the batch-path series on r; a nil registry
// yields a nil (disabled) bundle.
func NewBatchMetrics(r *obs.Registry) *BatchMetrics {
	if r == nil {
		return nil
	}
	return &BatchMetrics{
		Batches: r.Counter("optassign_batches_total", "Core-sharded measurement batches executed."),
		Size:    r.Histogram("optassign_batch_size", "Unique cache-missing assignments measured per batch.", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}),
	}
}

// observe records one batch that measured n assignments, nil-safely.
func (m *BatchMetrics) observe(n int) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.Size.Observe(float64(n))
}

// IterMetrics publishes the live state of the §5.3 iterative algorithm
// from its Round records (Observe): the per-round estimate (ÛPB and its
// confidence interval), the best observed performance, the convergence
// gap the loop thresholds on, and the streaming tail estimator's state —
// committed observations, exceedances above the current threshold and
// their ECDF mass, and the last refit's UPB point, CI width and count.
// Search, when set, receives the engine-side search counters (draws,
// exploration draws, improvements of the best).
type IterMetrics struct {
	Rounds        *obs.Counter
	Samples       *obs.Gauge
	Quarantined   *obs.Gauge
	BestObserved  *obs.Gauge
	UPB           *obs.Gauge
	UPBLo         *obs.Gauge
	UPBHi         *obs.Gauge
	HeadroomHiPct *obs.Gauge
	Satisfied     *obs.Gauge

	StreamObserved        *obs.Gauge
	StreamBest            *obs.Gauge
	StreamUPBPoint        *obs.Gauge
	StreamUPBCIWidth      *obs.Gauge
	StreamTailExceedances *obs.Gauge
	StreamTailMass        *obs.Gauge
	StreamRefitCount      *obs.Gauge

	Search *search.Metrics
}

// NewIterMetrics registers the campaign-progress and streaming-estimator
// series on r; a nil registry yields a nil bundle.
func NewIterMetrics(r *obs.Registry) *IterMetrics {
	if r == nil {
		return nil
	}
	return &IterMetrics{
		Rounds:        r.Counter("optassign_campaign_rounds_total", "Estimation rounds completed (Fig. 13 iterations)."),
		Samples:       r.Gauge("optassign_campaign_samples", "Successful measurements in the sample."),
		Quarantined:   r.Gauge("optassign_campaign_quarantined", "Draws quarantined after exhausting retries."),
		BestObserved:  r.Gauge("optassign_campaign_best_observed", "Best measured performance so far."),
		UPB:           r.Gauge("optassign_campaign_upb", "Estimated optimal performance (UPB point estimate)."),
		UPBLo:         r.Gauge("optassign_campaign_upb_lo", "Lower confidence bound on the optimum."),
		UPBHi:         r.Gauge("optassign_campaign_upb_hi", "Upper confidence bound on the optimum (may be +Inf)."),
		HeadroomHiPct: r.Gauge("optassign_campaign_headroom_hi_pct", "Convergence gap: conservative headroom of the best observed assignment vs the CI upper bound, percent."),
		Satisfied:     r.Gauge("optassign_campaign_satisfied", "1 once the acceptable-loss requirement is met."),

		StreamObserved:        r.Gauge("optassign_stream_observed", "Committed tail-eligible observations in the streaming estimator."),
		StreamBest:            r.Gauge("optassign_stream_best_observed", "Best committed observation in the streaming estimator."),
		StreamUPBPoint:        r.Gauge("optassign_stream_upb_point", "Streaming UPB point estimate from the last scheduled refit."),
		StreamUPBCIWidth:      r.Gauge("optassign_stream_upb_ci_width", "Width of the streaming UPB confidence interval (+Inf while the tail cannot be bounded)."),
		StreamTailExceedances: r.Gauge("optassign_stream_tail_exceedances", "Observations above the current POT threshold, updated per commit."),
		StreamTailMass:        r.Gauge("optassign_stream_tail_mass", "ECDF mass above the current POT threshold (exceedances / observations)."),
		StreamRefitCount:      r.Gauge("optassign_stream_refit_count", "Full refits (threshold scan + MLE + Wilks CI) completed by this process; starts again at a resume."),
	}
}

// Observe publishes one completed round; a nil bundle records nothing.
func (m *IterMetrics) Observe(r Round) {
	if m == nil {
		return
	}
	m.Rounds.Inc()
	m.Samples.Set(float64(r.Samples))
	m.Quarantined.Set(float64(r.Quarantined))
	m.BestObserved.Set(r.Best)
	if r.Kind == RoundEstimated {
		m.UPB.Set(r.Estimate.Optimal)
		m.UPBLo.Set(r.Estimate.Lo)
		m.UPBHi.Set(r.Estimate.Hi)
		m.HeadroomHiPct.Set(r.Estimate.HeadroomHiPct)
		if r.Satisfied {
			m.Satisfied.Set(1)
		}
	}
	l := r.Stream
	m.StreamObserved.Set(float64(l.N))
	m.StreamBest.Set(l.Best)
	m.StreamTailExceedances.Set(float64(l.TailCount))
	m.StreamTailMass.Set(l.TailMass)
	m.StreamRefitCount.Set(float64(l.RefitCount))
	if l.Fitted {
		m.StreamUPBPoint.Set(l.UPB)
		m.StreamUPBCIWidth.Set(l.CIWidth())
	}
	if s := m.Search; s != nil {
		s.Draws.Add(float64(r.Added))
		s.Explore.Add(float64(r.Explore))
		s.Improved.Add(float64(r.Improved))
	}
}
