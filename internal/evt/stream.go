package evt

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file implements the streaming POT estimator: the §3.3 pipeline
// maintained incrementally across a campaign instead of refitted from a
// raw sample at the end. Two kinds of work happen at two cadences:
//
//   - per observation (every committed, tail-eligible measurement):
//     cheap monotone updates — an O(√n)-ish insertion into a chunked
//     order-statistics structure, the running best, the count of
//     observations above the last fitted threshold (the live ECDF tail
//     mass);
//
//   - per refit (a scheduled boundary): the full pipeline — threshold
//     scan, GPD maximum-likelihood fit, Wilks profile-likelihood
//     confidence interval — run by the exact same code path as the batch
//     Analyze on the materialized order statistics.
//
// The equivalence argument is structural, not numerical: Analyze is
// (finite check) + (sort a copy) + analyzeSorted, and sorting is a
// permutation, so feeding analyzeSorted a maintained sorted multiset of
// the same observations produces a bitwise-identical Report — same
// threshold, same exceedance slice, same optimizer trajectory, same
// interval — no matter how the observations were interleaved on the way
// in. The differential suite in stream_test.go pins this at every refit
// boundary. The single excluded edge is signed zero: −0.0 and +0.0
// compare equal, so their relative order within the sorted multiset is
// insertion-dependent; every downstream quantity is arithmetic on the
// values (where −0.0 behaves as +0.0), but a Threshold.U of −0.0 vs +0.0
// would differ in bits. Performance samples are magnitudes and never
// produce −0.0.

// StreamOptions configures a StreamEstimator. Refits are driven entirely
// by explicit Refit calls: core.iterate refits on its Ninit/+Ndelta
// estimation schedule, and cmd/evtfit -stream on its own doubling one.
type StreamOptions struct {
	// POT configures each refit's analysis, exactly as for Analyze.
	POT POTOptions
}

// StreamLive is the estimator's cheap live summary: everything updated
// per observation, plus the headline numbers of the last successful
// refit. It is what the engine publishes to gauges and the progress line
// between refits.
type StreamLive struct {
	N    int     // committed observations
	Best float64 // best observation so far (monotone)
	// Fitted reports at least one successful refit; until then the
	// threshold/UPB fields below are zero and meaningless.
	Fitted bool
	// U is the last fitted threshold; TailCount the number of
	// observations strictly above it, maintained per observation since
	// the refit; TailMass is TailCount/N, the live ECDF tail mass.
	U         float64
	TailCount int
	TailMass  float64
	// UPB, Lo, Hi are the last refit's optimum estimate and confidence
	// interval. Hi is +Inf when the last refit could not reject an
	// unbounded tail at the interval's confidence level.
	UPB, Lo, Hi float64
	// RefitCount counts the successful refits of this estimator, which a
	// resumed campaign rebuilds by re-feeding its journal, so the count
	// starts again at resume; LastRefitN is the sample size of the last
	// one.
	RefitCount int
	LastRefitN int
}

// CIWidth is the confidence interval's width, +Inf while the upper bound
// is unbounded, and 0 before the first successful refit.
func (l StreamLive) CIWidth() float64 {
	if !l.Fitted {
		return 0
	}
	return l.Hi - l.Lo
}

// StreamState is a serializable copy of a StreamEstimator: the complete
// sorted multiset of observations and the live summary. It is kept only
// because the benchmark module still persists it through
// campaign.SaveEstimatorCheckpoint, and goes with the benchmark
// revision: a campaign resumes by re-feeding its journal, never from a
// saved state.
//
// HiUnbounded exists only to survive encoding/json: it stands in for
// UPBHi = +Inf (JSON has no Inf; UPBHi is 0 when HiUnbounded is set).
type StreamState struct {
	N           int       `json:"n"`
	Sorted      []float64 `json:"sorted"`
	Best        float64   `json:"best"`
	Fitted      bool      `json:"fitted,omitempty"`
	U           float64   `json:"u,omitempty"`
	TailCount   int       `json:"tail_count,omitempty"`
	UPBPoint    float64   `json:"upb_point,omitempty"`
	UPBLo       float64   `json:"upb_lo,omitempty"`
	UPBHi       float64   `json:"upb_hi,omitempty"`
	HiUnbounded bool      `json:"hi_unbounded,omitempty"`
	RefitCount  int       `json:"refit_count,omitempty"`
	LastRefitN  int       `json:"last_refit_n,omitempty"`
}

// Chunk sizing for the order-statistics structure: the first chunk starts
// with room for streamChunkTarget values, and a chunk is split in half
// once an insertion grows it past streamChunkMax, so a single insert
// moves at most streamChunkMax float64s and the chunk directory stays
// small enough that its binary search is noise.
const (
	streamChunkTarget = 512
	streamChunkMax    = 1024
)

// orderStats is a chunked sorted list: chunks are disjoint, ascending
// within and across, so the concatenation is the sorted multiset. It
// exists because a flat sorted slice costs an O(n) memmove per insert —
// at fleet-campaign sizes that is the difference between a per-commit
// update and a per-commit re-sort.
type orderStats struct {
	chunks [][]float64
}

func (o *orderStats) insert(x float64) {
	if len(o.chunks) == 0 {
		c := make([]float64, 1, streamChunkTarget)
		c[0] = x
		o.chunks = append(o.chunks, c)
		return
	}
	// First chunk whose maximum is >= x holds x's position; a value
	// above every maximum goes at the end of the last chunk.
	i := sort.Search(len(o.chunks), func(i int) bool {
		c := o.chunks[i]
		return c[len(c)-1] >= x
	})
	if i == len(o.chunks) {
		i--
	}
	c := o.chunks[i]
	j := sort.SearchFloat64s(c, x)
	c = append(c, 0)
	copy(c[j+1:], c[j:])
	c[j] = x
	o.chunks[i] = c
	if len(c) > streamChunkMax {
		mid := len(c) / 2
		left := append(make([]float64, 0, streamChunkMax), c[:mid]...)
		right := append(make([]float64, 0, streamChunkMax), c[mid:]...)
		o.chunks = append(o.chunks, nil)
		copy(o.chunks[i+2:], o.chunks[i+1:])
		o.chunks[i] = left
		o.chunks[i+1] = right
	}
}

// materialize returns the sorted multiset as one fresh slice of length n.
func (o *orderStats) materialize(n int) []float64 {
	out := make([]float64, 0, n)
	for _, c := range o.chunks {
		out = append(out, c...)
	}
	return out
}

// StreamEstimator maintains POT state incrementally over a stream of
// committed observations. Observe is the cheap per-commit update; Refit
// runs the full analysis on the maintained order statistics and is
// bitwise-equal to Analyze on the same observations in any order. The
// zero value is not usable; construct with NewStreamEstimator.
//
// All methods are safe for concurrent use, though the engine's commit
// path is already serial; the lock mainly lets progress displays read
// Live while a campaign is mid-batch.
type StreamEstimator struct {
	mu   sync.Mutex
	opts StreamOptions
	os   orderStats
	n    int
	best float64
	live StreamLive
}

// NewStreamEstimator returns an empty estimator.
func NewStreamEstimator(opts StreamOptions) *StreamEstimator {
	return &StreamEstimator{opts: opts}
}

// Observe commits one observation: order-statistics insertion and the
// monotone live-summary updates. Non-finite observations are rejected
// with ErrNonFiniteSample before touching any state.
func (s *StreamEstimator) Observe(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%w: observation %d is %v", ErrNonFiniteSample, s.N(), x)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.os.insert(x)
	s.n++
	if s.n == 1 || x > s.best {
		s.best = x
	}
	if s.live.Fitted && x > s.live.U {
		s.live.TailCount++
	}
	return nil
}

// ObserveAll commits each observation in order, stopping at the first
// rejected one.
func (s *StreamEstimator) ObserveAll(xs []float64) error {
	for _, x := range xs {
		if err := s.Observe(x); err != nil {
			return err
		}
	}
	return nil
}

// N is the number of committed observations.
func (s *StreamEstimator) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Live returns the current live summary.
func (s *StreamEstimator) Live() StreamLive {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveLocked()
}

func (s *StreamEstimator) liveLocked() StreamLive {
	l := s.live
	l.N = s.n
	l.Best = s.best
	if s.n > 0 && l.Fitted {
		l.TailMass = float64(l.TailCount) / float64(s.n)
	}
	return l
}

// Refit runs the full §3.3 analysis on the committed observations. On
// success the live summary adopts the new threshold, interval and tail
// count; on error (sample too small, degenerate or unbounded tail, ...)
// the live summary keeps the previous fit. The returned Report is
// bitwise-equal to Analyze(sample, opts.POT) for any commit order of the
// same sample.
func (s *StreamEstimator) Refit() (Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := analyzeSorted(s.os.materialize(s.n), s.opts.POT)
	if err != nil {
		return Report{}, err
	}
	s.live.Fitted = true
	s.live.U = rep.Threshold.U
	s.live.TailCount = len(rep.Threshold.Exceedances)
	s.live.UPB = rep.UPB.Point
	s.live.Lo = rep.UPB.Lo
	s.live.Hi = rep.UPB.Hi
	s.live.RefitCount++
	s.live.LastRefitN = s.n
	return rep, nil
}

// Snapshot captures the estimator's complete serializable state. Kept
// only for core.IterConfig.OnRefit's state argument, which the benchmark
// module persists; it goes with the benchmark revision.
func (s *StreamEstimator) Snapshot() StreamState {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.liveLocked()
	st := StreamState{
		N:          s.n,
		Sorted:     s.os.materialize(s.n),
		Best:       s.best,
		Fitted:     l.Fitted,
		U:          l.U,
		TailCount:  l.TailCount,
		UPBPoint:   l.UPB,
		UPBLo:      l.Lo,
		RefitCount: l.RefitCount,
		LastRefitN: l.LastRefitN,
	}
	if math.IsInf(l.Hi, 1) {
		st.HiUnbounded = true
	} else {
		st.UPBHi = l.Hi
	}
	return st
}
