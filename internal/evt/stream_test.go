package evt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The differential suite behind the streaming estimator's central claim:
// at every refit boundary, StreamEstimator.Refit is bitwise-equal to a
// from-scratch Analyze on the same observations in commit order — for
// any commit order, any interleaving of refits, and across a resume that
// rebuilds the estimator by re-feeding the committed prefix.

// reportBitsEqual walks two Reports field by field, comparing every
// float64 by its IEEE-754 bits. Plain equality would hide exactly the
// drift this suite exists to catch (and would misjudge ±Inf/−0 edges).
func reportBitsEqual(t *testing.T, label string, a, b Report) {
	t.Helper()
	var walk func(path string, va, vb reflect.Value)
	walk = func(path string, va, vb reflect.Value) {
		switch va.Kind() {
		case reflect.Float64:
			if math.Float64bits(va.Float()) != math.Float64bits(vb.Float()) {
				t.Errorf("%s: %s differs bitwise: %v (%016x) vs %v (%016x)",
					label, path, va.Float(), math.Float64bits(va.Float()), vb.Float(), math.Float64bits(vb.Float()))
			}
		case reflect.Slice:
			if va.Len() != vb.Len() {
				t.Errorf("%s: %s length %d vs %d", label, path, va.Len(), vb.Len())
				return
			}
			for i := 0; i < va.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), va.Index(i), vb.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < va.NumField(); i++ {
				walk(path+"."+va.Type().Field(i).Name, va.Field(i), vb.Field(i))
			}
		default:
			if !va.CanInterface() {
				return
			}
			if !reflect.DeepEqual(va.Interface(), vb.Interface()) {
				t.Errorf("%s: %s differs: %v vs %v", label, path, va.Interface(), vb.Interface())
			}
		}
	}
	walk("Report", reflect.ValueOf(a), reflect.ValueOf(b))
}

// streamSamples are the suite's population shapes: a clean bounded GPD
// tail, a uniform body, and a coarsely quantized (ties-heavy) sample
// that exercises the tie-run snap-down inside the maintained order
// statistics.
func streamSamples(n int, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	gpd := GPD{Xi: -0.3, Sigma: 5}.Sample(rng, n)
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64() * 100
	}
	quantized := make([]float64, n)
	for i := range quantized {
		quantized[i] = math.Round(rng.Float64()*200) / 2
	}
	return map[string][]float64{"gpd": gpd, "uniform": uniform, "quantized": quantized}
}

func streamTestOpts() POTOptions {
	return POTOptions{Threshold: ThresholdOptions{MaxExceedFraction: 0.1}}
}

// TestStreamRefitMatchesAnalyzeBitwise feeds each population in three
// commit orders, refitting at several boundaries; every refit must agree
// bitwise with Analyze on the commit-order prefix (or fail with the
// identical error).
func TestStreamRefitMatchesAnalyzeBitwise(t *testing.T) {
	const n = 3000
	opts := streamTestOpts()
	for name, sample := range streamSamples(n, 77) {
		orders := map[string][]float64{"natural": sample}
		shuffled := append([]float64(nil), sample...)
		rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		orders["shuffled"] = shuffled
		descending := append([]float64(nil), sample...)
		sort.Sort(sort.Reverse(sort.Float64Slice(descending)))
		orders["descending"] = descending

		for orderName, xs := range orders {
			t.Run(name+"/"+orderName, func(t *testing.T) {
				s := NewStreamEstimator(StreamOptions{POT: opts})
				checkpoints := map[int]bool{300: true, 500: true, 1000: true, 2200: true, n: true}
				for i, x := range xs {
					if err := s.Observe(x); err != nil {
						t.Fatal(err)
					}
					if !checkpoints[i+1] {
						continue
					}
					streamRep, streamErr := s.Refit()
					batchRep, batchErr := Analyze(xs[:i+1], opts)
					if fmt.Sprint(streamErr) != fmt.Sprint(batchErr) {
						t.Fatalf("n=%d: stream err %v, batch err %v", i+1, streamErr, batchErr)
					}
					if streamErr == nil {
						reportBitsEqual(t, fmt.Sprintf("n=%d", i+1), streamRep, batchRep)
					}
				}
			})
		}
	}
}

// TestStreamMatchesAnalyzeRandomized fuzzes sizes, seeds and shapes with
// a single final refit each.
func TestStreamMatchesAnalyzeRandomized(t *testing.T) {
	opts := streamTestOpts()
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		n := 450 + rng.Intn(1200)
		var xs []float64
		switch trial % 3 {
		case 0:
			xs = GPD{Xi: -0.2 - rng.Float64()/2, Sigma: 1 + rng.Float64()*9}.Sample(rng, n)
		case 1:
			for i := 0; i < n; i++ {
				xs = append(xs, rng.Float64()*1000)
			}
		default:
			for i := 0; i < n; i++ {
				xs = append(xs, math.Round(rng.Float64()*100))
			}
		}
		s := NewStreamEstimator(StreamOptions{POT: opts})
		if err := s.ObserveAll(xs); err != nil {
			t.Fatal(err)
		}
		streamRep, streamErr := s.Refit()
		batchRep, batchErr := Analyze(xs, opts)
		if fmt.Sprint(streamErr) != fmt.Sprint(batchErr) {
			t.Fatalf("trial %d (n=%d): stream err %v, batch err %v", trial, n, streamErr, batchErr)
		}
		if streamErr == nil {
			reportBitsEqual(t, fmt.Sprintf("trial %d (n=%d)", trial, n), streamRep, batchRep)
		}
	}
}

// TestStreamSnapshotRestoreContinues: a campaign resumes its estimator
// by re-feeding the committed prefix. A snapshot taken mid-stream holds
// that prefix's sorted multiset and survives JSON; an estimator rebuilt
// from the prefix and fed the rest refits bitwise as the original and
// as the batch analysis.
func TestStreamSnapshotRestoreContinues(t *testing.T) {
	opts := streamTestOpts()
	rng := rand.New(rand.NewSource(13))
	xs := GPD{Xi: -0.35, Sigma: 3}.Sample(rng, 2500)
	const cut = 1100

	s := NewStreamEstimator(StreamOptions{POT: opts})
	if err := s.ObserveAll(xs[:cut]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refit(); err != nil {
		t.Fatal(err)
	}

	st := s.Snapshot()
	want := append([]float64(nil), xs[:cut]...)
	sort.Float64s(want)
	if st.N != cut || !reflect.DeepEqual(st.Sorted, want) {
		t.Fatalf("snapshot n=%d does not hold the sorted prefix of %d observations", st.N, cut)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded StreamState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, st) {
		t.Fatalf("snapshot changed across JSON: %+v", decoded)
	}

	rebuilt := NewStreamEstimator(StreamOptions{POT: opts})
	if err := rebuilt.ObserveAll(xs[:cut]); err != nil {
		t.Fatal(err)
	}
	for _, est := range []*StreamEstimator{s, rebuilt} {
		if err := est.ObserveAll(xs[cut:]); err != nil {
			t.Fatal(err)
		}
	}
	origRep, origErr := s.Refit()
	rebuiltRep, rebuiltErr := rebuilt.Refit()
	batchRep, batchErr := Analyze(xs, opts)
	if origErr != nil || rebuiltErr != nil || batchErr != nil {
		t.Fatalf("refit errors: orig %v, rebuilt %v, batch %v", origErr, rebuiltErr, batchErr)
	}
	reportBitsEqual(t, "rebuilt-vs-original", rebuiltRep, origRep)
	reportBitsEqual(t, "rebuilt-vs-batch", rebuiltRep, batchRep)
	if got := rebuilt.Live().RefitCount; got != 1 {
		t.Fatalf("rebuilt estimator counts %d refits, want 1: the count is this estimator's", got)
	}
}

// TestStreamStateUnboundedHiJSON: +Inf cannot cross encoding/json, so an
// unbounded upper bound must round-trip through the HiUnbounded flag.
func TestStreamStateUnboundedHiJSON(t *testing.T) {
	s := NewStreamEstimator(StreamOptions{})
	if err := s.ObserveAll([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	s.live.Fitted = true
	s.live.Hi = math.Inf(1)
	st := s.Snapshot()
	if !st.HiUnbounded || st.UPBHi != 0 {
		t.Fatalf("snapshot of Hi=+Inf: %+v", st)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("state with unbounded Hi does not survive JSON: %v", err)
	}
	var decoded StreamState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.HiUnbounded || decoded.UPBHi != 0 {
		t.Fatalf("decoded state lost the unbounded Hi: %+v", decoded)
	}
}

// TestStreamObserveRejectsNonFinite: NaN/±Inf must be refused with the
// typed error before touching any state.
func TestStreamObserveRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := NewStreamEstimator(StreamOptions{})
		if err := s.Observe(1.5); err != nil {
			t.Fatal(err)
		}
		before := s.Snapshot()
		if err := s.Observe(bad); !errors.Is(err, ErrNonFiniteSample) {
			t.Errorf("Observe(%v) = %v, want ErrNonFiniteSample", bad, err)
		}
		if s.N() != 1 || !reflect.DeepEqual(s.Snapshot(), before) {
			t.Errorf("Observe(%v) mutated state: n=%d", bad, s.N())
		}
	}
}

// TestStreamLiveTailCount: between refits the exceedance count updates
// per observation against the last threshold; a refit re-bases it on the
// new threshold.
func TestStreamLiveTailCount(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := GPD{Xi: -0.3, Sigma: 5}.Sample(rng, 1000)
	s := NewStreamEstimator(StreamOptions{POT: streamTestOpts()})
	if err := s.ObserveAll(xs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Refit()
	if err != nil {
		t.Fatal(err)
	}
	l := s.Live()
	if l.TailCount != len(rep.Threshold.Exceedances) {
		t.Fatalf("TailCount after refit = %d, want %d", l.TailCount, len(rep.Threshold.Exceedances))
	}
	u := rep.Threshold.U
	above, below := u+1, u-1
	for _, x := range []float64{above, below, above} {
		if err := s.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	l2 := s.Live()
	if l2.TailCount != l.TailCount+2 {
		t.Errorf("TailCount = %d after 2 exceedances, want %d", l2.TailCount, l.TailCount+2)
	}
	if want := float64(l2.TailCount) / float64(l2.N); l2.TailMass != want {
		t.Errorf("TailMass = %v, want %v", l2.TailMass, want)
	}
	if l2.Best < above {
		t.Errorf("Best = %v, want >= %v", l2.Best, above)
	}
}

// TestOrderStatsMatchesSort: the chunked structure must materialize to
// exactly sort.Float64s of its inputs across split boundaries, and keep
// every chunk within the split bound.
func TestOrderStatsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var o orderStats
	var all []float64
	for i := 0; i < 5000; i++ {
		x := math.Round(rng.Float64()*1000) / 4 // ties included
		o.insert(x)
		all = append(all, x)
	}
	want := append([]float64(nil), all...)
	sort.Float64s(want)
	got := o.materialize(len(all))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("materialized order statistics differ from sort.Float64s")
	}
	for i, c := range o.chunks {
		if len(c) == 0 || len(c) > streamChunkMax {
			t.Fatalf("chunk %d has %d elements", i, len(c))
		}
	}
}
