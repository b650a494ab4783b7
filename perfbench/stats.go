package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, interpolated exactly as Python's statistics.quantiles(xs, n=4)
// does with its default "exclusive" method. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise figure a benchmark bound is compared with.
func spread(xs []float64) float64 {
	q1, _, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLadder lists the percentiles a tail figure may be reported at,
// highest first: 99.9, then every whole percentile from 99 down to 50.
var tailLadder = func() []float64 {
	ps := []float64{99.9}
	for p := 99; p >= 50; p-- {
		ps = append(ps, float64(p))
	}
	return ps
}()

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer, and the figure is one or two outliers, not a
// tail.
const minBeyond = 10

// tail is a timing's tail figure: the highest percentile of the ladder
// that still has at least minBeyond samples strictly above it, with the
// sample count it was taken from.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Count      int     `json:"count"`
}

// tailOf returns the tail figure of xs, or ok=false when even the median
// has fewer than minBeyond samples above it.
func tailOf(xs []float64) (tail, bool) {
	s := sorted(xs)
	for _, p := range tailLadder {
		v := percentile(s, p)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return tail{Value: v, Percentile: p, Count: len(s)}, true
		}
	}
	return tail{Count: len(s)}, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
