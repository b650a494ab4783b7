package keyrand

import (
	"math"
	"math/rand"
	"testing"
)

func reference(seed int64) float64 { return rand.New(rand.NewSource(seed)).Float64() }

// TestFloat64EdgeSeeds checks the seeds at which math/rand's seed
// normalisation changes branch: zero and its substitute, the modulus and
// its neighbours, both signs, and the int64 extremes.
func TestFloat64EdgeSeeds(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, -2,
		modulus - 1, modulus, modulus + 1, -modulus, -(modulus - 1), -(modulus + 1),
		1 << 31, -(1 << 31), 2 * modulus, -2 * modulus,
		zeroSeed, -zeroSeed,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	for _, s := range seeds {
		if got, want := Float64(s), reference(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float64(%d) = %v, math/rand gives %v", s, got, want)
		}
	}
}

// TestFloat64RandomSeeds checks 100,000 seeds drawn from a fixed-seed
// generator, half of them reduced below the LCG modulus.
func TestFloat64RandomSeeds(t *testing.T) {
	const n = 100000
	rng := rand.New(rand.NewSource(20240601))
	for i := 0; i < n; i++ {
		s := int64(rng.Uint64())
		if i%2 == 1 {
			s %= modulus
		}
		if got, want := Float64(s), reference(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float64(%d) = %v, math/rand gives %v", s, got, want)
		}
	}
}

var sink float64

func BenchmarkFloat64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += Float64(int64(i) * 0x5851f42d4c957f2d)
	}
}
