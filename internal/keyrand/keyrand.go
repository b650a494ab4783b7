// Package keyrand draws the one uniform variate that a keyed measurement
// needs: the first Float64 of a math/rand generator seeded from a hash.
// Building that generator seeds 607 words with about 1,841 steps of a
// Lehmer LCG and reads two of them; Float64 jumps straight to the six LCG
// states those two words are made of.
package keyrand

import "math/rand"

// The seeding LCG of math/rand's source: x′ = 48271·x mod (2³¹−1).
const (
	modulus    = 1<<31 - 1
	multiplier = 48271
	zeroSeed   = 89482311 // what math/rand seeds with when seed ≡ 0
)

// rngCooked[333] and rngCooked[606] from math/rand's rng.go, the two
// cooked words XORed into the words the first Int63 adds. Go 1
// compatibility keeps them, and so the stream for a seed, fixed.
const (
	cooked333 = -4633371852008891965
	cooked606 = 4152330101494654406
)

// jump[j] is multiplier^k mod modulus for the k-th LCG step behind the
// words the first Int63 reads: word i is built from the states after
// steps 21+3i, 22+3i and 23+3i (20 discarded steps come first), and the
// first Int63 adds words 333 and 606.
var jump = func() (p [6]uint64) {
	steps := [6]int{1020, 1021, 1022, 1839, 1840, 1841}
	x, k := uint64(1), 0
	for j, s := range steps {
		for ; k < s; k++ {
			x = x * multiplier % modulus
		}
		p[j] = x
	}
	return p
}()

// word rebuilds one seeded word of math/rand's source from the seed x and
// the jumps to its three LCG states.
func word(x uint64, p []uint64, cooked int64) int64 {
	hi := int64(x * p[0] % modulus)
	mid := int64(x * p[1] % modulus)
	lo := int64(x * p[2] % modulus)
	return hi<<40 ^ mid<<20 ^ lo ^ cooked
}

// Float64 returns rand.New(rand.NewSource(seed)).Float64(), bit for bit,
// without building the generator: it normalises seed as the source's Seed
// does, rebuilds the two words the first Int63 adds, and scales their
// 63-bit sum as Float64 does. Float64 resamples when that scaling rounds
// to 1; that branch (probability 2⁻⁵⁴) delegates to math/rand and is not
// reachable by a test.
func Float64(seed int64) float64 {
	s := seed % modulus
	if s < 0 {
		s += modulus
	}
	if s == 0 {
		s = zeroSeed
	}
	x := uint64(s)
	int63 := (word(x, jump[0:3], cooked333) + word(x, jump[3:6], cooked606)) & (1<<63 - 1)
	f := float64(int63) / (1 << 63)
	if f == 1 {
		return rand.New(rand.NewSource(seed)).Float64()
	}
	return f
}
