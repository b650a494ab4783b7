package netdps

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/raceflag"
)

// TestMeasureAnalyticAllocates nothing at the case-study shape (24 tasks
// on a T2): the solve borrows its tables and the noise key is built on
// the stack.
func TestMeasureAnalyticAllocates(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 8)
	a := randomAssignment(t, tb, 3)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := tb.MeasureAnalytic(a); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MeasureAnalytic allocates %v times per call, want 0", n)
	}
}

// TestFNV64aMatchesHashFNV pins the noise key's hash to hash/fnv's
// 64-bit FNV-1a.
func TestFNV64aMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 300; n++ {
		b := make([]byte, n)
		rng.Read(b)
		h := fnv.New64a()
		h.Write(b)
		if got, want := fnv64a(b), h.Sum64(); got != want {
			t.Fatalf("fnv64a of %d bytes = %#x, hash/fnv %#x", n, got, want)
		}
	}
}
