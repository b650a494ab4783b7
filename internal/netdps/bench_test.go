package netdps

import (
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
)

// BenchmarkMeasureAnalytic measures one analytic measurement — the
// fixed-point solve plus the keyed noise variate — of IPFwd-L1 × 8 (24
// tasks) at the default noise, cycling through pre-drawn random
// assignments.
func BenchmarkMeasureAnalytic(b *testing.B) {
	tb, err := NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	as := make([]assign.Assignment, 256)
	for i := range as {
		if as[i], err = assign.Random(rng, tb.Machine.Topo, tb.TaskCount()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.MeasureAnalytic(as[i%len(as)]); err != nil {
			b.Fatal(err)
		}
	}
}
