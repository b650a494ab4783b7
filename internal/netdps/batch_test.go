package netdps

import (
	"math"
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
)

// drawAssignments samples k random valid assignments for tb.
func drawAssignments(t *testing.T, tb *Testbed, rng *rand.Rand, k int) []assign.Assignment {
	t.Helper()
	as := make([]assign.Assignment, k)
	for i := range as {
		a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
		if err != nil {
			t.Fatal(err)
		}
		as[i] = a
	}
	return as
}

// TestMeasureBatchMatchesSerial: batched analytic measurement must be
// bit-identical, element by element, to the serial path — including the
// deterministic noise.
func TestMeasureBatchMatchesSerial(t *testing.T) {
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 4)
	rng := rand.New(rand.NewSource(5))
	as := drawAssignments(t, tb, rng, 37)
	perfs, errs := tb.MeasureBatch(as)
	for i, a := range as {
		want, werr := tb.MeasureAnalytic(a)
		if errs[i] != nil || werr != nil {
			t.Fatalf("assignment %d: errs %v / %v", i, errs[i], werr)
		}
		if math.Float64bits(perfs[i]) != math.Float64bits(want) {
			t.Fatalf("assignment %d: batch %v != serial %v", i, perfs[i], want)
		}
	}
}

// TestMeasureBatchReportsPerAssignmentErrors: an invalid assignment fails
// alone, index-aligned, without failing its batchmates.
func TestMeasureBatchReportsPerAssignmentErrors(t *testing.T) {
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 2)
	rng := rand.New(rand.NewSource(6))
	as := drawAssignments(t, tb, rng, 3)
	as[1] = assign.Assignment{Topo: tb.Machine.Topo, Ctx: []int{0}} // wrong task count
	perfs, errs := tb.MeasureBatch(as)
	if errs[1] == nil {
		t.Fatal("invalid assignment did not error")
	}
	for _, i := range []int{0, 2} {
		want, _ := tb.MeasureAnalytic(as[i])
		if errs[i] != nil || perfs[i] != want {
			t.Fatalf("assignment %d: %v, %v (want %v, nil)", i, perfs[i], errs[i], want)
		}
	}
}
