package main

import (
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/campaign"
	"optassign/internal/coord"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/search"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the figure the spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be defined")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestTailOf checks the "at least ten beyond" rule: the reported
// percentile is the highest with ten or more samples strictly above it.
func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tl, ok := tailOf(xs)
	if !ok || tl.Percentile != 90 || tl.Value != 90 || tl.Count != 100 {
		t.Errorf("tail of 1..100 = %+v, want p90 = 90 of 100", tl)
	}
	tl, ok = tailOf(xs[:40])
	if !ok || tl.Percentile != 75 || tl.Value != 30 {
		t.Errorf("tail of 1..40 = %+v, want p75 = 30", tl)
	}
	if _, ok := tailOf(xs[:19]); ok {
		t.Error("19 samples have no percentile at or above p50 with ten beyond")
	}
	// Ties at the percentile are not beyond it.
	flat := append(make([]float64, 30), 1, 2, 3)
	if tl, ok := tailOf(flat); ok {
		t.Errorf("30 zeros and 3 values have no tail, got %+v", tl)
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{10, 30}, {20, 40}, {50, 60}, {90, 120}}
	if got := covered(iv, 0, 100); got != 30+10+10 {
		t.Errorf("covered = %d, want 50", got)
	}
}

// TestSummarizeSelfTimes checks self time (duration minus the union of
// its children) and the adoption of spans by synthesized containers.
func TestSummarizeSelfTimes(t *testing.T) {
	spans := []span{
		{name: "campaign", start: 0, end: 100, parent: -1, track: "a"},
		{name: "x", start: 10, end: 30, parent: 0, track: "a"},
		{name: "x", start: 20, end: 40, parent: 0, track: "a"},
		{name: "batch", start: 50, end: 90, parent: 0, track: "a", contain: true},
		{name: "y", start: 55, end: 65, parent: 0, track: "a"},
		{name: "remote.server", start: 12, end: 18, parent: detached, track: "server"},
	}
	sum := summarize(spans)
	if sum.rootTotal != 100 || sum.rootSelf != 100-30-40 {
		t.Errorf("root total/self = %d/%d, want 100/30", sum.rootTotal, sum.rootSelf)
	}
	if b := sum.stat("batch"); b.self != 30 {
		t.Errorf("batch self = %d, want 40-10 = 30", b.self)
	}
	if x := sum.stat("x"); x.count != 2 || x.total != 40 || x.self != 40 {
		t.Errorf("x = %+v", x)
	}
}

func TestCompareCounts(t *testing.T) {
	known := map[string]float64{"draws_to_cert": 4100, "other": 1}
	if err := compareCounts(known, map[string]float64{"draws_to_cert": 4100, "new": 3}); err != nil {
		t.Fatal(err)
	}
	err := compareCounts(known, map[string]float64{"draws_to_cert": 4200})
	if !errors.Is(err, errCountChanged) {
		t.Fatalf("changed count: err = %v, want errCountChanged", err)
	}
}

// localCampaign runs one journaled IPFwd-L1 campaign of plan p on the
// serial path.
func localCampaign(t *testing.T, p plan) campaignRun {
	t.Helper()
	app, err := apps.ByName("IPFwd-L1", netgen.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	seed := search.RepSeed(1, 0)
	mk := func(*campaignTracer) (measureSource, error) {
		tb, err := netdps.NewTestbed(app, 8, netdps.WithSeed(seed))
		if err != nil {
			return measureSource{}, err
		}
		return measureSource{name: app.Name(), topo: tb.Machine.Topo, tasks: tb.TaskCount(), runner: core.AsContextRunner(tb)}, nil
	}
	c, err := runCampaign(context.Background(), t.TempDir(), "t0", seed, p, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// certified is a plan IPFwd-L1 certifies at its first fit.
var certified = plan{lossPct: 2.5, maxSamples: 2000}

func TestCheckCampaignRejectsCorruption(t *testing.T) {
	c := localCampaign(t, certified)
	if !c.res.Satisfied {
		t.Fatalf("campaign did not certify (%d draws)", c.draws())
	}
	if err := checkCampaign(c); err != nil {
		t.Fatalf("intact campaign rejected: %v", err)
	}

	bad := c
	bad.res.Final.Optimal = math.Nextafter(c.res.Final.Optimal, math.Inf(1))
	if err := checkCampaign(bad); !errors.Is(err, errUPBMismatch) {
		t.Errorf("UPB one ulp off: err = %v, want errUPBMismatch", err)
	}

	bad = c
	bad.res.Samples++
	if err := checkCampaign(bad); !errors.Is(err, errJournalMismatch) {
		t.Errorf("draw count off by one: err = %v, want errJournalMismatch", err)
	}

	// A campaign that ran out of budget, reported as certified.
	u := localCampaign(t, plan{lossPct: 0.01, maxSamples: 1100})
	if u.res.Satisfied {
		t.Fatal("a 0.01% target should not certify")
	}
	u.res.Satisfied = true
	if err := checkCampaign(u); !errors.Is(err, errGapAboveTarget) {
		t.Errorf("uncertified campaign claimed certified: err = %v, want errGapAboveTarget", err)
	}

	// A journal that lost its last entry.
	data, err := os.ReadFile(c.journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(c.journal, []byte(strings.Join(lines[:len(lines)-2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkCampaign(c); !errors.Is(err, errJournalMismatch) {
		t.Errorf("truncated journal: err = %v, want errJournalMismatch", err)
	}
}

func TestCheckSamplePassRejectsCorruption(t *testing.T) {
	app, err := apps.ByName(sampleApp, netgen.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := netdps.NewTestbed(app, sampleInstances, netdps.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	o := options{dir: t.TempDir()}
	p, err := runSamplePass(context.Background(), o, "p", 7, tb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSamplePass(p, tb); err != nil {
		t.Fatalf("intact pass rejected: %v", err)
	}
	if p.l2Hits == 0 || p.misses == 0 {
		t.Errorf("pass should miss and hit the cas tier: %+v", p)
	}

	bad := p
	bad.results = append([]core.SampleResult(nil), p.results...)
	bad.results[spotEvery].Perf = math.Nextafter(bad.results[spotEvery].Perf, 0)
	if err := checkSamplePass(bad, tb); !errors.Is(err, errSpotCheck) {
		t.Errorf("corrupted result: err = %v, want errSpotCheck", err)
	}

	bad = p
	bad.misses++
	if err := checkSamplePass(bad, tb); !errors.Is(err, errCacheAccounting) {
		t.Errorf("miss counted twice: err = %v, want errCacheAccounting", err)
	}
}

func TestCheckRowRejectsCorruption(t *testing.T) {
	c := localCampaign(t, certified)
	js, err := campaign.LoadJournal(c.journal)
	if err != nil {
		t.Fatal(err)
	}
	st := coord.Status{ID: c.id, State: coord.StateCompleted, Samples: c.res.Samples, Satisfied: true}
	row := coord.QueryResult{
		"status": "completed", "samples": int64(c.res.Samples), "quarantined": int64(0),
		"satisfied": true, "loss_pct": certified.lossPct,
		"gap_pct": c.res.Final.HeadroomHiPct, "upb": c.res.Final.Optimal,
	}
	if err := checkRow(row, st, js); err != nil {
		t.Fatalf("intact row rejected: %v", err)
	}
	for _, corrupt := range []struct {
		col  string
		val  any
		want error
	}{
		{"samples", int64(c.res.Samples + 1), errRowMismatch},
		{"status", "cancelled", errRowMismatch},
		{"satisfied", false, errRowMismatch},
		{"upb", c.res.Final.Optimal * 1.001, errRowMismatch},
		{"gap_pct", certified.lossPct + 1, errGapAboveTarget},
	} {
		bad := coord.QueryResult{}
		for k, v := range row {
			bad[k] = v
		}
		bad[corrupt.col] = corrupt.val
		if err := checkRow(bad, st, js); !errors.Is(err, corrupt.want) {
			t.Errorf("corrupted %s: err = %v, want %v", corrupt.col, err, corrupt.want)
		}
	}
}
