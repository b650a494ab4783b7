package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/evt"
)

// TestProgressLineRendersEachRoundKind: an estimated round shows its
// bound and gap, and a round without an estimate says why instead of
// printing invented numbers.
func TestProgressLineRendersEachRoundKind(t *testing.T) {
	base := core.Round{N: 3, Samples: 1200, Quarantined: 2, Best: 1.5e6}
	cases := []struct {
		name      string
		round     func(core.Round) core.Round
		want, not []string
	}{
		{"estimated", func(r core.Round) core.Round {
			r.Kind = core.RoundEstimated
			r.Estimate = core.Estimate{Optimal: 1.6e6, Lo: 1.55e6, Hi: 1.65e6, HeadroomHiPct: 9.09}
			r.Stream = evt.StreamLive{Fitted: true, TailCount: 40, RefitCount: 3}
			return r
		}, []string{"round 3: n=1200 best=1.5e+06", "upb=1.6e+06 ±5e+04", "CI=[1.55e+06, 1.65e+06]", "gap=9.09%", "tail=40 refits=3", "quarantined=2"},
			[]string{"no estimate"}},
		{"estimated-unbounded-ci", func(r core.Round) core.Round {
			r.Kind = core.RoundEstimated
			r.Estimate = core.Estimate{Optimal: 1.6e6, Lo: 1.55e6, Hi: math.Inf(1), HeadroomHiPct: math.Inf(1)}
			return r
		}, []string{"upb=1.6e+06 CI=[1.55e+06, +Inf] gap=+Inf%"},
			[]string{"±", "no estimate"}},
		{"unbounded", func(r core.Round) core.Round {
			r.Kind = core.RoundUnbounded
			return r
		}, []string{"round 3: n=1200", "no estimate: tail not yet bounded, sampling more"},
			[]string{"upb", "CI=", "gap", "%!"}},
		{"tail-unsafe", func(r core.Round) core.Round {
			r.Kind = core.RoundTailUnsafe
			return r
		}, []string{"round 3: n=1200", "no estimate: the strategy is not tail-safe"},
			[]string{"upb", "CI=", "gap", "refits", "%!"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			p := &progressPrinter{out: &out}
			p.round(c.round(base))
			line := out.String()
			for _, w := range c.want {
				if !strings.Contains(line, w) {
					t.Errorf("line %q lacks %q", line, w)
				}
			}
			for _, n := range c.not {
				if strings.Contains(line, n) {
					t.Errorf("line %q contains %q", line, n)
				}
			}
		})
	}
}

// TestProgressLineOverwrites: each line starts with a carriage return
// and pads over a longer previous one.
func TestProgressLineOverwrites(t *testing.T) {
	var out bytes.Buffer
	p := &progressPrinter{out: &out}
	p.round(core.Round{N: 1, Samples: 100, Kind: core.RoundUnbounded})
	first := out.Len()
	out.Reset()
	p.round(core.Round{N: 2, Samples: 200, Kind: core.RoundTailUnsafe})
	if got := out.String(); !strings.HasPrefix(got, "\r") || len(got) < first {
		t.Fatalf("second line %q does not overwrite a %d-byte first", got, first)
	}
	var nilPrinter *progressPrinter
	nilPrinter.round(core.Round{}) // a nil printer prints nothing
	nilPrinter.done()
}

// TestReportWithoutEstimate: a campaign that never estimated reports the
// missing estimate and its reason, not a zero optimum and loss bound.
func TestReportWithoutEstimate(t *testing.T) {
	res := core.IterResult{
		Best:    core.SampleResult{Assignment: assign.Assignment{Ctx: []int{0, 1, 2}}, Perf: 1.5e6},
		Samples: 400,
	}
	for _, c := range []struct {
		tailSafe bool
		reason   string
	}{
		{false, "no estimate: the strategy is not tail-safe"},
		{true, "no estimate: the tail was never bounded"},
	} {
		var out bytes.Buffer
		if report(&out, res, c.tailSafe, 2.5) {
			t.Fatal("a campaign without an estimate reported the requirement met")
		}
		got := out.String()
		for _, w := range []string{"measured 400 assignments", "measured performance:   1.5e+06 PPS", c.reason, "no estimate to check the 2.50% requirement against"} {
			if !strings.Contains(got, w) {
				t.Errorf("tail-safe %v: report lacks %q:\n%s", c.tailSafe, w, got)
			}
		}
		for _, n := range []string{"random", "0 PPS (0.95 CI", "loss bound", "P(1000"} {
			if strings.Contains(got, n) {
				t.Errorf("tail-safe %v: report contains %q:\n%s", c.tailSafe, n, got)
			}
		}
	}
}

// TestReportWithEstimate: a certified campaign reports its estimate,
// loss bound and the met requirement.
func TestReportWithEstimate(t *testing.T) {
	est := core.Estimate{Report: evt.Report{N: 1000}, BestObserved: 1.5e6, Optimal: 1.52e6, Lo: 1.5e6, Hi: 1.53e6, HeadroomHiPct: 1.96}
	res := core.IterResult{
		Best:      core.SampleResult{Assignment: assign.Assignment{Ctx: []int{0, 1, 2}}, Perf: 1.5e6},
		Samples:   1000,
		Final:     est,
		Satisfied: true,
	}
	var out bytes.Buffer
	if !report(&out, res, true, 2.5) {
		t.Fatal("a satisfied campaign reported the requirement unmet")
	}
	got := out.String()
	for _, w := range []string{"estimated optimum:      1.52e+06 PPS (0.95 CI [1.5e+06, 1.53e+06])", "guaranteed loss bound:  1.96%", "requirement met: loss <= 2.50%"} {
		if !strings.Contains(got, w) {
			t.Errorf("report lacks %q:\n%s", w, got)
		}
	}
}
