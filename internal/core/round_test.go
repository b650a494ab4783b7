package core_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/obs"
	"optassign/internal/search"
)

// exploreProbe wraps a strategy and records each draw's Explore flag in
// draw order.
type exploreProbe struct {
	search.Strategy
	explore []bool
}

func (p *exploreProbe) Next(rng *rand.Rand, h *search.History) (search.Draw, error) {
	d, err := p.Strategy.Next(rng, h)
	if err == nil {
		p.explore = append(p.explore, d.Explore)
	}
	return d, err
}

// scrapeValue reads one series' value from reg's Prometheus exposition.
func scrapeValue(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("exposition lacks %s", series)
	return 0
}

// TestIterMetricsStreamGauges: with IterMetrics attached, the stream and
// search series at a campaign's end agree with the campaign they watched.
// The stream's observations are the committed draws that are not
// exploration, its refits the rounds that estimated, the round counter
// the rounds reported and the search draw counter the committed draws —
// for a tail-safe strategy with exploration draws and for one that is
// not tail-safe, serially and on three workers.
func TestIterMetricsStreamGauges(t *testing.T) {
	// The pinned counts are the values the per-round hooks published
	// before the round record replaced them.
	cases := []struct {
		name                    string
		loss                    float64
		rounds, draws, observed int
	}{
		{"greedy", 1, 3, 160, 160}, // certified before greedy explores
		{"greedy", 0.1, 6, 250, 205},
		{"anneal", 0.1, 6, 250, 100},
	}
	for _, c := range cases {
		name, loss := c.name, c.loss
		for _, p := range drawAheadPaths {
			t.Run(fmt.Sprintf("%s-loss%v-%s", name, loss, p.name), func(t *testing.T) {
				reg := obs.NewRegistry()
				sm := search.NewMetrics(reg, name)
				strat, err := search.New(name, nil, sm)
				if err != nil {
					t.Fatal(err)
				}
				probe := &exploreProbe{Strategy: strat}
				im := core.NewIterMetrics(reg)
				im.Search = sm
				rounds, estimated := 0, 0
				cfg := drawAheadConfig(loss)
				cfg.Strategy = probe
				cfg.OnRound = func(r core.Round) {
					rounds++
					if r.Kind == core.RoundEstimated {
						estimated++
					}
					im.Observe(r)
				}
				commits := 0
				res, err := p.run(context.Background(), cfg, func(assign.Assignment, float64, error) error {
					commits++
					return nil
				})
				if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
					t.Fatal(err)
				}
				if commits != res.Samples+len(res.Quarantined) {
					t.Fatalf("%d commits, %d draws in the result", commits, res.Samples+len(res.Quarantined))
				}
				observed := 0
				for _, e := range probe.explore[:commits] {
					if !e {
						observed++
					}
				}
				if rounds != c.rounds || commits != c.draws || observed != c.observed {
					t.Fatalf("%d rounds, %d draws, %d observed; want %d, %d, %d",
						rounds, commits, observed, c.rounds, c.draws, c.observed)
				}
				// On this landscape every round of a tail-safe strategy
				// estimates; the others never do.
				if wantEst := map[bool]int{true: rounds}[probe.TailSafe()]; estimated != wantEst {
					t.Fatalf("%d of %d rounds estimated, want %d", estimated, rounds, wantEst)
				}
				label := fmt.Sprintf("{strategy=%q}", name)
				for _, s := range []struct {
					series string
					want   int
				}{
					{"optassign_stream_observed", observed},
					{"optassign_stream_refit_count", estimated},
					{"optassign_campaign_rounds_total", rounds},
					{"optassign_search_draws_total" + label, commits},
				} {
					if got := scrapeValue(t, reg, s.series); got != float64(s.want) {
						t.Errorf("%s = %v, want %d", s.series, got, s.want)
					}
				}
			})
		}
	}
}
