package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/obs"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestObservabilityEndToEnd drives a full instrumented campaign — server
// metrics, client metrics, campaign gauges, one obs.Mux — and scrapes
// /metrics both mid-campaign and after, the way cmd/measured and
// cmd/optassign wire it up.
func TestObservabilityEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()

	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Runner:  tb,
		Topo:    tb.Machine.Topo,
		Tasks:   tb.TaskCount(),
		Name:    "sim",
		Metrics: NewServerMetrics(reg),
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	web := httptest.NewServer(obs.Mux(reg, nil, func() any {
		return map[string]any{"benchmark": "sim"}
	}))
	defer web.Close()

	addr := l.Addr().String()
	client, err := DialConfig(ClientConfig{
		Dial:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Metrics: NewClientMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Scrape once from inside the campaign, at the 100th measurement —
	// the live-dashboard situation the endpoint exists for.
	var midScrape string
	measured := 0
	runner := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		measured++
		if measured == 100 {
			midScrape = scrape(t, web.URL+"/metrics")
		}
		return client.MeasureContext(ctx, a)
	})

	cfg := core.IterConfig{
		Topo:          tb.Machine.Topo,
		Tasks:         tb.TaskCount(),
		AcceptLossPct: 10, // generous: one round satisfies
		Ninit:         500,
		Ndelta:        200,
		MaxSamples:    1500,
		Seed:          4,
	}
	im := core.NewIterMetrics(reg)
	rounds := 0
	cfg.OnRound = func(r core.Round) {
		rounds++
		im.Observe(r)
	}
	res, err := core.IterateContext(context.Background(), cfg, runner)
	if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
		// Convergence is not what this test checks; running out of budget
		// still exercised every instrument.
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("campaign measured nothing")
	}

	for _, series := range []string{
		"optassign_server_requests_total",
		"optassign_server_connections_total",
		"optassign_remote_requests_total",
	} {
		if !strings.Contains(midScrape, series) {
			t.Errorf("mid-campaign scrape lacks %s", series)
		}
	}

	final := scrape(t, web.URL+"/metrics")
	for _, want := range []string{
		"# TYPE optassign_server_measure_seconds histogram",
		"optassign_campaign_samples",
		"optassign_campaign_upb",
		"optassign_campaign_rounds_total",
	} {
		if !strings.Contains(final, want) {
			t.Errorf("final scrape lacks %q", want)
		}
	}
	// The round counter counts the rounds the campaign reported.
	if rounds == 0 || !strings.Contains(final, fmt.Sprintf("\noptassign_campaign_rounds_total %d\n", rounds)) {
		t.Errorf("final scrape does not count the %d rounds reported", rounds)
	}
	// The wire agrees with itself: every request the client sent is a
	// request the server saw (single client, so the counts match exactly).
	var clientReqs, serverReqs string
	for _, line := range strings.Split(final, "\n") {
		if v, ok := strings.CutPrefix(line, "optassign_remote_requests_total "); ok {
			clientReqs = v
		}
		if v, ok := strings.CutPrefix(line, "optassign_server_requests_total "); ok {
			serverReqs = v
		}
	}
	if clientReqs == "" || clientReqs != serverReqs {
		t.Errorf("client sent %s requests, server saw %s", clientReqs, serverReqs)
	}

	resp, err := http.Get(web.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Status string         `json:"status"`
		Detail map[string]any `json:"detail"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Detail["benchmark"] != "sim" {
		t.Errorf("healthz = %+v", h)
	}
}
