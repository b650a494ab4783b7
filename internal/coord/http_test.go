package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optassign/internal/obs"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Request.URL, err)
	}
	return m
}

func TestHTTPAPI(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := Open(Config{DataDir: t.TempDir(), Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler(reg))
	defer srv.Close()

	// Bad spec -> 400 with an error body.
	resp, body := postJSON(t, srv.URL+"/campaigns", Spec{ID: "bad"})
	if resp.StatusCode != http.StatusBadRequest || body["error"] == "" {
		t.Fatalf("bad spec: %d %v", resp.StatusCode, body)
	}

	// Submit -> 201 with the queued/running status.
	spec := smallSpec("web", 5)
	resp, body = postJSON(t, srv.URL+"/campaigns", spec)
	if resp.StatusCode != http.StatusCreated || body["id"] != "web" {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}

	// Duplicate -> 409.
	if resp, _ = postJSON(t, srv.URL+"/campaigns", spec); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit: %d, want 409", resp.StatusCode)
	}

	// Unknown campaign -> 404 on status and lifecycle verbs.
	if resp, _ = getJSON(t, srv.URL+"/campaigns/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown status: %d, want 404", resp.StatusCode)
	}
	if resp, _ = postJSON(t, srv.URL+"/campaigns/nope/pause", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown pause: %d, want 404", resp.StatusCode)
	}

	// Poll status until terminal; the payload carries the live figures.
	deadline := time.Now().Add(time.Minute)
	for {
		resp, body = getJSON(t, srv.URL+"/campaigns/web")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %v", resp.StatusCode, body)
		}
		if s := body["state"].(string); State(s).Terminal() || s == string(StateFailed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never finished: %v", body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if body["state"] != string(StateCompleted) {
		t.Fatalf("campaign state %v (error %v)", body["state"], body["error"])
	}
	if body["samples"].(float64) == 0 || body["upb"].(float64) == 0 {
		t.Fatalf("terminal status missing figures: %v", body)
	}

	// The live convergence line renders from the same status.
	var st Status
	raw, _ := json.Marshal(body)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if line := st.Summary(); !strings.Contains(line, "upb=") || !strings.Contains(line, "±") {
		t.Fatalf("summary line %q lacks the upb=… ±… figures", line)
	}

	// Lifecycle verb on a terminal campaign -> 409.
	if resp, _ = postJSON(t, srv.URL+"/campaigns/web/pause", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("pause of completed: %d, want 409", resp.StatusCode)
	}

	// List, with and without filters.
	resp, body = getJSON(t, srv.URL+"/campaigns?state=completed")
	if resp.StatusCode != http.StatusOK || body["count"].(float64) != 1 {
		t.Fatalf("list: %d %v", resp.StatusCode, body)
	}
	if _, body = getJSON(t, srv.URL+"/campaigns?benchmark=other"); body["count"].(float64) != 0 {
		t.Fatalf("filtered list: %v", body)
	}

	// Query over promoted rows; a bad filter is a 400.
	resp, body = getJSON(t, srv.URL+"/query?q="+
		"id=web,satisfied=true")
	if resp.StatusCode != http.StatusOK || body["count"].(float64) != 1 {
		t.Fatalf("query: %d %v", resp.StatusCode, body)
	}
	row := body["rows"].([]any)[0].(map[string]any)
	if row["benchmark"] != "IPFwd-L1" || row["status"] != "completed" {
		t.Fatalf("query row: %v", row)
	}
	if resp, _ = getJSON(t, srv.URL+"/query?q=nope=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter: %d, want 400", resp.StatusCode)
	}

	// Observability endpoints ride along.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := make([]byte, 1<<16)
	n, _ := mresp.Body.Read(mbody)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !strings.Contains(string(mbody[:n]), "campaignd_promotions_total") {
		t.Fatalf("metrics endpoint: %d", mresp.StatusCode)
	}
	if hresp, hbody := getJSON(t, srv.URL+"/healthz"); hresp.StatusCode != http.StatusOK || hbody == nil {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
	presp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: %d", presp.StatusCode)
	}
}

// TestHTTPPauseResume exercises the lifecycle verbs over HTTP against a
// long-running campaign.
func TestHTTPPauseResume(t *testing.T) {
	c, err := Open(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler(nil))
	defer srv.Close()

	spec := smallSpec("hp", 9)
	spec.MaxSamples = 500000
	spec.LossPct = 1e-6
	if resp, body := postJSON(t, srv.URL+"/campaigns", spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	waitForJournalGrowth(t, c.JournalPath("hp"), 500)

	resp, body := postJSON(t, srv.URL+"/campaigns/hp/pause", nil)
	if resp.StatusCode != http.StatusOK || body["state"] != string(StatePaused) {
		t.Fatalf("pause: %d %v", resp.StatusCode, body)
	}
	waitSettled(t, c)

	resp, body = postJSON(t, srv.URL+"/campaigns/hp/resume", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv.URL+"/campaigns/hp/cancel", nil)
	if resp.StatusCode != http.StatusOK || body["state"] != string(StateCancelled) {
		t.Fatalf("cancel: %d %v", resp.StatusCode, body)
	}
	waitSettled(t, c)
	if resp, body = getJSON(t, srv.URL+"/campaigns/hp"); body["state"] != string(StateCancelled) {
		t.Fatalf("after cancel: %v", body)
	}
}
