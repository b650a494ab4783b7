package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this doubles as the data-race check for the CAS hot path.
func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 16, 2000
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(goroutines*perG)*1.5; got != want {
		t.Fatalf("counter = %v, want %v", got, want)
	}
}

func TestCounterRejectsDecreases(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-1)
	c.Add(math.NaN())
	c.Add(math.Inf(1))
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	const goroutines, perG = 16, 2000
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Inc()
				g.Dec()
				g.Add(2)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(goroutines*perG*2); got != want {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 8, 1000
	h := newHistogram([]float64{1, 10})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(0.5) // le 1
				h.Observe(5)   // le 10
				h.Observe(50)  // +Inf
			}
		}()
	}
	wg.Wait()
	n := uint64(goroutines * perG)
	if got := h.Count(); got != 3*n {
		t.Fatalf("count = %d, want %d", got, 3*n)
	}
	if got, want := h.Sum(), float64(n)*(0.5+5+50); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if got := h.counts[0].Load(); got != n {
		t.Fatalf("bucket le=1 count %d, want %d", got, n)
	}
	if got := h.inf.Load(); got != n {
		t.Fatalf("+Inf bucket count %d, want %d", got, n)
	}
}

// TestNilSafety is the zero-overhead-when-disabled contract: nothing may
// panic when observability is off.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram observed something")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("y", "") != nil || r.Histogram("z", "", nil) != nil {
		t.Fatal("nil registry handed out a live instrument")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	Emit(nil, "anything", F("k", "v"))
	if MultiSink(nil, nil) != nil {
		t.Fatal("MultiSink of nils is not nil")
	}
}

func TestRegistryReusesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "hits", L("worker", "0"))
	b := r.Counter("hits_total", "hits", L("worker", "0"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("hits_total", "hits", L("worker", "1"))
	if a == other {
		t.Fatal("distinct labels share a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("hits_total", "oops")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("draws_total", "completed draws").Add(42)
	r.Counter("busy_seconds_total", "busy time", L("worker", "0")).Add(1.5)
	r.Counter("busy_seconds_total", "busy time", L("worker", "1")).Add(2.5)
	r.Gauge("upb", "estimated optimum").Set(1.25e6)
	h := r.Histogram("lag", "commit lag", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP draws_total completed draws
# TYPE draws_total counter
draws_total 42
# HELP busy_seconds_total busy time
# TYPE busy_seconds_total counter
busy_seconds_total{worker="0"} 1.5
busy_seconds_total{worker="1"} 2.5
# HELP upb estimated optimum
# TYPE upb gauge
upb 1.25e+06
# HELP lag commit lag
# TYPE lag histogram
lag_bucket{le="1"} 1
lag_bucket{le="10"} 2
lag_bucket{le="+Inf"} 3
lag_sum 103.5
lag_count 3
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("errs_total", "", L("cause", "read \"x\"\nfailed")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `errs_total{cause="read \"x\"\nfailed"} 1`) {
		t.Fatalf("labels not escaped:\n%s", b.String())
	}
}

func TestLogSink(t *testing.T) {
	var b strings.Builder
	s := &LogSink{W: &b}
	Emit(s, "retry", F("attempt", 2), F("error", "broken pipe detected"))
	if got, want := b.String(), "retry attempt=2 error=\"broken pipe detected\"\n"; got != want {
		t.Fatalf("log line = %q, want %q", got, want)
	}
}

func TestCollectorAndMultiSink(t *testing.T) {
	var a, b CollectorSink
	s := MultiSink(&a, nil, &b)
	Emit(s, "quarantine", F("attempts", 3))
	Emit(s, "retry")
	if a.Count("quarantine") != 1 || b.Count("quarantine") != 1 || a.Count("retry") != 1 {
		t.Fatalf("multi sink did not fan out: %v / %v", a.Events(), b.Events())
	}
	if got := a.Events()[0].Field("attempts"); got != 3 {
		t.Fatalf("field attempts = %v, want 3", got)
	}
	if a.Events()[0].Field("missing") != nil {
		t.Fatal("missing field is non-nil")
	}
}

func TestHTTPHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "requests").Add(7)
	unhealthy := false
	mux := Mux(r, func() error {
		if unhealthy {
			return errDown
		}
		return nil
	}, func() any { return map[string]string{"benchmark": "IPFwd-L1"} })

	srv := httptest.NewServer(mux)
	defer srv.Close()

	body, ct, code := httpGet(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "requests_total 7") {
		t.Fatalf("/metrics missing series:\n%s", body)
	}

	body, ct, code = httpGet(t, srv.URL+"/healthz")
	if code != 200 || !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, "IPFwd-L1") {
		t.Fatalf("/healthz = %d %q (%s)", code, body, ct)
	}

	unhealthy = true
	body, _, code = httpGet(t, srv.URL+"/healthz")
	if code != 503 || !strings.Contains(body, "testbed down") {
		t.Fatalf("unhealthy /healthz = %d %q", code, body)
	}
}

// TestMuxServesProfiles: the runtime profiles sit beside /metrics and
// /healthz, which answer exactly as they do without them.
func TestMuxServesProfiles(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "requests").Add(7)
	detail := func() any { return map[string]string{"benchmark": "IPFwd-L1"} }
	mux := Mux(r, nil, detail)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	body, ct, code := httpGet(t, srv.URL+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d %q (%s)", code, body, ct)
	}
	body, _, code = httpGet(t, srv.URL+"/debug/pprof/goroutine?debug=1")
	if code != 200 || !strings.Contains(body, "goroutine profile") {
		t.Fatalf("/debug/pprof/goroutine = %d %q", code, body)
	}

	// The other endpoints are byte-for-byte what their own handlers serve.
	plain := http.NewServeMux()
	plain.Handle("/metrics", MetricsHandler(r))
	plain.Handle("/healthz", HealthHandler(nil, detail))
	ref := httptest.NewServer(plain)
	defer ref.Close()
	for _, path := range []string{"/metrics", "/healthz"} {
		body, ct, code := httpGet(t, srv.URL+path)
		wantBody, wantCT, wantCode := httpGet(t, ref.URL+path)
		if body != wantBody || ct != wantCT || code != wantCode {
			t.Fatalf("%s = %d %q (%s), want %d %q (%s)", path, code, body, ct, wantCode, wantBody, wantCT)
		}
	}
}
