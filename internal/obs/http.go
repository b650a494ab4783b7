package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// MetricsHandler serves reg in Prometheus text exposition format.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
}

// Health is what /healthz reports.
type Health struct {
	Status string `json:"status"` // "ok" or "unhealthy"
	Error  string `json:"error,omitempty"`
	Detail any    `json:"detail,omitempty"`
}

// HealthHandler serves a JSON health report: 200 {"status":"ok"} while
// check returns nil, 503 with the error otherwise. A nil check always
// reports healthy (the process answering is the health signal). detail,
// if non-nil, is invoked per request and embedded verbatim — identity
// info like benchmark name, topology and uptime belongs there.
func HealthHandler(check func() error, detail func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := Health{Status: "ok"}
		code := http.StatusOK
		if check != nil {
			if err := check(); err != nil {
				h.Status = "unhealthy"
				h.Error = err.Error()
				code = http.StatusServiceUnavailable
			}
		}
		if detail != nil {
			h.Detail = detail()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(h)
	})
}

// Mux wires the conventional observability endpoints — /metrics
// (Prometheus text format), /healthz (JSON) and the runtime profiles
// under /debug/pprof/ — onto one handler, ready for http.Serve on
// whatever listener the command owns.
func Mux(reg *Registry, check func() error, detail func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/healthz", HealthHandler(check, detail))
	HandleProfiles(mux)
	return mux
}

// HandleProfiles serves the runtime's profiles (net/http/pprof: CPU,
// heap, goroutines, execution trace) under /debug/pprof/ on mux, so a
// running command can be profiled where its metrics are scraped.
func HandleProfiles(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
