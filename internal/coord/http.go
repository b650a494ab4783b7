package coord

import (
	"encoding/json"
	"errors"
	"net/http"

	"optassign/internal/campaign"
	"optassign/internal/obs"
	"optassign/internal/table"
)

// Handler serves the coordinator's HTTP API:
//
//	POST /campaigns                submit a Spec (JSON body) -> 201 Status
//	GET  /campaigns                list; ?state= and ?benchmark= filter
//	GET  /campaigns/{id}           one campaign's live Status
//	POST /campaigns/{id}/pause     stop at the next measurement boundary
//	POST /campaigns/{id}/resume    re-admit a paused or failed campaign
//	POST /campaigns/{id}/cancel    terminate; journal kept, row promoted
//	GET  /query?q=EXPR             predicate query over promoted rows
//
// plus /metrics, /healthz and /debug/pprof/ when a registry is supplied.
// Conflicts — duplicate ids, a journal locked by another process,
// lifecycle transitions the state forbids — map to 409; malformed specs
// and filter expressions to 400; unknown campaigns to 404.
func (c *Coordinator) Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", obs.MetricsHandler(reg))
		mux.Handle("/healthz", obs.HealthHandler(nil, func() any {
			c.mu.Lock()
			defer c.mu.Unlock()
			return map[string]any{
				"campaigns": len(c.campaigns),
				"running":   c.running,
				"queued":    len(c.queue),
				"rows":      c.table.Len(),
			}
		}))
		obs.HandleProfiles(mux)
	}

	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		st, err := c.Submit(spec)
		if err != nil {
			httpError(w, codeFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})

	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		list := c.List(State(q.Get("state")), q.Get("benchmark"))
		writeJSON(w, http.StatusOK, map[string]any{"campaigns": list, "count": len(list)})
	})

	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, codeFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	lifecycle := func(f func(string) (Status, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			st, err := f(r.PathValue("id"))
			if err != nil {
				httpError(w, codeFor(err), err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		}
	}
	mux.HandleFunc("POST /campaigns/{id}/pause", lifecycle(c.Pause))
	mux.HandleFunc("POST /campaigns/{id}/resume", lifecycle(c.Resume))
	mux.HandleFunc("POST /campaigns/{id}/cancel", lifecycle(c.Cancel))

	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		rows, err := c.Query(r.URL.Query().Get("q"))
		if err != nil {
			httpError(w, codeFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"rows": rows, "count": len(rows)})
	})

	return mux
}

// codeFor maps the coordinator's typed errors to HTTP status codes.
func codeFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownCampaign):
		return http.StatusNotFound
	case errors.Is(err, ErrCampaignExists),
		errors.Is(err, ErrWrongState),
		errors.Is(err, ErrClosed),
		errors.Is(err, campaign.ErrJournalBusy),
		errors.Is(err, campaign.ErrJournalExists),
		errors.Is(err, table.ErrTableBusy):
		return http.StatusConflict
	case errors.Is(err, table.ErrBadFilter), errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
