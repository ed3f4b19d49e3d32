package serve

import (
	"net/http"
	"strconv"

	"qgraph/internal/obs/health"
)

// This file serves the active health layer's bounded structured event
// log. The endpoint degrades gracefully to an empty list when no Monitor
// is wired in, so probes and dashboards need no deployment-mode
// branching.

// eventsResponse is the GET /events body.
type eventsResponse struct {
	Events []health.Event `json:"events"`
}

// handleEvents lists health events newest-first.
//
//	?type=event_straggler   only this event type
//	?severity=warn          this severity or above (info|warn|critical)
//	?n=50                   at most n events (default 100)
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	f := health.EventFilter{Type: r.URL.Query().Get("type")}
	switch sev := r.URL.Query().Get("severity"); sev {
	case "", "info":
	case "warn":
		f.MinSeverity = health.SevWarn
	case "critical":
		f.MinSeverity = health.SevCritical
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad severity (want info|warn|critical)"})
		return
	}
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad n"})
			return
		}
		f.Limit = n
	}
	events := s.cfg.Monitor.Events(f)
	if events == nil {
		events = []health.Event{}
	}
	writeJSON(w, http.StatusOK, eventsResponse{Events: events})
}
