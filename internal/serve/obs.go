package serve

import (
	"bufio"
	"net/http"
	"strconv"

	"qgraph/internal/obs"
	"qgraph/internal/query"
)

// This file is the serving layer's share of the observability substrate
// (internal/obs): per-request trace creation (the root of the span tree
// the controller and workers extend via query.Spec.TraceID), the
// Prometheus-text /metrics endpoint, and the /trace//traces inspection
// API over the tracer's completed-trace ring.

// registerMetrics wires the serving layer's one family into the registry:
// the cache invalidation count, read from the atomic /stats serializes as
// cache_invalidations. A second Server sharing the registry keeps the
// first one's series (first registration wins).
func (s *Server) registerMetrics() {
	s.obs.M().CounterFunc("qgraph_cache_invalidations_total", "",
		"cache entries evicted by commits that touched their scope",
		func() float64 { return float64(s.ctr.Invalidated.Load()) })
}

// beginTrace opens the root trace for one request and binds it to the
// query ID the controller will see; spec.TraceID carries the correlation
// to worker logs. A nonzero spec.TraceID (an inbound X-QGraph-Trace-ID)
// is honored so this node's spans join the caller's tree. Returns nil
// when tracing is disabled.
func (s *Server) beginTrace(spec *query.Spec) *obs.Trace {
	tr := s.tracer.BeginWithID("query", spec.TraceID)
	if tr == nil {
		return nil
	}
	spec.TraceID = tr.ID()
	root := tr.Root()
	root.SetAttr("kind", spec.Kind.String())
	root.SetAttr("query", int64(spec.ID))
	s.tracer.BindQuery(int64(spec.ID), tr)
	return tr
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	s.obs.M().WritePrometheus(bw)
	_ = bw.Flush()
}

// tracedQuery is the /trace and /traces response shape: the span tree
// plus its flattened phase attribution (share of wall time per phase).
type tracedQuery struct {
	Trace  obs.TraceView    `json:"trace"`
	Phases []obs.PhaseShare `json:"phases"`
}

// handleTrace serves GET /trace/{query_id}: the newest trace (completed
// preferred, else in flight) for that engine query id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	q, err := strconv.ParseInt(r.PathValue("query_id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad query id"})
		return
	}
	v, ok := s.obs.T().Get(q)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no trace for query (evicted, untraced, or never ran)"})
		return
	}
	writeJSON(w, http.StatusOK, tracedQuery{Trace: v, Phases: obs.Attribute(v)})
}

// handleTraceByID serves GET /trace/by-id/{trace_id}: the newest trace
// carrying that propagated trace ID. This is the stitching fetch — a
// caller knows the trace ID it propagated, never the node-local query
// ID, so /trace/{query_id} cannot serve it.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("trace_id"), 10, 64)
	if err != nil || id == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad trace id"})
		return
	}
	v, ok := s.obs.T().GetByTraceID(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no trace with that id (evicted, untraced, or never ran)"})
		return
	}
	writeJSON(w, http.StatusOK, tracedQuery{Trace: v, Phases: obs.Attribute(v)})
}

// handleTraces serves GET /traces?slowest=N: the N slowest completed
// traces in the retention ring, slowest first. Optional filters narrow
// the view before the N cutoff: ?min_ms= keeps traces at least that
// slow.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 10
	if raw := r.URL.Query().Get("slowest"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad slowest= value"})
			return
		}
		n = v
	}
	minMS := 0.0
	if raw := r.URL.Query().Get("min_ms"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad min_ms= value"})
			return
		}
		minMS = v
	}
	views := s.obs.T().Slowest(n)
	if minMS > 0 {
		// Filters apply before the N cutoff: refetch the whole completed
		// ring so a filtered view isn't starved by unrelated slow traces.
		_, completed := s.obs.T().Occupancy()
		views = s.obs.T().Slowest(completed)
		kept := views[:0]
		for _, v := range views {
			if v.DurationMS >= minMS {
				kept = append(kept, v)
			}
		}
		views = kept
		if len(views) > n {
			views = views[:n]
		}
	}
	out := make([]tracedQuery, len(views))
	for i, v := range views {
		out[i] = tracedQuery{Trace: v, Phases: obs.Attribute(v)}
	}
	writeJSON(w, http.StatusOK, out)
}
