package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qgraph/internal/core"
	"qgraph/internal/faultpoint"
	"qgraph/internal/obs"
	"qgraph/internal/obs/health"
)

// getJSON decodes a GET response body into out and returns the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestStragglerWatchdogEndToEnd injects a deterministically slow worker
// through the compute-slow faultpoint and asserts the whole detection
// path on the monitor's defaults: /healthz flips from ok to degraded
// naming the straggler, /events records the detection, /metrics carries
// the per-worker step gauge, and clearing the fault restores ok.
func TestStragglerWatchdogEndToEnd(t *testing.T) {
	net := testRoad(t)
	o := obs.New(nil)
	mon := health.New(health.Config{}, o)
	eng, err := core.Start(core.Config{
		Workers: 4, Graph: net.G,
		Obs: o, Monitor: mon,
	})
	if err != nil {
		t.Fatalf("core.Start: %v", err)
	}
	defer eng.Close()
	srv, err := New(Config{Backend: eng.Controller(), GraphID: 7, Obs: o, Monitor: mon})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var hz healthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("/healthz before the fault = %d %+v, want 200 ok", code, hz)
	}

	// Worker 0 sleeps 5ms inside every measured superstep window — far
	// over both its peers and the detector's 1ms absolute floor.
	disarm := faultpoint.Arm(faultpoint.WorkerComputeSlow, func(args ...int) bool {
		if len(args) > 0 && args[0] == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		return false
	})
	defer disarm()

	n := int64(net.G.NumVertices())
	next := int64(0)
	drive := func() {
		// Distinct endpoints every call so the result cache never absorbs
		// the query before it reaches the engine.
		src := next % n
		dst := (next*7 + 13) % n
		next++
		code, _, _ := postQuery(t, ts.URL, QueryRequest{
			Kind: "sssp", Source: src, Target: target(dst),
		})
		if code != 200 {
			t.Fatalf("query %d: status %d", next, code)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("straggler never detected; last /healthz: %+v", hz)
		}
		drive()
		code := getJSON(t, ts.URL+"/healthz", &hz)
		if hz.Status == "degraded" {
			if code != http.StatusServiceUnavailable {
				t.Fatalf("degraded /healthz returned %d, want 503", code)
			}
			break
		}
	}
	if len(hz.Stragglers) != 1 || hz.Stragglers[0] != 0 {
		t.Fatalf("/healthz stragglers = %v, want [0]", hz.Stragglers)
	}

	// The detection is on the event timeline, filterable by type.
	var evs eventsResponse
	getJSON(t, ts.URL+"/events?type=event_straggler", &evs)
	if len(evs.Events) == 0 || evs.Events[0].Worker != 0 {
		t.Fatalf("/events?type=event_straggler = %+v", evs.Events)
	}

	// The per-worker step gauge names the slow worker.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metricsText, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if !strings.Contains(string(metricsText), `qgraph_worker_step_ewma_ms{worker="0"}`) {
		t.Fatal(`/metrics lacks qgraph_worker_step_ewma_ms{worker="0"}`)
	}

	// Clear the fault: after m healthy supersteps the watchdog recovers
	// the worker and /healthz returns to ok.
	disarm()
	for {
		if time.Now().After(deadline) {
			t.Fatalf("straggler never cleared; last /healthz: %+v", hz)
		}
		drive()
		hz = healthzResponse{} // omitempty fields would otherwise persist across decodes
		code := getJSON(t, ts.URL+"/healthz", &hz)
		if hz.Status == "ok" {
			if code != http.StatusOK {
				t.Fatalf("ok /healthz returned %d", code)
			}
			break
		}
	}
	if len(hz.Stragglers) != 0 {
		t.Fatalf("recovered /healthz still lists stragglers: %v", hz.Stragglers)
	}
	var clear eventsResponse
	getJSON(t, ts.URL+"/events?type=event_straggler_clear", &clear)
	if len(clear.Events) == 0 || clear.Events[0].Worker != 0 {
		t.Fatalf("/events?type=event_straggler_clear = %+v", clear.Events)
	}
}

// TestHealthEndpointsValidation covers the /events parameter edges
// against a server with a monitor that saw no traffic, and checks that
// the retired service-level and flight-recorder endpoints are gone.
func TestHealthEndpointsValidation(t *testing.T) {
	o := obs.New(nil)
	mon := health.New(health.Config{}, o)
	srv, err := New(Config{Backend: newStubBackend(), GraphID: 1, Obs: o, Monitor: mon})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var evs eventsResponse
	if code := getJSON(t, ts.URL+"/events", &evs); code != 200 || evs.Events == nil {
		t.Fatalf("/events = %d %+v, want 200 with empty list", code, evs)
	}
	if code := getJSON(t, ts.URL+"/events?severity=loud", nil); code != 400 {
		t.Fatalf("bad severity: %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/events?n=-1", nil); code != 400 {
		t.Fatalf("bad n: %d, want 400", code)
	}
	for _, path := range []string{"/slo", "/debug/incidents", "/debug/incident/latest"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, code)
		}
	}
	mon.Record(health.EventSnapshotCut, health.SevInfo, -1, "cut", nil)
	mon.Record(health.EventWorkerDead, health.SevWarn, 2, "gone", nil)
	if getJSON(t, ts.URL+"/events?severity=warn", &evs); len(evs.Events) != 1 {
		t.Fatalf("severity filter over HTTP = %+v", evs.Events)
	}
	if getJSON(t, fmt.Sprintf("%s/events?type=%s", ts.URL, health.EventSnapshotCut), &evs); len(evs.Events) != 1 {
		t.Fatalf("type filter over HTTP = %+v", evs.Events)
	}
}
