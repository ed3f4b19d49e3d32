package health

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qgraph/internal/obs"
)

// sloTable is the per-tenant SLO ledger: latency histograms, goodput,
// and error-budget burn, keyed by the tenant id the weighted-fair
// scheduler tracks. The table is bounded — tenant ids are client-
// supplied strings, so past MaxTenants new tenants fold into the
// "(other)" bucket instead of growing the map (and the metric registry)
// without bound.
type sloTable struct {
	target    time.Duration
	objective float64
	max       int
	reg       *obs.Registry

	mu      sync.Mutex
	tenants map[string]*tenantSLO
	order   []string
}

// tenantSLO is one tenant's accounting. The counter ledger is shared
// with /metrics via CounterFunc mirrors; recentBad is an EWMA of the
// per-request bad fraction, the "burn right now" signal that recovers
// after an incident while the cumulative ratio still remembers it.
type tenantSLO struct {
	counters  tenantCounters
	hist      *obs.Histogram
	recentBad float64 // EWMA of bad (0/1) per request, guarded by sloTable.mu
}

// tenantCounters is the lock-free per-tenant request ledger: every
// finished request is classified into exactly one outcome bucket, and Good
// additionally counts the completed requests that met the latency target.
// The fields are atomics because /metrics reads them without sloTable.mu.
type tenantCounters struct {
	Requests atomic.Int64 // every classified request
	Good     atomic.Int64 // completed within the latency target
	SlowOK   atomic.Int64 // completed, but over the latency target
	Rejected atomic.Int64 // 429: admission queue full
	Expired  atomic.Int64 // 504: deadline passed before completion
	Failed   atomic.Int64 // 503: engine-side failure
}

// TenantSnapshot is the JSON shape of one tenant's ledger.
type TenantSnapshot struct {
	Requests int64 `json:"requests"`
	Good     int64 `json:"good"`
	SlowOK   int64 `json:"slow_ok"`
	Rejected int64 `json:"rejected"`
	Expired  int64 `json:"expired"`
	Failed   int64 `json:"failed"`
}

func (c *tenantCounters) snapshot() TenantSnapshot {
	return TenantSnapshot{
		Requests: c.Requests.Load(),
		Good:     c.Good.Load(),
		SlowOK:   c.SlowOK.Load(),
		Rejected: c.Rejected.Load(),
		Expired:  c.Expired.Load(),
		Failed:   c.Failed.Load(),
	}
}

// overflowTenant absorbs tenants past the table bound.
const overflowTenant = "(other)"

// recentAlpha weights the newest request in the recent-burn EWMA: at
// 0.05, ~60 good requests halve the recent burn.
const recentAlpha = 0.05

func newSLOTable(cfg Config, reg *obs.Registry) *sloTable {
	return &sloTable{
		target:    cfg.SLOTarget,
		objective: cfg.SLOObjective,
		max:       cfg.MaxTenants,
		reg:       reg,
		tenants:   make(map[string]*tenantSLO),
	}
}

// escapeLabel renders a client-supplied tenant id safely inside a
// Prometheus label value.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// tenant returns (creating if room) the ledger for name. Callers hold
// t.mu.
func (t *sloTable) tenantLocked(name string) *tenantSLO {
	if ts, ok := t.tenants[name]; ok {
		return ts
	}
	if len(t.tenants) >= t.max {
		name = overflowTenant
		if ts, ok := t.tenants[name]; ok {
			return ts
		}
	}
	ts := &tenantSLO{}
	if t.reg != nil {
		labels := `tenant="` + escapeLabel(name) + `"`
		ts.hist = t.reg.Histogram("qgraph_tenant_request_seconds", labels,
			"request latency by tenant", nil)
		c := &ts.counters
		t.reg.CounterFunc("qgraph_tenant_requests_total", labels,
			"requests by tenant", func() float64 { return float64(c.Requests.Load()) })
		t.reg.CounterFunc("qgraph_tenant_good_total", labels,
			"requests completed within the SLO latency target, by tenant",
			func() float64 { return float64(c.Good.Load()) })
		t.reg.CounterFunc("qgraph_tenant_rejected_total", labels,
			"admission rejections (429) by tenant", func() float64 { return float64(c.Rejected.Load()) })
		t.reg.GaugeFunc("qgraph_tenant_slo_burn", labels,
			"recent error-budget burn rate by tenant (1 = burning exactly the budget)",
			func() float64 {
				t.mu.Lock()
				defer t.mu.Unlock()
				return ts.recentBad / (1 - t.objective)
			})
	}
	t.tenants[name] = ts
	t.order = append(t.order, name)
	return ts
}

// observe classifies one finished request.
func (t *sloTable) observe(tenant string, d time.Duration, outcome string) {
	if t == nil {
		return
	}
	if tenant == "" {
		tenant = "default"
	}
	t.mu.Lock()
	ts := t.tenantLocked(tenant)
	bad := 1.0
	c := &ts.counters
	c.Requests.Add(1)
	switch outcome {
	case "completed":
		if d <= t.target {
			c.Good.Add(1)
			bad = 0
		} else {
			c.SlowOK.Add(1)
		}
	case "rejected":
		c.Rejected.Add(1)
	case "expired":
		c.Expired.Add(1)
	default:
		c.Failed.Add(1)
	}
	ts.recentBad = (1-recentAlpha)*ts.recentBad + recentAlpha*bad
	t.mu.Unlock()
	ts.hist.Observe(d.Seconds())
}

// TenantSLOView is the JSON shape of one tenant's SLO state.
type TenantSLOView struct {
	TenantSnapshot
	GoodRatio      float64 `json:"good_ratio"`
	P50MS          float64 `json:"p50_ms"`
	P99MS          float64 `json:"p99_ms"`
	BurnRate       float64 `json:"burn_rate"`        // cumulative bad-fraction / error budget
	RecentBurnRate float64 `json:"recent_burn_rate"` // EWMA bad-fraction / error budget
}

// SLOView is the GET /slo response shape.
type SLOView struct {
	TargetMS  float64                  `json:"target_ms"`
	Objective float64                  `json:"objective"`
	Tenants   map[string]TenantSLOView `json:"tenants"`
}

// report snapshots the table.
func (t *sloTable) report() SLOView {
	if t == nil {
		return SLOView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := SLOView{
		TargetMS:  durMS(t.target),
		Objective: t.objective,
		Tenants:   make(map[string]TenantSLOView, len(t.tenants)),
	}
	budget := 1 - t.objective
	for _, name := range t.order {
		ts := t.tenants[name]
		snap := ts.counters.snapshot()
		row := TenantSLOView{
			TenantSnapshot: snap,
			P50MS:          ts.hist.Quantile(0.50) * 1e3,
			P99MS:          ts.hist.Quantile(0.99) * 1e3,
			RecentBurnRate: ts.recentBad / budget,
		}
		if snap.Requests > 0 {
			row.GoodRatio = float64(snap.Good) / float64(snap.Requests)
			row.BurnRate = (1 - row.GoodRatio) / budget
		}
		v.Tenants[name] = row
	}
	return v
}
