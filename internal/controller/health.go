package controller

import (
	"time"

	"qgraph/internal/obs/health"
)

// watchStalls feeds the deadline watchdog once per tick: how long the
// current barrier phase has been open (run counts as never-stalled —
// queries progress independently there) and the age of the oldest
// outstanding superstep release. Both run on the event loop, so the
// ages are exact with respect to the state they describe.
func (c *Controller) watchStalls(now time.Time) {
	mon := c.cfg.Monitor
	if mon == nil {
		return
	}
	var phaseAge time.Duration
	if c.adapt.phase != phaseRun && c.adapt.phase != phaseRecover {
		// Recovery has its own watchdog (the hello window) and its own
		// lifecycle events; flagging it as a stalled barrier would page
		// twice for one fault.
		phaseAge = now.Sub(c.phaseStart)
	}
	var oldest time.Duration
	for _, ctl := range c.queries {
		if ctl.outstanding && !ctl.releasedAt.IsZero() {
			if d := now.Sub(ctl.releasedAt); d > oldest {
				oldest = d
			}
		}
	}
	mon.CheckStall(phaseName(c.adapt.phase), phaseAge, oldest)
}

// healthEvent forwards a lifecycle event to the monitor (nil-safe).
func (c *Controller) healthEvent(typ string, sev health.Severity, worker int, msg string, fields map[string]any) {
	c.cfg.Monitor.Record(typ, sev, worker, msg, fields)
}
