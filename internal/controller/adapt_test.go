package controller

import (
	"testing"
	"time"

	"qgraph/internal/partition"
	"qgraph/internal/protocol"
	"qgraph/internal/query"
)

// TestBalanceTriggerFiresOnSkewOnly: with every windowed query fully local,
// Q-cut starts only when the combined load Lw of Appendix A.1 is spread by
// more than δ across the workers. Both cases own four vertices per worker;
// what differs is where the window's scope mass sits.
func TestBalanceTriggerFiresOnSkewOnly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int64
		want  bool
	}{
		{"scopes skewed onto worker 0", []int64{40, 0}, true},
		{"scopes equal", []int64{20, 20}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_000, 0)
			c := newLoopless(t, 2, func(cfg *Config) {
				cfg.Adapt = true
				cfg.Owner = partition.Assignment{0, 1, 0, 1, 0, 1, 0, 1}
				cfg.Clock = func() time.Time { return now }
			})
			for q := query.ID(1); q <= 8; q++ {
				c.windowAdd(&qctl{
					spec: query.Spec{ID: q}, scopeSizes: tc.sizes,
					stepsDone: 10, localSteps: 10,
				}, now)
			}
			if loc := c.avgLocality(); loc != 1 {
				t.Fatalf("window locality %v, want 1: only the balance rule may fire", loc)
			}
			c.onTick()
			if c.qcutRunning != tc.want {
				t.Fatalf("imbalance %.2f against δ %.2f: Q-cut started = %v, want %v",
					c.lwImbalance(), balanceSlack, c.qcutRunning, tc.want)
			}
			if c.qcutRunning {
				answer(t, c)
				<-c.qcutCh // let the planner goroutine finish before the network closes
			}
		})
	}
}

// TestRecoveryIsNotAPlanForBackoff: the trigger backoff doubles the
// cooldown when the previous Q-cut plan did not raise locality. A recovery
// handoff bumps the repartition epoch too, but it is no plan: the first
// trigger after a worker death has nothing to compare against and must
// leave the cooldown alone — even at the locality of a Hash-partitioned
// graph, which is below the backoff's 0.02 margin over trigLocality's zero
// value. The event loop never runs; the test calls its handlers in the
// order the loop would, on a clock it advances itself.
func TestRecoveryIsNotAPlanForBackoff(t *testing.T) {
	now := time.Unix(1_000, 0)
	c := newLoopless(t, 2, func(cfg *Config) {
		cfg.Adapt, cfg.Cooldown = true, time.Second
		cfg.HeartbeatEvery, cfg.HeartbeatTimeout = 10*time.Millisecond, 20*time.Millisecond
		cfg.Clock = func() time.Time { return now }
	})

	// Worker 0 answers every probe, worker 1 none: it is declared dead and,
	// with no respawn configured, handed off at once.
	for i := 0; i < 10 && len(c.deadWorkers) == 0; i++ {
		now = now.Add(c.cfg.HeartbeatEvery)
		c.onTick()
		c.onPong(&protocol.Pong{W: 0, Seq: c.pingSeq})
	}
	if !c.deadWorkers[1] || c.phase != phaseRecover {
		t.Fatalf("dead=%v phase=%d, want worker 1 dead and a recovery round open", c.deadWorkers, c.phase)
	}
	if err := c.onPartitionAck(&protocol.PartitionAck{W: 0, Gen: c.rec.Gen(), Version: c.GraphVersion()}); err != nil {
		t.Fatal(err)
	}
	if c.phase != phaseRun || c.repartitions != 1 {
		t.Fatalf("phase=%d repartitions=%d, want recovery complete and counted as one repartition", c.phase, c.repartitions)
	}

	// A window of queries that ran 1 superstep in 100 locally.
	for q := query.ID(1); q <= 8; q++ {
		c.windowAdd(&qctl{
			spec: query.Spec{ID: q}, scopeSizes: make([]int64, c.cfg.K),
			stepsDone: 100, localSteps: 1,
		}, now)
	}
	now = now.Add(2 * c.cfg.Cooldown)
	c.onTick()
	if !c.qcutRunning {
		t.Fatal("locality 0.01 past the cooldown did not trigger Q-cut")
	}
	answer(t, c)
	<-c.qcutCh // let the planner goroutine finish before the network closes
	if c.curCooldown != c.cfg.Cooldown {
		t.Fatalf("first trigger after a recovery left cooldown %s, want %s: no plan had run to back off from",
			c.curCooldown, c.cfg.Cooldown)
	}
}
