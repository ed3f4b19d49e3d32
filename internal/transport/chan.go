package transport

import (
	"fmt"
	"sync"
	"time"

	"qgraph/internal/protocol"
)

// Latency models the simulated network of the in-process transport.
// A message of wire size s sent from a to b is delivered at
//
//	max(sendTime + Propagation(a,b), previousDeliveryOnLink) + s * PerByte
//
// i.e. links are FIFO pipes with propagation delay and finite bandwidth.
// The zero value is a perfect network (instant delivery), which unit tests
// use; experiments use Default() so that remote communication has the cost
// whose removal Q-cut's locality is worth measuring.
type Latency struct {
	// WorkerWorker is the one-way propagation delay between workers.
	WorkerWorker time.Duration
	// WorkerController is the one-way delay worker ↔ controller; a barrier
	// round-trip costs twice this.
	WorkerController time.Duration
	// PerByte is the transmission time per wire byte (inverse bandwidth).
	PerByte time.Duration
}

// DefaultLatency returns the simulated network used by the experiments:
// 250µs propagation (same-rack Ethernet scale), ~1 Gbit/s bandwidth.
func DefaultLatency() Latency {
	return Latency{
		WorkerWorker:     250 * time.Microsecond,
		WorkerController: 125 * time.Microsecond,
		PerByte:          8 * time.Nanosecond, // ≈ 1 Gbit/s
	}
}

// Zero reports whether the model is the perfect network.
func (l Latency) Zero() bool {
	return l.WorkerWorker == 0 && l.WorkerController == 0 && l.PerByte == 0
}

func (l Latency) propagation(a, b protocol.NodeID) time.Duration {
	if a == protocol.ControllerNode || b == protocol.ControllerNode {
		return l.WorkerController
	}
	return l.WorkerWorker
}

// ChanNetwork is the in-process transport. On the perfect network a send
// puts the message straight into the receiver's mailbox, so delivery is
// causal, stronger than per-link FIFO: a message that caused another (sent
// before it, or before the message whose receipt led to it) reaches a common
// receiver first. A worker's vertex batch, for one, is always ahead of the
// controller's BarrierReady that it was reported to. Under a latency model
// each link is a mailbox too, whose delivery goroutine sleeps out the model
// before it does; then only per-link FIFO holds, and tests that need the
// other delivery orders run there.
type ChanNetwork struct {
	latency Latency
	conns   []*chanConn
	links   []*mailbox[sent] // links[from*n+to]; nil on the perfect network
	wg      sync.WaitGroup
	once    sync.Once
}

// sent is a message on a simulated link, stamped with its send time.
type sent struct {
	env Envelope
	at  time.Time
}

type chanConn struct {
	net *ChanNetwork
	id  protocol.NodeID
	box *mailbox[Envelope]
}

// NewChanNetwork creates an in-process network with n nodes (node 0 is the
// controller) under the given latency model.
func NewChanNetwork(n int, lat Latency) *ChanNetwork {
	cn := &ChanNetwork{
		latency: lat,
		conns:   make([]*chanConn, n),
	}
	for i := range cn.conns {
		cn.conns[i] = &chanConn{net: cn, id: protocol.NodeID(i), box: newMailbox[Envelope]()}
	}
	if lat.Zero() {
		return cn
	}
	cn.links = make([]*mailbox[sent], n*n)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			link := newMailbox[sent]()
			cn.links[from*n+to] = link
			cn.wg.Add(1)
			go cn.deliver(protocol.NodeID(from), protocol.NodeID(to), link)
		}
	}
	return cn
}

// deliver drains one link, sleeping per the latency model before handing
// envelopes to the destination's mailbox.
func (cn *ChanNetwork) deliver(from, to protocol.NodeID, link *mailbox[sent]) {
	defer cn.wg.Done()
	prop := cn.latency.propagation(from, to)
	var lastDeliver time.Time
	for it := range link.ch {
		arrive := it.at.Add(prop)
		if arrive.Before(lastDeliver) {
			arrive = lastDeliver
		}
		arrive = arrive.Add(time.Duration(WireSize(it.env.Msg)) * cn.latency.PerByte)
		if d := time.Until(arrive); d > 0 {
			time.Sleep(d)
		}
		lastDeliver = arrive
		cn.conns[to].box.put(it.env)
	}
}

// Conn implements Network.
func (cn *ChanNetwork) Conn(n protocol.NodeID) Conn { return cn.conns[n] }

// Nodes implements Network.
func (cn *ChanNetwork) Nodes() int { return len(cn.conns) }

// Close implements Network.
func (cn *ChanNetwork) Close() error {
	cn.once.Do(func() {
		for _, link := range cn.links {
			if link != nil {
				link.close()
			}
		}
		for _, c := range cn.conns {
			c.box.close()
		}
	})
	cn.wg.Wait()
	return nil
}

// Send implements Conn.
func (c *chanConn) Send(to protocol.NodeID, m protocol.Message) error {
	if int(to) >= len(c.net.conns) || to == c.id {
		return fmt.Errorf("transport: bad destination %d", to)
	}
	env := Envelope{From: c.id, Msg: m}
	var ok bool
	if c.net.links == nil {
		ok = c.net.conns[to].box.put(env)
	} else {
		ok = c.net.links[int(c.id)*len(c.net.conns)+int(to)].put(sent{env, time.Now()})
	}
	if !ok {
		return fmt.Errorf("transport: network closed")
	}
	return nil
}

// Inbox implements Conn.
func (c *chanConn) Inbox() <-chan Envelope { return c.box.ch }

// Close implements Conn. Closing one endpoint of the in-process network is
// a no-op; use Network.Close.
func (c *chanConn) Close() error { return nil }

var _ Network = (*ChanNetwork)(nil)
