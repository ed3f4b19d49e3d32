package transport

import (
	"fmt"
	"sync"

	"qgraph/internal/protocol"
)

// ChanNetwork is the in-process transport: a send puts the message straight
// into the receiver's mailbox, so delivery is causal, stronger than
// per-link FIFO: a message that caused another (sent before it, or before
// the message whose receipt led to it) reaches a common receiver first. A
// worker's vertex batch, for one, is always ahead of the controller's
// BarrierReady that it was reported to. The other delivery orders are the
// controller's simulator's to explore, and TCP's.
type ChanNetwork struct {
	conns []*chanConn
	once  sync.Once
}

type chanConn struct {
	net *ChanNetwork
	id  protocol.NodeID
	box *mailbox
}

// NewChanNetwork creates an in-process network with n nodes (node 0 is the
// controller).
func NewChanNetwork(n int) *ChanNetwork {
	cn := &ChanNetwork{conns: make([]*chanConn, n)}
	for i := range cn.conns {
		cn.conns[i] = &chanConn{net: cn, id: protocol.NodeID(i), box: newMailbox()}
	}
	return cn
}

// Conn implements Network.
func (cn *ChanNetwork) Conn(n protocol.NodeID) Conn { return cn.conns[n] }

// Nodes implements Network.
func (cn *ChanNetwork) Nodes() int { return len(cn.conns) }

// Close implements Network.
func (cn *ChanNetwork) Close() error {
	cn.once.Do(func() {
		for _, c := range cn.conns {
			c.box.close()
		}
	})
	return nil
}

// Send implements Conn.
func (c *chanConn) Send(to protocol.NodeID, m protocol.Message) error {
	if int(to) >= len(c.net.conns) || to == c.id {
		return fmt.Errorf("transport: bad destination %d", to)
	}
	if !c.net.conns[to].box.put(Envelope{From: c.id, Msg: m}) {
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
