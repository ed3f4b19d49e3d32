// Package transport moves protocol messages between the controller and the
// workers. Two implementations are provided:
//
//   - ChanNetwork: in-process, channel-based, with a configurable simulated
//     network (propagation latency + transmission time). The paper's
//     scale-up experiments run k partitions on one machine over loopback
//     TCP; the simulated network makes the communication costs that
//     Q-cut removes explicit and deterministic (Sec. 4.1).
//   - TCPNetwork: real TCP with length-prefixed binary frames, used by
//     cmd/qgraphd for genuine scale-out deployments.
//
// Both deliver messages in order per (sender, receiver) link and never
// block senders (unbounded per-link queues), which the barrier protocol
// relies on.
package transport

import (
	"sync"

	"qgraph/internal/protocol"
)

// Envelope is a received message with its sender.
type Envelope struct {
	From protocol.NodeID
	Msg  protocol.Message
}

// Conn is one node's endpoint: asynchronous ordered sends plus an inbox.
type Conn interface {
	// Send enqueues m for delivery to node `to`. It never blocks; delivery
	// is ordered per destination.
	Send(to protocol.NodeID, m protocol.Message) error
	// Inbox returns the stream of received envelopes. It is closed when
	// the connection closes.
	Inbox() <-chan Envelope
	// Close releases the endpoint.
	Close() error
}

// Network is a set of connected nodes (node 0 = controller, i+1 = worker i).
type Network interface {
	// Conn returns node n's endpoint.
	Conn(n protocol.NodeID) Conn
	// Nodes returns the number of nodes.
	Nodes() int
	// Close shuts the whole network down.
	Close() error
}

// queue is an unbounded FIFO with close semantics. Senders never block;
// the reader drains via a goroutine pumping into a channel.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []queueItem
	closed bool
}

type queueItem struct {
	env    Envelope
	sentAt int64 // nanoseconds, for the latency simulation
	size   int   // wire size estimate
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(it queueItem) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, it)
	q.cond.Signal()
	return true
}

// pop blocks until an item is available or the queue closes (ok=false).
func (q *queue) pop() (queueItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return queueItem{}, false
	}
	it := q.items[0]
	// Shift; reclaim the backing array periodically to bound memory.
	q.items = q.items[1:]
	if len(q.items) == 0 {
		q.items = nil
	}
	return it, true
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
