// Package transport moves protocol messages between the controller and the
// workers. Two implementations are provided:
//
//   - ChanNetwork: in-process and channel-based, for the library, the
//     examples and tests.
//   - TCPNetwork: real TCP with length-prefixed binary frames, used by
//     cmd/qgraphd for genuine scale-out deployments.
//
// Both deliver messages in order per (sender, receiver) link and never
// block senders (an unbounded mailbox per node), which the barrier protocol
// relies on. The in-process network delivers causally, which is stronger,
// so it never shows the protocol a message overtaking one that caused it;
// TCP can, and the controller's simulator explores those orders with link
// latencies in virtual time.
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

// mailbox is an unbounded FIFO in front of a buffered channel: a node's
// inbox. A put hands its item straight
// to the channel when nothing waits ahead of it, so a received frame reaches
// the event loop in one handoff. Only when the channel is full does a
// backlog form, and one pump goroutine drains it in order until it is empty.
// Producers never block: two event loops sending to each other must not
// wedge on each other's full inbox.
type mailbox struct {
	ch   chan Envelope
	done chan struct{} // closed by close; releases a pump blocked on ch
	pump sync.WaitGroup

	mu      sync.Mutex
	backlog []Envelope
	pumping bool // a pump owns the backlog; puts queue behind it
	closed  bool
}

// newMailbox sizes the channel so that an event loop a burst of frames
// outruns briefly (a superstep's batches and reports from every peer) still
// takes them without a backlog.
func newMailbox() *mailbox {
	return &mailbox{ch: make(chan Envelope, 256), done: make(chan struct{})}
}

// put delivers it after every item put before it, and reports false once
// the mailbox is closed.
func (b *mailbox) put(it Envelope) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	if !b.pumping {
		select {
		case b.ch <- it:
			return true
		default:
		}
		b.pumping = true
		b.pump.Add(1)
		go b.drain()
	}
	b.backlog = append(b.backlog, it)
	return true
}

// drain moves the backlog into the channel and exits once it is empty,
// handing delivery back to put. Whoever sees the mailbox closed last, the
// pump or close, closes the channel.
func (b *mailbox) drain() {
	defer b.pump.Done()
	for {
		b.mu.Lock()
		if b.closed || len(b.backlog) == 0 {
			b.pumping, b.backlog = false, nil
			if b.closed {
				close(b.ch)
			}
			b.mu.Unlock()
			return
		}
		it := b.backlog[0]
		b.backlog[0] = Envelope{}
		b.backlog = b.backlog[1:]
		b.mu.Unlock()
		select {
		case b.ch <- it:
		case <-b.done:
		}
	}
}

// close stops delivery and returns once the pump has exited: the channel
// closes, and what is still in the backlog is dropped, as a crashed node's
// unread messages are.
func (b *mailbox) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.done)
		if !b.pumping {
			close(b.ch)
		}
	}
	b.mu.Unlock()
	b.pump.Wait()
}
