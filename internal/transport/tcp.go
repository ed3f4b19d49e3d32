package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qgraph/internal/protocol"
)

// TCPNode is one node of a TCP-connected Q-Graph deployment. Frames are the
// codec frames of this package; each node dials its peers lazily and
// accepts inbound connections, so deployments need no start-up ordering
// beyond "listeners up before traffic".
//
// The dial handshake is two bytes: [CodecVersion][dialer's NodeID]. The
// acceptor drops connections whose version byte differs from its own
// CodecVersion, so peers built from binaries with incompatible frame
// encodings are rejected at connect time (the dialer's Sends then fail
// with connection errors) rather than misdecoding each other's frames.
type TCPNode struct {
	id    protocol.NodeID
	addrs []string // addrs[n] is node n's listen address
	ln    net.Listener

	mu       sync.Mutex
	peers    map[protocol.NodeID]*tcpPeer
	dialed   map[net.Conn]bool // live outbound conns, for teardown
	accepted []net.Conn

	box    *mailbox
	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// tcpPeer is the send-side state for one destination. Its mutex owns the
// connection lifecycle (dial, drop, redial), the frame buffer and the
// writes, so concurrent Sends to one dead peer serialize: exactly one
// goroutine redials while the others wait and then reuse the fresh
// connection — never two racing dials leaking a socket. A dial to peer A
// never blocks sends to peer B (the node-level mutex only guards the peer
// map).
type tcpPeer struct {
	mu    sync.Mutex
	conn  net.Conn
	frame []byte // the last frame sent, kept for its capacity
}

// keepBuf bounds the frame buffers a connection keeps between frames: the
// send side's encoding buffer and the read side's payload buffer. A larger
// frame (a PartitionGrant, a large ScopeData) gets a buffer of its own.
const keepBuf = 1 << 16

// NewTCPNode starts node id listening on addrs[id]. addrs lists every
// node's address (index = NodeID).
func NewTCPNode(id protocol.NodeID, addrs []string) (*TCPNode, error) {
	if int(id) >= len(addrs) {
		return nil, fmt.Errorf("transport: node %d not in address list (len %d)", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	return newTCPNodeWithListener(id, addrs, ln), nil
}

func newTCPNodeWithListener(id protocol.NodeID, addrs []string, ln net.Listener) *TCPNode {
	n := &TCPNode{
		id:     id,
		addrs:  addrs,
		ln:     ln,
		peers:  make(map[protocol.NodeID]*tcpPeer),
		dialed: make(map[net.Conn]bool),
		box:    newMailbox(),
		closed: make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n
}

// Addr returns the actual listen address (useful with ":0" ports in tests).
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		select {
		case <-n.closed:
			n.mu.Unlock()
			conn.Close()
			return
		default:
		}
		n.accepted = append(n.accepted, conn)
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

// serveConn reads the handshake, then decodes frames into the mailbox, one
// put a frame, reusing one payload buffer.
func (n *TCPNode) serveConn(conn net.Conn) {
	defer conn.Close()
	var hs [2]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return
	}
	if hs[0] != CodecVersion {
		slog.Warn("transport: rejecting peer with incompatible codec version",
			"remote", conn.RemoteAddr().String(),
			"peer_version", hs[0], "local_version", uint8(CodecVersion))
		if fn := onCodecReject.Load(); fn != nil {
			(*fn)(conn.RemoteAddr().String(), hs[0], CodecVersion)
		}
		return
	}
	from := protocol.NodeID(hs[1])
	br := bufio.NewReaderSize(conn, keepBuf)
	var buf []byte
	for {
		m, err := readFrame(br, &buf)
		if err != nil {
			return
		}
		if !n.box.put(Envelope{From: from, Msg: m}) {
			return
		}
	}
}

// onCodecReject is an optional process-wide tap on handshake rejects
// (the health layer's event log registers here); atomic so late
// registration cannot race running accept goroutines.
var onCodecReject atomic.Pointer[func(remote string, peerVersion, localVersion uint8)]

// SetOnCodecReject installs a callback invoked whenever an acceptor
// drops a peer over a codec-version mismatch. Pass nil to clear.
func SetOnCodecReject(fn func(remote string, peerVersion, localVersion uint8)) {
	if fn == nil {
		onCodecReject.Store(nil)
		return
	}
	onCodecReject.Store(&fn)
}

// readFrame reads and decodes one frame. A payload of up to keepBuf bytes is
// read into *buf, which grows to the largest such payload seen: Decode
// copies every field out.
func readFrame(r io.Reader, buf *[]byte) (protocol.Message, error) {
	var head [hdr]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	if length > 1<<28 {
		return nil, fmt.Errorf("transport: oversized frame %d", length)
	}
	var payload []byte
	if length <= keepBuf {
		if cap(*buf) < int(length) {
			*buf = make([]byte, length)
		}
		payload = (*buf)[:length]
	} else {
		payload = make([]byte, length)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return Decode(protocol.MsgType(head[4]), payload)
}

// slot returns the per-peer send slot, creating it on first use. The slot
// persists across connection failures; only its connection churns.
func (n *TCPNode) slot(to protocol.NodeID) (*tcpPeer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[to]; ok {
		return p, nil
	}
	if int(to) >= len(n.addrs) {
		return nil, fmt.Errorf("transport: unknown node %d", to)
	}
	p := &tcpPeer{}
	n.peers[to] = p
	return p, nil
}

// registerDialed tracks a live outbound connection for teardown and starts
// its watch; it refuses (and closes the conn) when the node is already
// closing, so no dial can race past Close.
func (n *TCPNode) registerDialed(p *tcpPeer, conn net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.closed:
		conn.Close()
		return false
	default:
	}
	n.dialed[conn] = true
	n.wg.Add(1)
	go n.watch(p, conn)
	return true
}

// watch reads a dialed connection, on which the peer never writes, until
// the peer closes it or dies, then drops it, so that the next Send redials.
// Without it the first frame after a peer's restart would be written into
// the dead connection, succeed locally and be lost; only the write after
// it would fail and redial.
func (n *TCPNode) watch(p *tcpPeer, conn net.Conn) {
	defer n.wg.Done()
	io.Copy(io.Discard, conn)
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.mu.Unlock()
	n.unregisterDialed(conn)
	conn.Close()
}

func (n *TCPNode) unregisterDialed(conn net.Conn) {
	n.mu.Lock()
	delete(n.dialed, conn)
	n.mu.Unlock()
}

// Send retry schedule: a dead connection or a failed dial is retried a
// bounded number of times with a short backoff, so one transient failure
// during a peer's restart (listener briefly down between the crash and
// the -rejoin relaunch) does not permanently fail the send. The schedule
// is deliberately tight (≤ ~30ms of sleep, worst case): callers send
// from event loops, and a genuinely dead peer must fail fast enough not
// to stall barrier progress while liveness detection runs.
const (
	sendAttempts = 3
	sendBackoff  = 10 * time.Millisecond
)

// Send implements Conn. The frame is encoded into the peer's buffer and
// written to the socket in one call; the kernel provides the async pipe.
//
// A connection the peer closed is dropped once its EOF is read (watch), and
// a write failure drops the connection too; either way the send redials,
// bounded by the retry schedule: a restarted process on the same address
// (a worker brought back with -rejoin after a crash) is reachable again on
// the very next frame, instead of every future send failing against the
// dead connection. Frames buffered on the broken connection are lost — exactly
// the semantics of a crashed peer — and the recovery protocol's
// generation fencing makes that safe. Per-peer state is lock-serialized,
// so concurrent Sends to one dead peer produce one redial, not a race of
// leaked sockets.
func (n *TCPNode) Send(to protocol.NodeID, m protocol.Message) error {
	p, err := n.slot(to)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	frame, err := appendFrame(p.frame[:0], m)
	if err != nil {
		return err
	}
	if cap(frame) <= keepBuf {
		p.frame = frame
	}
	var lastErr error
	for attempt := 0; attempt < sendAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-n.closed:
				return lastErr
			case <-time.After(time.Duration(attempt) * sendBackoff):
			}
		}
		if p.conn == nil {
			conn, err := net.Dial("tcp", n.addrs[to])
			if err != nil {
				lastErr = fmt.Errorf("transport: dial node %d (%s): %w", to, n.addrs[to], err)
				continue
			}
			if !n.registerDialed(p, conn) {
				return fmt.Errorf("transport: node closed")
			}
			if _, err := conn.Write([]byte{CodecVersion, byte(n.id)}); err != nil {
				n.unregisterDialed(conn)
				conn.Close()
				lastErr = err
				continue
			}
			p.conn = conn
		}
		_, werr := p.conn.Write(frame)
		if werr == nil {
			return nil
		}
		n.unregisterDialed(p.conn)
		p.conn.Close()
		p.conn = nil
		lastErr = werr
	}
	return lastErr
}

// Inbox implements Conn.
func (n *TCPNode) Inbox() <-chan Envelope { return n.box.ch }

// Close implements Conn.
func (n *TCPNode) Close() error {
	n.once.Do(func() {
		close(n.closed)
		n.ln.Close()
		n.mu.Lock()
		// Close live outbound conns via the registry rather than the peer
		// slots: slot state is owned by in-flight Sends, which observe the
		// closed channel and the dying sockets and bail out.
		for c := range n.dialed {
			c.Close()
		}
		for _, c := range n.accepted {
			c.Close()
		}
		n.mu.Unlock()
		n.box.close()
	})
	n.wg.Wait()
	return nil
}

var _ Conn = (*TCPNode)(nil)

// TCPNetwork bundles in-process TCPNodes into a Network, used by tests and
// by single-machine multi-process-less TCP runs (the paper's loopback-TCP
// scale-up configuration M1/M2).
type TCPNetwork struct {
	nodes []*TCPNode
}

// NewTCPNetwork starts n nodes on loopback with ephemeral ports: listeners
// are bound first so every node knows all final addresses before anyone
// dials.
func NewTCPNetwork(n int) (*TCPNetwork, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*TCPNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = newTCPNodeWithListener(protocol.NodeID(i), append([]string(nil), addrs...), listeners[i])
	}
	return &TCPNetwork{nodes: nodes}, nil
}

// Conn implements Network.
func (t *TCPNetwork) Conn(n protocol.NodeID) Conn { return t.nodes[n] }

// Nodes implements Network.
func (t *TCPNetwork) Nodes() int { return len(t.nodes) }

// Close implements Network.
func (t *TCPNetwork) Close() error {
	var first error
	for _, n := range t.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ Network = (*TCPNetwork)(nil)
