package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgraph/internal/graph"
	"qgraph/internal/protocol"
)

// exerciseNetwork sends numbered messages across every ordered node pair
// and verifies complete, per-link-ordered delivery.
func exerciseNetwork(t *testing.T, net Network, msgs int) {
	t.Helper()
	n := net.Nodes()
	type key struct{ from, to protocol.NodeID }
	done := make(chan error, n)

	for to := 0; to < n; to++ {
		to := protocol.NodeID(to)
		go func() {
			lastSeen := map[protocol.NodeID]int32{}
			want := msgs * (n - 1)
			got := 0
			timeout := time.After(20 * time.Second)
			for got < want {
				select {
				case env, ok := <-net.Conn(to).Inbox():
					if !ok {
						done <- fmt.Errorf("node %d: inbox closed after %d/%d", to, got, want)
						return
					}
					b, isB := env.Msg.(*protocol.GlobalStop)
					if !isB {
						done <- fmt.Errorf("node %d: unexpected %T", to, env.Msg)
						return
					}
					if last, ok := lastSeen[env.From]; ok && b.Epoch <= last {
						done <- fmt.Errorf("node %d: out of order from %d: %d after %d", to, env.From, b.Epoch, last)
						return
					}
					lastSeen[env.From] = b.Epoch
					got++
				case <-timeout:
					done <- fmt.Errorf("node %d: timeout after %d/%d", to, got, want)
					return
				}
			}
			done <- nil
		}()
	}

	for from := 0; from < n; from++ {
		from := protocol.NodeID(from)
		go func() {
			for i := 1; i <= msgs; i++ {
				for to := 0; to < n; to++ {
					if protocol.NodeID(to) == from {
						continue
					}
					if err := net.Conn(from).Send(protocol.NodeID(to), &protocol.GlobalStop{Epoch: int32(i)}); err != nil {
						t.Errorf("send %d→%d: %v", from, to, err)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestChanNetworkDelivery exercises the in-process transport.
func TestChanNetworkDelivery(t *testing.T) {
	net := NewChanNetwork(4)
	defer net.Close()
	exerciseNetwork(t, net, 200)
}

// TestTCPNetworkDelivery exercises the TCP transport end to end.
func TestTCPNetworkDelivery(t *testing.T) {
	net, err := NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	exerciseNetwork(t, net, 200)
}

// inboxNetworks returns the two transports on n nodes, for tests of what
// both promise.
func inboxNetworks(t *testing.T, n int) map[string]Network {
	t.Helper()
	tcp, err := NewTCPNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Network{"chan": NewChanNetwork(n), "tcp": tcp}
}

// TestInboxBacklogKeepsLinkOrder: a node that reads nothing while thousands
// of messages arrive on two links, far past its inbox channel's capacity,
// gets every one of them in order per link once it reads again. The
// messages that found the channel full wait in the mailbox's backlog, and no
// later message overtakes them.
func TestInboxBacklogKeepsLinkOrder(t *testing.T) {
	const msgs = 2000
	for name, net := range inboxNetworks(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			var wg sync.WaitGroup
			for from := protocol.NodeID(1); from <= 2; from++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int32(1); i <= msgs; i++ {
						if err := net.Conn(from).Send(0, &protocol.GlobalStop{Epoch: i}); err != nil {
							t.Errorf("send %d→0: %v", from, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			next := map[protocol.NodeID]int32{1: 1, 2: 1}
			for got := 0; got < 2*msgs; got++ {
				select {
				case env := <-net.Conn(0).Inbox():
					if e := env.Msg.(*protocol.GlobalStop).Epoch; e != next[env.From] {
						t.Fatalf("from node %d: message %d, want %d", env.From, e, next[env.From])
					}
					next[env.From]++
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d messages arrived", got, 2*msgs)
				}
			}
		})
	}
}

// TestInboxClosesWithABacklog: closing a network whose node stopped reading
// with a backlog queued returns, and that node's inbox closes after at most
// what was sent; the backlog is dropped, as a crashed node's unread
// messages are.
func TestInboxClosesWithABacklog(t *testing.T) {
	const msgs = 1000
	for name, net := range inboxNetworks(t, 2) {
		t.Run(name, func(t *testing.T) {
			for i := int32(1); i <= msgs; i++ {
				if err := net.Conn(1).Send(0, &protocol.GlobalStop{Epoch: i}); err != nil {
					t.Fatal(err)
				}
			}
			closed := make(chan struct{})
			go func() {
				net.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close hung on a node that stopped reading")
			}
			got := 0
			for range net.Conn(0).Inbox() {
				got++
			}
			if got > msgs {
				t.Fatalf("%d messages read after close, %d sent", got, msgs)
			}
		})
	}
}

// TestTCPLargeBatch pushes a large vertex batch through TCP.
func TestTCPLargeBatch(t *testing.T) {
	net, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	entries := make([]protocol.VertexMsg, 50000)
	for i := range entries {
		entries[i] = protocol.VertexMsg{To: graph.VertexID(i), Val: float64(i) / 3}
	}
	if err := net.Conn(0).Send(1, &protocol.VertexBatch{Q: 1, Step: 2, From: 0, Entries: entries}); err != nil {
		t.Fatal(err)
	}
	env := <-net.Conn(1).Inbox()
	got := env.Msg.(*protocol.VertexBatch)
	if len(got.Entries) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got.Entries), len(entries))
	}
	if got.Entries[49999] != entries[49999] {
		t.Fatalf("entry mismatch: %+v", got.Entries[49999])
	}
}

// TestTCPHandshakeVersionMismatch: a peer announcing a different codec
// version in the dial handshake must be rejected at accept time — its
// frames are never decoded or delivered — while a peer speaking the
// current version on the same node keeps working. This is what turns a
// mixed-version rolling restart into a loud connect-time failure
// instead of silently misdecoded frames.
func TestTCPHandshakeVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), "127.0.0.1:1"}
	n := newTCPNodeWithListener(0, addrs, ln)
	defer n.Close()

	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{CodecVersion + 1, 1}); err != nil {
		t.Fatal(err)
	}
	frame, err := Encode(&protocol.GlobalStop{Epoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write(frame) // may outrun the close; rejection is observed below

	// The acceptor must close the connection without delivering anything.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("rejected connection still open (read succeeded)")
	}
	select {
	case env := <-n.Inbox():
		t.Fatalf("frame from mismatched peer delivered: %+v", env)
	default:
	}

	// A well-versioned peer on the same node is unaffected.
	ok, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if _, err := ok.Write([]byte{CodecVersion, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-n.Inbox():
		if env.From != 1 || env.Msg.(*protocol.GlobalStop).Epoch != 7 {
			t.Fatalf("bad delivery: %+v", env)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("well-versioned frame never delivered")
	}
}

// restartedPeer starts nodes 0 and 1 on loopback, has node 0 send node 1 a
// frame, then "crashes" node 1 and starts a replacement on its address.
func restartedPeer(t *testing.T) (a, b2 *TCPNode) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	a = newTCPNodeWithListener(0, addrs, lnA)
	t.Cleanup(func() { a.Close() })
	b := newTCPNodeWithListener(1, addrs, lnB)

	if err := a.Send(1, &protocol.GlobalStop{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if env := <-b.Inbox(); env.Msg.(*protocol.GlobalStop).Epoch != 1 {
		t.Fatal("first delivery wrong")
	}

	b.Close()
	var lnB2 net.Listener
	for i := 0; ; i++ {
		lnB2, err = net.Listen("tcp", addrs[1])
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", addrs[1], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	b2 = newTCPNodeWithListener(1, addrs, lnB2)
	t.Cleanup(func() { b2.Close() })
	return a, b2
}

// TestTCPRedialAfterPeerRestart: a process that crashed and came back on
// the same address is reachable again through the same TCPNode — Send
// drops the dead cached connection and redials instead of failing forever.
// This is what lets qgraphd workers restart with -rejoin.
func TestTCPRedialAfterPeerRestart(t *testing.T) {
	a, b2 := restartedPeer(t)

	// A send racing the dead connection's EOF may be swallowed by the dead
	// kernel buffer; within a few attempts the redial reaches B2.
	got := make(chan struct{})
	go func() {
		env := <-b2.Inbox()
		if env.Msg.(*protocol.GlobalStop).Epoch >= 2 {
			close(got)
		}
	}()
	deadline := time.After(10 * time.Second)
	for i := int32(2); ; i++ {
		_ = a.Send(1, &protocol.GlobalStop{Epoch: i})
		select {
		case <-got:
			return
		case <-deadline:
			t.Fatal("restarted peer never reachable")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestTCPFirstFrameAfterPeerRestart: once the crashed peer's connection has
// closed, the very first frame to its replacement arrives. The sender read
// the dead connection's EOF and dropped it, so the frame is not written
// into the dead socket, where the write would succeed and the frame be
// lost — after a rejoin, a StopMarker lost that way wedged the global
// barrier. A frame written between the peer's death and the EOF's arrival
// is still lost. The controller's simulator cannot reach this case: its
// links are the reliable per-link FIFOs the protocol assumes.
func TestTCPFirstFrameAfterPeerRestart(t *testing.T) {
	a, b2 := restartedPeer(t)

	// A rejoin takes seconds; wait, for at most five, for the EOF.
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		a.mu.Lock()
		live := len(a.dialed)
		a.mu.Unlock()
		if live == 0 {
			break
		}
	}
	if err := a.Send(1, &protocol.GlobalStop{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b2.Inbox():
		if e := env.Msg.(*protocol.GlobalStop).Epoch; e != 2 {
			t.Fatalf("got epoch %d, want 2", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the first frame to the restarted peer was lost")
	}
}

// TestTCPConcurrentSendsDuringPeerRestart: many goroutines race Send to a
// peer that dies and comes back on the same address. The per-peer redial
// serialization must produce exactly one live outbound connection (no
// leaked sockets from racing redials), and the bounded retry must make
// sends succeed again once the restarted listener is up — one transient
// dial failure mid-restart must not permanently fail the path.
func TestTCPConcurrentSendsDuringPeerRestart(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	a := newTCPNodeWithListener(0, addrs, lnA)
	defer a.Close()
	b := newTCPNodeWithListener(1, addrs, lnB)

	if err := a.Send(1, &protocol.GlobalStop{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	<-b.Inbox()
	b.Close()

	// Hammer the dead peer from many goroutines while it restarts.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var okAfterRestart atomic.Int64
	restarted := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int32(2); ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				err := a.Send(1, &protocol.GlobalStop{Epoch: j})
				select {
				case <-restarted:
					if err == nil {
						okAfterRestart.Add(1)
					}
				default:
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // sends fail and retry against the dead peer

	var lnB2 net.Listener
	for i := 0; ; i++ {
		lnB2, err = net.Listen("tcp", addrs[1])
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", addrs[1], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	b2 := newTCPNodeWithListener(1, addrs, lnB2)
	defer b2.Close()
	close(restarted)

	// The restarted peer must start receiving, and sends must succeed.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-b2.Inbox():
		case <-deadline:
			t.Fatal("restarted peer never received anything")
		}
		if okAfterRestart.Load() > 0 {
			break
		}
	}
	close(stop)
	wg.Wait()

	// No leaked sockets: the racing redials collapsed to one live conn.
	a.mu.Lock()
	live := len(a.dialed)
	a.mu.Unlock()
	if live > 1 {
		t.Fatalf("%d live outbound connections to one peer (leak)", live)
	}
}

// BenchmarkRoundTrip times one BarrierReady → BarrierSynch ping-pong, the
// exchange every multi-worker superstep makes between the controller and a
// worker: over TCPNetwork on loopback, over ChanNetwork, and, as the floor
// TCP pays on top of, 64-byte frames over a bare loopback net.Conn pair
// (no codec, no mailbox, no handoff between goroutines).
func BenchmarkRoundTrip(b *testing.B) {
	ready := &protocol.BarrierReady{Q: 7, Step: 3, Expect: 2}
	synch := &protocol.BarrierSynch{Q: 7, Step: 3, FromStep: 3, Processed: 40, NActiveNext: 12, ComputeNS: 9000,
		ScopeSize: 120, SentBatches: []int32{0, 1}, BestGoal: 17, MinFrontier: 11}
	for _, c := range []struct {
		name string
		mk   func() (Network, error)
	}{
		{"tcp", func() (Network, error) { return NewTCPNetwork(2) }},
		{"chan", func() (Network, error) { return NewChanNetwork(2), nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			nw, err := c.mk()
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			ctl, wk := nw.Conn(0), nw.Conn(1)
			go func() {
				for range wk.Inbox() {
					wk.Send(0, synch)
				}
			}()
			ping := func() {
				if err := ctl.Send(1, ready); err != nil {
					b.Fatal(err)
				}
				<-ctl.Inbox()
			}
			ping() // dial both ways before the clock starts
			b.ReportAllocs()
			for b.Loop() {
				ping()
			}
		})
	}
	b.Run("raw", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 64)
			for {
				if _, err := io.ReadFull(conn, buf); err != nil {
					return
				}
				if _, err := conn.Write(buf); err != nil {
					return
				}
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		buf := make([]byte, 64)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := conn.Write(buf); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
