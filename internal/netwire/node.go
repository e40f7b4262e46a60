package netwire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"p2panon/internal/overlay"
	"p2panon/internal/transport"
	"p2panon/internal/wire"
)

var (
	errUnknownPeer  = errors.New("netwire: peer has no known address")
	errBadHandshake = errors.New("netwire: handshake rejected")
	errNodeKilled   = errors.New("netwire: node killed")
)

// Node is one cluster member: its protocol station, a TCP listener on
// 127.0.0.1 and one link per peer, over the one connection the pair
// shares whichever end dialed it — the socket-backed analogue of a
// station joined to a transport.Network.
type Node struct {
	*transport.Station
	c  *Cluster
	ln net.Listener

	mu      sync.Mutex
	links   map[overlay.NodeID]*link // one per peer it exchanged frames with
	conns   map[net.Conn]struct{}    // every open connection, accepted or dialed
	settled map[int]float64          // batch -> the payoff its Settle frame credited here

	killed   chan struct{}
	killOnce sync.Once
}

// Addr returns the node's listen address.
func (nd *Node) Addr() string { return nd.ln.Addr().String() }

// Credited returns the split payment this node has received for a batch
// via its Settle frame.
func (nd *Node) Credited(batch int) float64 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.settled[batch]
}

// kill shuts the node down abruptly: listener closed, every connection
// torn — accepted or dialed, which ends its reader — and links failing
// their queues: exactly what a crashed process looks like to its peers.
func (nd *Node) kill() {
	nd.killOnce.Do(func() {
		nd.mu.Lock()
		close(nd.killed)
		conns := make([]net.Conn, 0, len(nd.conns))
		for c := range nd.conns {
			conns = append(conns, c)
		}
		links := make([]*link, 0, len(nd.links))
		for _, l := range nd.links {
			links = append(links, l)
		}
		nd.mu.Unlock()
		nd.ln.Close()
		for _, c := range conns {
			c.Close()
		}
		for _, l := range links {
			l.close()
		}
	})
}

// track registers an open connection, accepted or dialed, so kill can
// close it, counts it in netwire_conns_open, and adds the reader it is
// about to get to the cluster's wait group. Once the node is killed it
// closes the connection instead and returns false.
func (nd *Node) track(conn net.Conn) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	select {
	case <-nd.killed:
		conn.Close()
		return false
	default:
	}
	nd.conns[conn] = struct{}{}
	nd.c.metrics.connsOpen.Add(1)
	nd.c.wg.Add(1)
	return true
}

// acceptLoop takes inbound connections until the listener closes.
func (nd *Node) acceptLoop() {
	defer nd.c.wg.Done()
	for {
		conn, err := nd.ln.Accept()
		if err != nil || !nd.track(conn) {
			return
		}
		go nd.readLoop(conn, nil, nil)
	}
}

// handshake answers an inbound connection's Hello and returns the link
// the connection now serves, or nil if it is only read (adopt).
func (nd *Node) handshake(conn net.Conn, in *wire.Stream, f *Frame) (*link, error) {
	conn.SetDeadline(time.Now().Add(nd.c.cfg.HandshakeTimeout))
	n, err := readFrame(in, f, nil)
	if err == nil && f.Kind != KindHello {
		err = fmt.Errorf("first frame is %s, want %s", f.Kind, KindHello)
	}
	if err != nil {
		nd.c.metrics.dialsRejected.Inc()
		nd.c.logf("node %d: inbound handshake: %v", nd.ID, err)
		return nil, err
	}
	nd.c.metrics.noteRecv(KindHello, n)
	if n, err = WriteFrame(conn, &Frame{Kind: KindHelloAck, Node: nd.ID}); err != nil {
		return nil, err
	}
	nd.c.metrics.noteSent(KindHelloAck, n)
	return nd.adopt(f.Node, conn), nil
}

// adopt makes an inbound connection whose Hello named peer this node's
// link to that peer, and returns the link, if the peer is in the
// directory and the link has no connection — or has one this node dialed
// to a lower-ID peer, which yields: of a pair's two dials the lower ID's
// survives, and the other is retired. Otherwise the connection is read
// but never written, and adopt returns nil: a second Hello naming a
// linked peer cannot take that peer's traffic (DESIGN.md §3v).
func (nd *Node) adopt(peer overlay.NodeID, conn net.Conn) *link {
	if peer == nd.ID || !nd.c.Addressable(peer) {
		return nil
	}
	l := nd.linkTo(peer)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		if !l.own || peer > nd.ID {
			return nil
		}
		retire(l.conn)
	}
	l.conn, l.own = conn, false
	return l
}

// readLoop dispatches one connection's frames until it ends. An accepted
// connection arrives with a nil stream and handshakes first; a dialed one
// brings the stream its HelloAck came through and its link. A connection
// that stays silent for IdleTimeout is retired — released from its link
// and half-closed — and read on until the peer's EOF, so a frame the peer
// wrote meanwhile is still handled; the peer's next frame re-dials. On
// EOF or any error the link is released and the connection closed.
func (nd *Node) readLoop(conn net.Conn, in *wire.Stream, l *link) {
	defer nd.c.wg.Done()
	defer func() {
		l.release(conn)
		conn.Close()
		nd.mu.Lock()
		delete(nd.conns, conn)
		nd.mu.Unlock()
		nd.c.metrics.connsOpen.Add(-1)
	}()
	// Every frame decodes into this one Frame, its Path into this one
	// buffer (up to an honest path's length; decodeBody): a protocol frame is copied into this one transport.Message
	// before it is handled, and no handler keeps a pointer into any of them
	// (Driver.Handle).
	var f Frame
	var path []overlay.NodeID
	var msg transport.Message
	if in == nil {
		// One read-ahead stream for the whole connection, handshake
		// included: the dialer's first protocol frame may arrive in the
		// Hello's segment.
		in = envelope.NewStream(conn, connBuf)
		var err error
		if l, err = nd.handshake(conn, in, &f); err != nil {
			return
		}
	} else {
		f.Node = l.peer.id
	}
	peer := f.Node // whom the Hello named, at either end
	idle := false
	for {
		conn.SetReadDeadline(time.Now().Add(nd.c.cfg.IdleTimeout))
		n, err := readFrame(in, &f, &path)
		if err == nil && (f.Kind == KindHello || f.Kind == KindHelloAck || f.Kind == KindClaim) {
			err = badFrame{fmt.Errorf("%s after the handshake", f.Kind)}
		}
		if err != nil {
			if errors.As(err, new(badFrame)) {
				// A malformed frame, or one of a kind that is not valid
				// after the handshake: counted, and the connection it came
				// on is closed; the node serves on.
				nd.c.Malformed()
				nd.c.logf("node %d: frame from %d: %v", nd.ID, peer, err)
				return
			}
			ne, ok := err.(net.Error)
			if !ok || !ne.Timeout() {
				return
			}
			nd.c.metrics.deadlineRead.Inc()
			if idle || n > 0 { // silent twice, or stalled inside a frame
				return
			}
			idle = true
			l.release(conn)
			retire(conn)
			continue
		}
		nd.c.metrics.noteRecv(f.Kind, n)
		select {
		case <-nd.killed:
			return
		default:
		}
		var abs int64
		if f.DeadlineMicros > 0 {
			abs = nd.c.Clock().Now().UnixNano() + f.DeadlineMicros*int64(time.Microsecond)
		}
		nd.handleFrame(peer, &f, abs, &msg)
	}
}

// handleFrame dispatches one frame that came from peer; abs is its
// attempt deadline on the cluster clock in nanoseconds, 0 for none. A
// protocol frame becomes m, which the driver owns for the call.
func (nd *Node) handleFrame(peer overlay.NodeID, f *Frame, abs int64, m *transport.Message) {
	switch f.Kind {
	case KindForward, KindConfirm, KindNack:
		*m = f.message(abs)
		nd.c.Handle(nd.Station, m)
	case KindProbe:
		nd.sendMsg(peer, &Frame{Kind: KindProbeAck, Nonce: f.Nonce}, 0)
	case KindProbeAck:
		nd.c.resolveProbe(f.Nonce)
	case KindSettle:
		// The credit lands here, under the batch root the frame carried
		// (Driver.Settled), unless the batch had already closed.
		credit := transport.Credit{Payoff: f.Payoff, Trace: f.Trace, Root: f.Span}
		if nd.c.Settled(nd.Station, f.Batch, &credit) {
			nd.mu.Lock()
			nd.settled[f.Batch] = f.Payoff
			nd.mu.Unlock()
		}
	}
}

// frameOf renders a protocol message as a frame. DeadlineMicros stays
// zero here: the link stamps the budget that remains when it writes.
func frameOf(m *transport.Message) Frame {
	f := Frame{
		Kind:      KindForward + Kind(m.Kind),
		Batch:     m.Batch,
		Conn:      m.Conn,
		Attempt:   m.Attempt,
		From:      m.From,
		Initiator: m.Initiator,
		Responder: m.Responder,
		Remaining: m.Remaining,
		Hop:       m.Hop,
		Path:      m.Path,
		Reason:    m.Reason,
		Trace:     m.Trace,
		Span:      m.Span,
	}
	if s := m.Secure; s != nil {
		f.Contract, f.Records = s.Contract, s.Records
	}
	return f
}

// message is frameOf's inverse for a Forward/Confirm/Nack frame, with the
// attempt deadline the caller re-anchored on the local clock. Records
// come only with a contract, the secure load.
func (f *Frame) message(deadline int64) transport.Message {
	m := transport.Message{
		Kind:      transport.MsgKind(f.Kind - KindForward),
		Reason:    f.Reason,
		Batch:     f.Batch,
		Conn:      f.Conn,
		Attempt:   f.Attempt,
		From:      f.From,
		Initiator: f.Initiator,
		Responder: f.Responder,
		Remaining: f.Remaining,
		Hop:       f.Hop,
		Path:      f.Path,
		Deadline:  deadline,
		Trace:     f.Trace,
		Span:      f.Span,
	}
	if f.Contract != nil {
		m.Secure = &transport.SecureLoad{Contract: f.Contract, Records: f.Records}
	}
	return m
}

// onDeliveryFail is the link's failure callback: the frame could not be
// delivered to `to`. A protocol message is decoded back and goes to the
// driver, which marks the corpse and NACKs or reroutes; anything else
// just dies.
func (nd *Node) onDeliveryFail(to overlay.NodeID, of outFrame) {
	c := nd.c
	if c.isClosed() {
		return
	}
	c.metrics.dropped.Inc()
	if f, err := DecodeFrame(of.b); err == nil && isProtocol(f.Kind) {
		m := f.message(of.abs)
		c.Undeliverable(nd.ID, to, &m)
		return
	}
	c.MarkDead(to)
}

// sendMsg encodes a frame and hands it to the link for `to`, creating the
// link on first use; f is free again once it returns. Frames to this node
// itself are delivered locally, decoded from their encoding (a real wire
// would not carry them anyway). With a configured artificial latency the
// handoff is delayed on the cluster clock, mirroring transport's link
// latency model. Returns false when the frame was refused synchronously
// (node killed, queue full past backpressure, or a frame that does not
// encode).
func (nd *Node) sendMsg(to overlay.NodeID, f *Frame, abs int64) bool {
	select {
	case <-nd.killed:
		return false
	default:
	}
	var l *link
	var buf []byte
	if to != nd.ID {
		l = nd.linkTo(to)
		buf = l.buffer()
	}
	b, err := f.AppendTo(buf)
	if err != nil {
		nd.c.logf("node %d: encode %s for %d: %v", nd.ID, f.Kind, to, err)
		return false
	}
	if l == nil {
		nd.noteSentMsg(f.Kind)
		nd.c.wg.Add(1)
		go func() {
			defer nd.c.wg.Done()
			if g, err := DecodeFrame(b); err == nil {
				nd.handleFrame(nd.ID, g, abs, new(transport.Message))
			}
		}()
		return true
	}
	of := outFrame{b: b, abs: abs}
	if nd.c.latency > 0 {
		nd.noteSentMsg(f.Kind)
		nd.c.Clock().AfterFunc(nd.c.latency, func() {
			if !l.enqueue(of) {
				nd.onDeliveryFail(to, of)
				l.recycle(of.b)
			}
		})
		return true
	}
	if l.enqueue(of) {
		nd.noteSentMsg(f.Kind)
		return true
	}
	l.recycle(of.b)
	return false
}

// noteSentMsg counts a protocol message handed to a link.
func (nd *Node) noteSentMsg(k Kind) {
	if isProtocol(k) {
		nd.c.metrics.sent.Inc()
	}
}

// isProtocol reports whether a kind is a forwarding-protocol message (the
// ones transport counts as sent/dropped) rather than a link-layer frame.
func isProtocol(k Kind) bool {
	return k == KindForward || k == KindConfirm || k == KindNack
}

// linkTo returns (creating if needed) the outbound link to a peer.
func (nd *Node) linkTo(to overlay.NodeID) *link {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if l, ok := nd.links[to]; ok {
		return l
	}
	l := nd.newLink(to, func() (string, bool) { return nd.c.addrOf(to) })
	nd.links[to] = l
	return l
}
