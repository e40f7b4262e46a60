package netwire

import (
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/transport"
)

// lineRouter routes every connection 0 → 1 → responder.
var lineRouter = transport.RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	return 1, self != 0
})

// waitFor polls cond until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// linkConn returns node id's connection to peer, or nil.
func linkConn(c *Cluster, id, peer overlay.NodeID) net.Conn {
	nd := c.Node(id)
	nd.mu.Lock()
	l := nd.links[peer]
	nd.mu.Unlock()
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// TestIdleCloseLosesNothing lets every connection of a 3-node line go idle
// and then connects again. An idle connection is retired by the end that
// timed out, the other end reads its EOF and re-dials for the next frame,
// so no frame is written into a closed socket: no reformation, no drop.
// A frame the other end writes before it has read that EOF is still read.
func TestIdleCloseLosesNothing(t *testing.T) {
	c := NewCluster(Config{IdleTimeout: 200 * time.Millisecond})
	t.Cleanup(c.Close)
	for id := overlay.NodeID(0); id < 3; id++ {
		if err := c.Join(id, lineRouter); err != nil {
			t.Fatal(err)
		}
	}
	connect := func(conn int) {
		t.Helper()
		if _, reforms, err := c.ConnectDetail(0, 2, 1, conn, 4, 5*time.Second); err != nil || reforms != 0 {
			t.Fatalf("connection %d: %d reformations, err %v", conn, reforms, err)
		}
	}
	connect(1)
	time.Sleep(600 * time.Millisecond)
	for conn := 2; conn <= 4; conn++ {
		connect(conn)
	}
	if m := c.Metrics(); m.Dropped != 0 || m.Reformations != 0 {
		t.Fatalf("after the idle close: dropped = %d, reformations = %d; want 0 and 0", m.Dropped, m.Reformations)
	}

	// A peer that writes only after node 1 has retired their connection.
	late, err := net.Dial("tcp", c.Node(1).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	late.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := WriteFrame(late, &Frame{Kind: KindHello, Node: 9, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, _, err := ReadFrame(late); err != nil || ack.Kind != KindHelloAck {
		t.Fatalf("handshake: %v %v", ack, err)
	}
	if f, _, err := ReadFrame(late); err != io.EOF {
		t.Fatalf("idle connection: read %v, %v; want node 1's EOF", f, err)
	}
	if _, err := WriteFrame(late, &Frame{Kind: KindSettle, Batch: 9, Node: 1, Payoff: 2.5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the settle written after the retire", func() bool { return c.Node(1).Credited(9) == 2.5 })
}

// TestSimultaneousDialKeepsOneConnection has both ends of every pair of a
// 6-node cluster probe each other at once, so both may dial. Every probe
// and every ack arrives, and once the losing dials have drained each pair
// holds one connection that both ends write, and a second round dials
// nothing.
func TestSimultaneousDialKeepsOneConnection(t *testing.T) {
	const nodes = 6
	for rep := 0; rep < 5; rep++ {
		c := NewCluster(Config{})
		for id := overlay.NodeID(0); id < nodes; id++ {
			if err := c.Join(id, lineRouter); err != nil {
				t.Fatal(err)
			}
		}
		probeAll := func() {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for a := overlay.NodeID(0); a < nodes; a++ {
				for b := overlay.NodeID(0); b < nodes; b++ {
					if a == b {
						continue
					}
					wg.Add(1)
					go func(a, b overlay.NodeID) {
						defer wg.Done()
						<-start
						if !c.Probe(a, b, 5*time.Second) {
							t.Errorf("probe %d → %d was lost", a, b)
						}
					}(a, b)
				}
			}
			close(start)
			wg.Wait()
		}
		probeAll()
		const pairs = nodes * (nodes - 1) / 2
		waitFor(t, "one connection per pair", func() bool { return c.metrics.connsOpen.Value() == 2*pairs })
		for a := overlay.NodeID(0); a < nodes; a++ {
			for b := a + 1; b < nodes; b++ {
				ca, cb := linkConn(c, a, b), linkConn(c, b, a)
				if ca == nil || cb == nil || ca.LocalAddr().String() != cb.RemoteAddr().String() {
					t.Fatalf("pair %d–%d: the two ends write different connections", a, b)
				}
			}
		}
		dials := c.metrics.dialsOK.Value()
		probeAll()
		if got := c.metrics.dialsOK.Value(); got != dials {
			t.Fatalf("a second round over linked pairs dialed %d more times", got-dials)
		}
		c.Close()
	}
}

// TestImpostorHelloGetsNothing opens a second connection to node 1 whose
// Hello names a node node 1 is already linked with: node 0, which dialed
// node 1, and node 2, which node 1 dialed. Node 1 answers the handshake
// and reads what the impostor sends, but writes it nothing: the probe ack
// the impostor asks for, and node 1's own traffic, go to the real peer.
// A last impostor names no member and sends a CONFIRM whose Hop indexes
// nothing: node 1 refuses and counts it, and keeps serving.
func TestImpostorHelloGetsNothing(t *testing.T) {
	c := NewCluster(Config{})
	t.Cleanup(c.Close)
	for id := overlay.NodeID(0); id < 3; id++ {
		if err := c.Join(id, lineRouter); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Probe(0, 1, 5*time.Second) || !c.Probe(1, 2, 5*time.Second) {
		t.Fatal("probe between live nodes failed")
	}
	for _, named := range []overlay.NodeID{0, 2} {
		imp, err := net.Dial("tcp", c.Node(1).Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer imp.Close()
		imp.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := WriteFrame(imp, &Frame{Kind: KindHello, Node: named, Nonce: 1}); err != nil {
			t.Fatal(err)
		}
		if ack, _, err := ReadFrame(imp); err != nil || ack.Kind != KindHelloAck {
			t.Fatalf("handshake naming %d: %v %v", named, ack, err)
		}
		acks := c.metrics.framesRecv[KindProbeAck].Value()
		if _, err := WriteFrame(imp, &Frame{Kind: KindProbe, Node: named, Nonce: 99}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the ack of the impostor's probe", func() bool { return c.metrics.framesRecv[KindProbeAck].Value() > acks })
		if !c.Probe(1, named, 5*time.Second) {
			t.Fatalf("node 1 lost its link to %d", named)
		}
		imp.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if f, _, err := ReadFrame(imp); err == nil {
			t.Fatalf("impostor naming %d received a %s frame", named, f.Kind)
		}
	}
	// A Hello naming no member is answered too, and the connection read:
	// a CONFIRM on it whose Hop lies past its one-node path is refused and
	// counted, and node 1 stays up to answer a member's probe.
	imp, err := net.Dial("tcp", c.Node(1).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	imp.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := WriteFrame(imp, &Frame{Kind: KindHello, Node: 77, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	if ack, _, err := ReadFrame(imp); err != nil || ack.Kind != KindHelloAck {
		t.Fatalf("handshake naming 77: %v %v", ack, err)
	}
	forged := &Frame{Kind: KindConfirm, Batch: 1, Conn: 1, Attempt: 1, Path: []overlay.NodeID{0}, Hop: 5}
	if _, err := WriteFrame(imp, forged); err != nil {
		t.Fatal(err)
	}
	malformed := c.Telemetry().Counter("netwire_malformed_total", nil)
	waitFor(t, "the forged CONFIRM counted malformed", func() bool { return malformed.Value() == 1 })
	if !c.Probe(0, 1, 5*time.Second) {
		t.Fatal("node 1 stopped answering after the forged CONFIRM")
	}
	if got := c.metrics.dialsOK.Value(); got != 2 {
		t.Fatalf("%d dials, want 2: the impostors displaced a link", got)
	}
}

// TestOutOfRangeFrameRefused sends node 1 frames that decode only up to
// their hop or batch fields, each on its own connection after a Hello
// naming no member: a FORWARD whose Remaining is 1<<40 — which would size
// a UM-II router's memo at 2^40 stages — a FORWARD with a negative
// Remaining, a CONFIRM with a negative Hop, and a FORWARD and a Settle
// for batch −1. Each is a decode error: node 1 counts it malformed once,
// closes that connection, which reads EOF, and keeps serving.
func TestOutOfRangeFrameRefused(t *testing.T) {
	c := NewCluster(Config{})
	t.Cleanup(c.Close)
	for id := overlay.NodeID(0); id < 3; id++ {
		if err := c.Join(id, lineRouter); err != nil {
			t.Fatal(err)
		}
	}
	malformed := c.Telemetry().Counter("netwire_malformed_total", nil)
	for n, bad := range []*Frame{
		{Kind: KindForward, Batch: 1, Conn: 1, Attempt: 1, Responder: 2, Remaining: 1 << 40, Path: []overlay.NodeID{0}},
		{Kind: KindForward, Batch: 1, Conn: 1, Attempt: 1, Responder: 2, Remaining: -1, Path: []overlay.NodeID{0}},
		{Kind: KindConfirm, Batch: 1, Conn: 1, Attempt: 1, Responder: 2, Path: []overlay.NodeID{0, 1, 2}, Hop: -1},
		{Kind: KindForward, Batch: -1, Conn: 1, Attempt: 1, Responder: 2, Remaining: 2, Path: []overlay.NodeID{0}},
		{Kind: KindSettle, Batch: -1, Node: 1, Payoff: 3},
	} {
		imp, err := net.Dial("tcp", c.Node(1).Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer imp.Close()
		imp.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := WriteFrame(imp, &Frame{Kind: KindHello, Node: 77, Nonce: 1}); err != nil {
			t.Fatal(err)
		}
		if ack, _, err := ReadFrame(imp); err != nil || ack.Kind != KindHelloAck {
			t.Fatalf("handshake naming 77: %v %v", ack, err)
		}
		if _, err := WriteFrame(imp, bad); err != nil {
			t.Fatal(err)
		}
		if f, _, err := ReadFrame(imp); err != io.EOF {
			t.Fatalf("after frame %d: read %v, %v; want EOF", n, f, err)
		}
		if got := malformed.Value(); got != int64(n+1) {
			t.Fatalf("after frame %d: %d malformed, want %d", n, got, n+1)
		}
		if !c.Probe(0, 1, 5*time.Second) {
			t.Fatalf("node 1 stopped answering after frame %d", n)
		}
	}
}

// TestStrayFrameKindRefused sends node 1, after a Hello naming member 0,
// a frame of a kind that is valid only in the handshake or that no node
// sends: a Claim, and on a fresh cluster a second Hello. Each decodes
// cleanly, is counted malformed and closes its connection, which then
// reads EOF; node 1 keeps serving.
func TestStrayFrameKindRefused(t *testing.T) {
	for _, stray := range []*Frame{claimFrame(2), {Kind: KindHello, Node: 2, Nonce: 2}} {
		c := NewCluster(Config{})
		t.Cleanup(c.Close)
		for id := overlay.NodeID(0); id < 3; id++ {
			if err := c.Join(id, lineRouter); err != nil {
				t.Fatal(err)
			}
		}
		imp, err := net.Dial("tcp", c.Node(1).Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer imp.Close()
		imp.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := WriteFrame(imp, &Frame{Kind: KindHello, Node: 0, Nonce: 1}); err != nil {
			t.Fatal(err)
		}
		if ack, _, err := ReadFrame(imp); err != nil || ack.Kind != KindHelloAck {
			t.Fatalf("handshake naming 0: %v %v", ack, err)
		}
		if _, err := WriteFrame(imp, stray); err != nil {
			t.Fatal(err)
		}
		malformed := c.Telemetry().Counter("netwire_malformed_total", nil)
		waitFor(t, "the "+stray.Kind.String()+" frame counted malformed", func() bool { return malformed.Value() == 1 })
		if f, _, err := ReadFrame(imp); err != io.EOF {
			t.Fatalf("after a stray %s frame: read %v, %v; want EOF", stray.Kind, f, err)
		}
		if !c.Probe(2, 1, 5*time.Second) {
			t.Fatalf("node 1 stopped answering after a stray %s frame", stray.Kind)
		}
	}
}

// TestCloseLeavesNothingOpen runs a settled batch and a kill, then closes
// the cluster: every socket, dialed or accepted, is closed, the gauge
// that counts them reads 0, and no goroutine outlives Close.
func TestCloseLeavesNothingOpen(t *testing.T) {
	before := runtime.NumGoroutine()
	topo := buildTopo(8, 4, 5)
	c := NewCluster(Config{})
	for id := range topo {
		if err := c.Join(id, transport.NewRandomRouter(topo, dist.NewSource(6))); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c.RunBatch(0, 7, 1, 5, 4, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SettleBatch(0, 1, out, core.Contract{Pf: 1, Pr: 10}); err != nil {
		t.Fatal(err)
	}
	// Kill the node holding the most sockets: all of them close, the ones
	// it dialed included, and so do their readers.
	var victim *Node
	open := func(nd *Node) int { nd.mu.Lock(); defer nd.mu.Unlock(); return len(nd.conns) }
	for id := overlay.NodeID(1); id < 7; id++ {
		if nd := c.Node(id); victim == nil || open(nd) > open(victim) {
			victim = nd
		}
	}
	if open(victim) == 0 {
		t.Fatal("a settled batch left no connection open")
	}
	c.RemovePeer(victim.ID)
	waitFor(t, "the killed node's sockets to close", func() bool { return open(victim) == 0 })
	c.Close()
	if got := c.metrics.connsOpen.Value(); got != 0 {
		t.Fatalf("netwire_conns_open = %d after Close", got)
	}
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= before })
}

// quiescedRun runs 20 batches of 10 connections over 16 nodes of degree 6
// with a hop budget of 5, as tcp_um1_agg does over 32: one batch after
// another, each settled and its settle frames landed before the next. It
// returns the cluster and the number of unordered pairs of nodes that
// exchanged a frame.
func quiescedRun(t *testing.T) (*Cluster, int) {
	const nodes, batches, conns = 16, 20, 10
	topo := buildTopo(nodes, 6, 41)
	avail := make(map[overlay.NodeID]float64, nodes)
	for id := range topo {
		avail[id] = 0.5
	}
	contract := core.Contract{Pf: 1, Pr: 10}
	c := startCluster(t, topo, transport.NewUtilityRouter(topo, quality.DefaultWeights(), contract, avail))
	pairs := make(map[[2]overlay.NodeID]bool)
	note := func(a, b overlay.NodeID) {
		if a > b {
			a, b = b, a
		}
		pairs[[2]overlay.NodeID{a, b}] = true
	}
	rng := dist.NewSource(42)
	for b := 1; b <= batches; b++ {
		i := overlay.NodeID(rng.Intn(nodes))
		r := overlay.NodeID(rng.Intn(nodes - 1))
		if r >= i {
			r++
		}
		out, err := c.RunBatch(i, r, b, conns, 5, 10*time.Second)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for _, p := range out.Paths {
			for k := 1; k < len(p); k++ {
				note(p[k-1], p[k])
			}
		}
		if _, err := c.SettleBatch(i, b, out, contract); err != nil {
			t.Fatal(err)
		}
		for id := range out.Forwards {
			note(i, id)
			waitFor(t, "a settle frame", func() bool { return c.Node(id).Credited(b) != 0 })
		}
	}
	return c, len(pairs)
}

// TestQuiescedWireCounts counts the wire after quiescedRun. Each unordered
// pair that exchanged a frame was dialed once, and the protocol frames and
// bytes are what one-way links sent, kind by kind: only the handshakes of
// the dials that are gone are missing (DESIGN.md §3v).
func TestQuiescedWireCounts(t *testing.T) {
	c, pairs := quiescedRun(t)
	m := c.metrics
	dials := m.dialsOK.Value()
	if dials != int64(pairs) {
		t.Fatalf("%d dials for %d pairs that exchanged frames", dials, pairs)
	}
	want := map[Kind]int64{
		KindHello: dials, KindHelloAck: dials,
		KindForward: quiescedForwards, KindConfirm: quiescedConfirms, KindSettle: quiescedSettles,
	}
	for k := KindHello; k < kindEnd; k++ {
		if sent, recv := m.framesSent[k].Value(), m.framesRecv[k].Value(); sent != want[k] || recv != want[k] {
			t.Errorf("%s frames: %d sent, %d received; want %d", k, sent, recv, want[k])
		}
	}
	handshake := int64(len(mustEncode(t, &Frame{Kind: KindHello})) + len(mustEncode(t, &Frame{Kind: KindHelloAck})))
	if got := m.bytesSent.Value(); got != quiescedProtocolBytes+dials*handshake {
		t.Errorf("%d bytes sent, want %d of protocol frames and %d per dial", got, quiescedProtocolBytes, handshake)
	}
}

// What quiescedRun sends besides handshakes, as measured with one-way
// links: 310 568 bytes in all, 82 dials (one per ordered pair) of 44
// handshake bytes each.
const (
	quiescedForwards      = 1200
	quiescedConfirms      = 1200
	quiescedSettles       = 72
	quiescedProtocolBytes = 310_568 - 82*44
)

// TestProbeAckReturnsToProber probes between two nodes of a cluster that
// has no node 0. A probe frame carries no sender, so the ack goes to the
// peer of the connection the probe came in on; it used to go to node 0.
func TestProbeAckReturnsToProber(t *testing.T) {
	c := NewCluster(Config{})
	t.Cleanup(c.Close)
	for _, id := range []overlay.NodeID{1, 2} {
		if err := c.Join(id, lineRouter); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Probe(1, 2, 5*time.Second) || !c.Probe(2, 1, 5*time.Second) {
		t.Fatal("a probe between live nodes was not answered")
	}
}

// TestOutcomePathSurvivesNextDecode runs two connections back to back
// from node 0 to node 4, the first over relay 2 and the second over relay
// 3; both CONFIRMs reach node 0 over its one connection with node 1,
// whose reader decodes every path into one buffer. The first connection's
// path must still read 0 1 2 4 once the second's CONFIRM was decoded
// there: the driver keeps a copy, not the reader's buffer.
func TestOutcomePathSurvivesNextDecode(t *testing.T) {
	c := NewCluster(Config{})
	t.Cleanup(c.Close)
	r := transport.RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		switch self {
		case 0:
			return 1, false
		case 1:
			return overlay.NodeID(1 + conn), false
		}
		return 0, true
	})
	for id := overlay.NodeID(0); id < 5; id++ {
		if err := c.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	first, _, err := c.ConnectDetail(0, 4, 1, 1, 4, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := c.ConnectDetail(0, 4, 1, 2, 4, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, []overlay.NodeID{0, 1, 2, 4}) || !slices.Equal(second, []overlay.NodeID{0, 1, 3, 4}) {
		t.Fatalf("paths %v and %v, want [0 1 2 4] and [0 1 3 4]", first, second)
	}
}

// TestConnectOverTCPAllocs pins what a connection over a warmed 3-node
// line costs the whole process: a frame is encoded at send into a buffer
// its link recycles, and a path decoded into its reader's buffer, so no
// allocation is left per frame — only the connection's own (its record,
// launch buffer and window timer). The line's four frames used to add
// two allocations each.
func TestConnectOverTCPAllocs(t *testing.T) {
	c := NewCluster(Config{})
	t.Cleanup(c.Close)
	for id := overlay.NodeID(0); id < 3; id++ {
		if err := c.Join(id, lineRouter); err != nil {
			t.Fatal(err)
		}
	}
	conn := 0
	connect := func() {
		conn++
		if _, _, err := c.ConnectDetail(0, 2, 1, conn, 2, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		connect() // dial both links and grow every buffer
	}
	if allocs := testing.AllocsPerRun(200, connect); allocs > connectAllocs {
		t.Fatalf("%v allocations per connection over TCP, want <= %d", allocs, connectAllocs)
	}
}

// connectAllocs is what TestConnectOverTCPAllocs measures for one
// connection, under -race too: 5, where a Frame allocated per send and a
// Path per receive made it 13.
const connectAllocs = 5
