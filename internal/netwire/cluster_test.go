package netwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/transport"
	"p2panon/internal/wire"
)

// buildTopo creates a dense random topology over n nodes (the same
// construction the transport tests use).
func buildTopo(n, degree int, seed uint64) transport.Topology {
	rng := dist.NewSource(seed)
	topo := make(transport.Topology)
	for i := 0; i < n; i++ {
		idx := dist.SampleWithoutReplacement(rng, n-1, degree)
		var nbs []overlay.NodeID
		for _, j := range idx {
			if j >= i {
				j++
			}
			nbs = append(nbs, overlay.NodeID(j))
		}
		topo[overlay.NodeID(i)] = nbs
	}
	return topo
}

// startCluster joins every topology member to a fresh loopback cluster.
func startCluster(t *testing.T, topo transport.Topology, r transport.Router) *Cluster {
	t.Helper()
	c := NewCluster(Config{})
	for id := range topo {
		if err := c.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterConnectOverTCP(t *testing.T) {
	topo := buildTopo(10, 4, 1)
	r := transport.NewRandomRouter(topo, dist.NewSource(2))
	c := startCluster(t, topo, r)
	path, _, err := c.ConnectDetail(0, 9, 1, 1, 4, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 9 {
		t.Fatalf("path endpoints %v, want 0..9", path)
	}
	m := c.Metrics()
	if m.Connects != 1 || m.Sent == 0 {
		t.Fatalf("metrics after one connection: %+v", m)
	}
}

func TestClusterRunBatchAndSettle(t *testing.T) {
	topo := buildTopo(12, 5, 3)
	r := transport.NewRandomRouter(topo, dist.NewSource(4))
	c := startCluster(t, topo, r)
	out, err := c.RunBatch(0, 11, 1, 5, 4, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.SetSize() == 0 {
		t.Fatal("empty forwarder set after a 5-connection batch")
	}
	contract := core.Contract{Pf: 1.5, Pr: 20}
	sent, err := c.SettleBatch(0, 1, out, contract)
	if err != nil {
		t.Fatal(err)
	}
	if sent != out.SetSize() {
		t.Fatalf("settled %d of %d forwarders", sent, out.SetSize())
	}
	// Settlement is asynchronous; poll until every forwarder is credited
	// its m·P_f + P_r/‖π‖ share.
	deadline := time.Now().Add(5 * time.Second)
	for id := range out.Forwards {
		want := out.Payoff(id, contract)
		for {
			got := c.Node(id).Credited(1)
			if got == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d credited %v, want %v", id, got, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestClusterProbe(t *testing.T) {
	topo := buildTopo(4, 3, 9)
	r := transport.NewRandomRouter(topo, dist.NewSource(9))
	c := startCluster(t, topo, r)
	if !c.Probe(0, 1, 2*time.Second) {
		t.Fatal("probe to a live peer failed")
	}
	c.RemovePeer(1)
	if c.Probe(0, 1, 200*time.Millisecond) {
		t.Fatal("probe to a killed peer succeeded")
	}
}

func TestClusterForwardCounts(t *testing.T) {
	// A 3-node line: 0 -> 1 -> 2. Node 1 must forward every connection.
	topo := transport.Topology{
		0: {1},
		1: {0, 2},
		2: {1},
	}
	r := transport.NewRandomRouter(topo, dist.NewSource(5))
	c := startCluster(t, topo, r)
	const k = 4
	out, err := c.RunBatch(0, 2, 7, k, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Forwards[1]; got != k {
		t.Fatalf("node 1 forwarded %d times, want %d", got, k)
	}
}

// TestClusterChurnIntegration is the -race integration test: a cluster
// running concurrent batches while a relay is abruptly killed mid-run.
// The killed peer must surface as NACKs and path reformations (not hangs),
// surviving connections must complete, and after Close the cluster must
// not leak goroutines.
func TestClusterChurnIntegration(t *testing.T) {
	before := runtime.NumGoroutine()

	topo := buildTopo(8, 5, 11)
	r := transport.NewRandomRouter(topo, dist.NewSource(12))
	// 2ms of link latency stretches each batch well past the kill below,
	// so the relay dies with connections genuinely in flight.
	c := NewCluster(Config{Latency: 2 * time.Millisecond})
	for id := range topo {
		if err := c.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	c.SetRetry(transport.RetryPolicy{MaxAttempts: 6, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 40 * time.Millisecond})

	// Two initiators run batches concurrently while a shared relay dies.
	var wg sync.WaitGroup
	results := make(chan error, 2)
	launch := func(initiator, responder overlay.NodeID, batch int) {
		defer wg.Done()
		_, err := c.RunBatch(initiator, responder, batch, 6, 4, 20*time.Second)
		results <- err
	}
	wg.Add(2)
	go launch(0, 7, 1)
	go launch(1, 6, 2)

	// Kill a relay that is neither an initiator nor a responder while the
	// batches are in flight.
	time.Sleep(10 * time.Millisecond)
	c.RemovePeer(3)

	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("batch failed despite reformation budget: %v", err)
		}
	}

	m := c.Metrics()
	if m.Connects != 12 {
		t.Fatalf("connects = %d, want 12", m.Connects)
	}
	// The dead relay must have been routed around: with a 6-attempt budget
	// and a killed node on popular paths, dropped deliveries, NACKs or
	// reformations must have registered. (Exact counts depend on routing
	// randomness; the invariant is that the failure path was exercised or
	// the corpse was never drawn — with degree 5 over 8 nodes the corpse is
	// drawn with overwhelming probability.)
	if m.Nacks == 0 && m.Dropped == 0 && m.Reformations == 0 {
		t.Fatalf("killed relay never surfaced in metrics: %+v", m)
	}

	c.Close()
	// Goroutine-leak check: Close waits for the cluster's own goroutines,
	// but TCP teardown and test-runner noise settle asynchronously — poll
	// with a drain deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines before=%d after=%d; dump:\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterRetryScheduleThroughDeadRelay pins the router through a
// killed relay: every attempt must fail on a NACK (dial refused), the
// full reformation budget must be spent, and the connection must fail —
// the same schedule transport exhibits in the conformance suite.
func TestClusterRetryScheduleThroughDeadRelay(t *testing.T) {
	pinned := transport.RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		return 1, false // always route via the corpse
	})
	c := NewCluster(Config{})
	t.Cleanup(c.Close)
	for _, id := range []overlay.NodeID{0, 1, 2} {
		if err := c.Join(id, pinned); err != nil {
			t.Fatal(err)
		}
	}
	c.SetRetry(transport.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	c.RemovePeer(1)
	_, reforms, err := c.ConnectDetail(0, 2, 1, 1, 10, 5*time.Second)
	if err == nil {
		t.Fatal("connection through a permanently dead relay succeeded")
	}
	if reforms != 2 {
		t.Fatalf("reformations = %d, want MaxAttempts-1 = 2", reforms)
	}
	m := c.Metrics()
	if m.Failures != 1 || m.Nacks != 3 {
		t.Fatalf("failures = %d nacks = %d, want 1 and 3", m.Failures, m.Nacks)
	}
}

// TestClusterUnknownResponder checks the same early validation the
// in-process backend applies.
func TestClusterUnknownResponder(t *testing.T) {
	topo := buildTopo(4, 3, 31)
	r := transport.NewRandomRouter(topo, dist.NewSource(32))
	c := startCluster(t, topo, r)
	if _, _, err := c.ConnectDetail(0, 99, 1, 1, 3, time.Second); err == nil {
		t.Fatal("connection to an unknown responder succeeded")
	}
	if _, _, err := c.ConnectDetail(0, 0, 1, 1, 3, time.Second); err == nil {
		t.Fatal("self-connection succeeded")
	}
}

// TestNackFrameCarriesNoContract plays a remote initiator on raw sockets,
// the way a node in another process appears to a cluster: node 0 dials
// node 1 and sends it a FORWARD under a signed contract, node 1 seals its
// record and finds its successor undeliverable, and the NACK it sends back
// on that same connection must carry neither the contract nor the records
// — no reverse-path node reads them.
func TestNackFrameCarriesNoContract(t *testing.T) {
	bk, err := onion.NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	contract, err := onion.NewSignedContract(1, 75, 150, bk.Public())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{})
	t.Cleanup(c.Close)
	viaNowhere := transport.RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		return 2, false // a node nobody knows an address for
	})
	if err := c.Join(1, viaNowhere); err != nil {
		t.Fatal(err)
	}
	c.RegisterPeer(0, "127.0.0.1:1") // in the directory, so node 1 adopts its connection

	out, err := net.Dial("tcp", c.Node(1).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	out.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := WriteFrame(out, &Frame{Kind: KindHello, Node: 0}); err != nil {
		t.Fatal(err)
	}
	if ack, _, err := ReadFrame(out); err != nil || ack.Kind != KindHelloAck {
		t.Fatalf("handshake with node 1: %v %v", ack, err)
	}
	if _, err := WriteFrame(out, &Frame{
		Kind: KindForward, Batch: 1, Conn: 1, Attempt: 7,
		From: 0, Initiator: 0, Responder: 3, Remaining: 4,
		Path: []overlay.NodeID{0}, Contract: contract,
	}); err != nil {
		t.Fatal(err)
	}

	var hdr [wire.PrefixSize]byte
	if _, err := io.ReadFull(out, hdr[:]); err != nil {
		t.Fatalf("no NACK on the forward's connection: %v", err)
	}
	raw := append(hdr[:], make([]byte, binary.BigEndian.Uint32(hdr[:]))...)
	if _, err := io.ReadFull(out, raw[wire.PrefixSize:]); err != nil {
		t.Fatal(err)
	}
	nack, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if nack.Kind != KindNack || nack.Attempt != 7 || nack.Reason != transport.NackDeparted || nack.From != 2 {
		t.Fatalf("got %s frame for attempt %d, reason %d about %d; want the NACK for attempt 7 about node 2",
			nack.Kind, nack.Attempt, nack.Reason, nack.From)
	}
	// flags follows version, kind and the nine fixed 8-byte fields.
	if flags := raw[wire.PrefixSize+2+9*8]; flags&flagContract != 0 {
		t.Fatalf("NACK frame flags %#x have the contract bit set (%d bytes on the wire)", flags, len(raw))
	}
	if nack.Contract != nil || len(nack.Records) != 0 {
		t.Fatalf("NACK frame carries contract=%v and %d records", nack.Contract != nil, len(nack.Records))
	}
}

// TestInboundHandshakeRejectsNonHello is a peer that speaks before it
// introduces itself: its first frame is well-formed but not a Hello. The
// node closes the connection, says which kind it got (the log used to read
// "inbound handshake: <nil>") and counts the rejection where /metrics
// shows it. A Hello coalesced with the frame behind it is the opposite
// case: both are served off the one read-ahead stream.
func TestInboundHandshakeRejectsNonHello(t *testing.T) {
	c := NewCluster(Config{})
	t.Cleanup(c.Close)
	var log bytes.Buffer
	c.logw = &log
	if err := c.Join(1, transport.RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		return responder, true
	})); err != nil {
		t.Fatal(err)
	}
	dial := func(frames ...*Frame) net.Conn {
		conn, err := net.Dial("tcp", c.Node(1).Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		var wire []byte
		for _, f := range frames {
			if wire, err = f.AppendTo(wire); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	rude := dial(&Frame{Kind: KindProbe, Nonce: 9})
	if _, err := rude.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection that opened with a probe: read %v, want io.EOF", err)
	}
	if got := c.metrics.dialsRejected.Value(); got != 1 {
		t.Fatalf("netwire_dials_total{result=rejected} = %d, want 1", got)
	}
	c.logMu.Lock()
	logged := log.String()
	c.logMu.Unlock()
	if !strings.Contains(logged, "inbound handshake: first frame is probe, want hello") {
		t.Fatalf("log does not name the kind received:\n%s", logged)
	}

	// Hello and a settle in one segment: the ack comes back and the settle,
	// already sitting in the read-ahead, is credited.
	polite := dial(&Frame{Kind: KindHello, Node: 0}, &Frame{Kind: KindSettle, Batch: 4, Payoff: 2.5})
	if ack, _, err := ReadFrame(polite); err != nil || ack.Kind != KindHelloAck {
		t.Fatalf("handshake: %v %v", ack, err)
	}
	for deadline := time.Now().Add(10 * time.Second); c.Node(1).Credited(4) != 2.5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("settle coalesced with the hello was never credited (got %v)", c.Node(1).Credited(4))
		}
	}
	if got := c.metrics.dialsRejected.Value(); got != 1 {
		t.Fatalf("a well-formed handshake was counted as rejected (%d)", got)
	}
}

// TestFrameMessageConversion pins the read/write boundary: every field of
// a protocol message survives frameOf and message, and the three message
// kinds land on the three frame kinds. A NACK's reason travels as its
// byte, and its subject in the frame's From, as a FORWARD's sender does.
func TestFrameMessageConversion(t *testing.T) {
	cases := []struct {
		m    transport.Message
		kind Kind
		from overlay.NodeID
	}{
		{transport.Message{Kind: transport.MsgForward, From: 4}, KindForward, 4},
		{transport.Message{Kind: transport.MsgConfirm}, KindConfirm, 0},
		{transport.Message{Kind: transport.MsgNack, Reason: transport.NackDeparted, From: 4}, KindNack, 4},
		{transport.Message{Kind: transport.MsgNack, Reason: transport.NackContract}, KindNack, 0},
	}
	for _, tc := range cases {
		m := tc.m
		m.Batch, m.Conn, m.Attempt = 1, 2, 3
		m.Initiator, m.Responder, m.Remaining = 5, 6, 7
		m.Path, m.Hop = []overlay.NodeID{5, 4}, 1
		m.Deadline = 9e9
		m.Secure = &transport.SecureLoad{
			Contract: &onion.SignedContract{BatchID: 1},
			Records:  []onion.PathRecord{{Sealed: []byte{1}}},
		}
		m.Trace, m.Span = 10, 11
		f := frameOf(&m)
		if f.Kind != tc.kind || f.From != tc.from || f.Reason != m.Reason {
			t.Fatalf("message %v became frame kind %s from %d reason %d, want %s from %d reason %d",
				m.Kind, f.Kind, f.From, f.Reason, tc.kind, tc.from, m.Reason)
		}
		got := f.message(m.Deadline)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", got, m)
		}
		if got.From != tc.from {
			t.Fatalf("%v arrived from %d, want %d", m.Kind, got.From, tc.from)
		}
	}
}

// TestBatchStateBoundedOverTCP is the TCP counterpart of transport's
// in-process bound: 10³ batches settled over loopback, up to three open at
// a time. Once a batch's Settle frames have landed, each member is
// credited, and the router's histories number no more than the batches
// still open.
func TestBatchStateBoundedOverTCP(t *testing.T) {
	const nodes, batches, window = 8, 1_000, 3
	topo := buildTopo(nodes, 4, 23)
	avail := make(map[overlay.NodeID]float64, nodes)
	for id := range topo {
		avail[id] = 0.5
	}
	contract := core.Contract{Pf: 1, Pr: 10}
	r := transport.NewUtilityRouter(topo, quality.DefaultWeights(), contract, avail)
	c := startCluster(t, topo, r)
	rng := dist.NewSource(24)
	type openBatch struct {
		id        int
		initiator overlay.NodeID
		out       *transport.BatchOutcome
	}
	var open []openBatch
	for b := 1; b <= batches; b++ {
		i := overlay.NodeID(rng.Intn(nodes))
		resp := overlay.NodeID(rng.Intn(nodes - 1))
		if resp >= i {
			resp++
		}
		out, err := c.RunBatch(i, resp, b, 2, 4, 10*time.Second)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		open = append(open, openBatch{b, i, out})
		if len(open) == window {
			s := open[0]
			open = open[1:]
			if _, err := c.SettleBatch(s.initiator, s.id, s.out, contract); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for id := range s.out.Forwards {
				for c.Node(id).Credited(s.id) == 0 {
					if time.Now().After(deadline) {
						t.Fatalf("batch %d: node %d never settled", s.id, id)
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
		if got := r.OpenBatches(); got > len(open) {
			t.Fatalf("after batch %d: router holds %d histories for %d open batches", b, got, len(open))
		}
	}
}
