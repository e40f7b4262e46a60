package transport

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/sim"
	"p2panon/internal/trace"
	"p2panon/internal/vclock"
)

// buildTopo creates a dense random topology over n peers.
func buildTopo(n, degree int, seed uint64) Topology {
	rng := dist.NewSource(seed)
	topo := make(Topology)
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

func uniformAvail(n int) map[overlay.NodeID]float64 {
	m := make(map[overlay.NodeID]float64, n)
	for i := 0; i < n; i++ {
		m[overlay.NodeID(i)] = 1.0 / float64(n)
	}
	return m
}

// engineNet is a Network on an engine clock. Its connections run through
// run, so retry backoff, attempt windows and link latency take no wall
// time, and timing assertions read engine time, exact to the nanosecond.
type engineNet struct {
	*Network
	eng *sim.Engine
}

// onEngine puts n on a fresh engine clock.
func onEngine(n *Network) engineNet {
	eng := sim.NewEngine()
	n.SetClock(vclock.Engine(eng))
	return engineNet{n, eng}
}

// run starts one connection (under contract when it is non-nil), steps
// the engine until it has finished, then runs the engine until its queue
// drains, and returns the outcome with the engine time from the start to
// the outcome.
func (e engineNet) run(t *testing.T, initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration, contract *onion.SignedContract) (Outcome, time.Duration) {
	t.Helper()
	start := e.eng.Now().Duration()
	c := &connRec{}
	if err := e.start(c, initiator, responder, batch, conn, budget, timeout, contract); err != nil {
		t.Fatal(err)
	}
	for !c.finished {
		if !e.eng.Step() {
			t.Fatal("the connection never finished")
		}
	}
	took := e.eng.Now().Duration() - start
	e.eng.Run()
	return c.out, took
}

func startNetwork(t *testing.T, topo Topology, r Router) *Network {
	t.Helper()
	n := NewNetwork(0)
	for id := range topo {
		if err := n.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(n.Close)
	return n
}

func TestConnectCompletesEndToEnd(t *testing.T) {
	topo := buildTopo(20, 5, 1)
	r := NewRandomRouter(topo, dist.NewSource(2))
	n := startNetwork(t, topo, r)
	path, _, err := n.ConnectDetail(0, 19, 1, 1, 4, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 19 {
		t.Fatalf("path %v", path)
	}
	if len(path) < 2 || len(path) > 7 {
		t.Fatalf("path length %d", len(path))
	}
}

func TestConnectValidation(t *testing.T) {
	topo := buildTopo(5, 2, 3)
	r := NewRandomRouter(topo, dist.NewSource(4))
	n := startNetwork(t, topo, r)
	if _, _, err := n.ConnectDetail(0, 0, 1, 1, 3, time.Second); err == nil {
		t.Fatal("I == R accepted")
	}
	if _, _, err := n.ConnectDetail(99, 0, 1, 1, 3, time.Second); err == nil {
		t.Fatal("unknown initiator accepted")
	}
	if _, _, err := n.ConnectDetail(0, 99, 1, 1, 3, time.Second); err == nil {
		t.Fatal("unknown responder accepted")
	}
}

func TestJoinValidation(t *testing.T) {
	n := NewNetwork(0)
	defer n.Close()
	r := NewRandomRouter(buildTopo(3, 1, 5), dist.NewSource(6))
	if err := n.Join(1, nil); err == nil {
		t.Fatal("nil router accepted")
	}
	if err := n.Join(1, r); err != nil {
		t.Fatal(err)
	}
	if err := n.Join(1, r); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	if n.Local(1) == nil || n.Local(42) != nil {
		t.Fatal("Local lookup wrong")
	}
	// The registry is a slice indexed by id: a negative id is refused,
	// and one before, past or outside it names no peer.
	for _, id := range []overlay.NodeID{overlay.None, -7} {
		if err := n.Join(id, r); err == nil {
			t.Fatalf("negative id %d accepted", id)
		}
	}
	for _, id := range []overlay.NodeID{overlay.None, -7, 0, 2, 42} {
		if n.Local(id) != nil || n.Addressable(id) {
			t.Fatalf("id %d, which no peer holds, is addressable", id)
		}
	}
}

func TestHopBudgetForcesDelivery(t *testing.T) {
	topo := buildTopo(20, 5, 7)
	r := NewRandomRouter(topo, dist.NewSource(8))
	n := startNetwork(t, topo, r)
	for i := 0; i < 20; i++ {
		path, _, err := n.ConnectDetail(0, 19, 1, i+1, 3, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// budget 3 → at most 3 forward decisions + delivery: ≤ 5 nodes...
		// precisely: initiator consumes one decision, so ≤ budget+2 nodes.
		if len(path) > 5 {
			t.Fatalf("path %v exceeds budget", path)
		}
	}
}

func TestForwardCountsTracked(t *testing.T) {
	// Line topology 0→1→2→3: the only possible route.
	topo := Topology{
		0: {1},
		1: {2},
		2: {3},
		3: {},
	}
	r := NewRandomRouter(topo, dist.NewSource(9))
	n := startNetwork(t, topo, r)
	out, err := n.RunBatch(0, 3, 7, 5, 10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.SetSize() != 2 {
		t.Fatalf("‖π‖ = %d, want 2", out.SetSize())
	}
	if out.Forwards[1] != 5 || out.Forwards[2] != 5 || out.Forwards[0] != 0 {
		t.Fatalf("forwards %v", out.Forwards)
	}
}

func TestBatchPayoffRule(t *testing.T) {
	topo := Topology{0: {1}, 1: {2}, 2: {3}, 3: {}}
	r := NewRandomRouter(topo, dist.NewSource(10))
	n := startNetwork(t, topo, r)
	out, err := n.RunBatch(0, 3, 1, 4, 10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := core.Contract{Pf: 10, Pr: 100}
	// Each of peers 1,2 forwarded 4 times; share = 50.
	if got := out.Payoff(1, c); got != 4*10+50 {
		t.Fatalf("payoff(1) = %g", got)
	}
	if got := out.Payoff(9, c); got != 0 {
		t.Fatalf("non-member payoff %g", got)
	}
}

func TestUtilityRouterShrinksForwarderSet(t *testing.T) {
	topo := buildTopo(30, 6, 11)
	avail := uniformAvail(30)
	c := core.ContractWithTau(75, 2)

	ur := NewUtilityRouter(topo, quality.DefaultWeights(), c, avail)
	nu := startNetwork(t, topo, ur)
	uOut, err := nu.RunBatch(0, 29, 1, 20, 5, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	rr := NewRandomRouter(topo, dist.NewSource(12))
	nr := startNetwork(t, topo, rr)
	rOut, err := nr.RunBatch(0, 29, 1, 20, 5, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if uOut.SetSize() >= rOut.SetSize() {
		t.Fatalf("live utility ‖π‖=%d not below random ‖π‖=%d", uOut.SetSize(), rOut.SetSize())
	}
}

func TestUtilityRouterStabilisesPaths(t *testing.T) {
	topo := buildTopo(30, 6, 13)
	ur := NewUtilityRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 4), uniformAvail(30))
	n := startNetwork(t, topo, ur)
	out, err := n.RunBatch(0, 29, 1, 10, 5, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// After warm-up, consecutive paths should repeat exactly.
	last := out.Paths[len(out.Paths)-1]
	prev := out.Paths[len(out.Paths)-2]
	if len(last) != len(prev) {
		t.Fatalf("steady-state paths differ: %v vs %v", prev, last)
	}
	for i := range last {
		if last[i] != prev[i] {
			t.Fatalf("steady-state paths differ: %v vs %v", prev, last)
		}
	}
}

func TestLatencyDelivery(t *testing.T) {
	topo := Topology{0: {1}, 1: {}, 2: {}}
	n := NewNetwork(100 * time.Microsecond)
	defer n.Close()
	en := onEngine(n)
	r := NewRandomRouter(topo, dist.NewSource(14))
	for id := range topo {
		if err := n.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	out, elapsed := en.run(t, 0, 2, 1, 1, 1, 5*time.Second, nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Path) < 2 {
		t.Fatalf("path %v", out.Path)
	}
	// Forward leg + confirm leg each cross at least one link, so at least
	// two link latencies of engine time must have passed — and because
	// the clock only moves in link-latency hops here, the elapsed engine
	// time is an exact multiple of it.
	if elapsed < 200*time.Microsecond {
		t.Fatalf("latency not applied: engine time elapsed %v", elapsed)
	} else if elapsed%(100*time.Microsecond) != 0 {
		t.Fatalf("engine time elapsed %v is not a whole number of link latencies", elapsed)
	}
}

// TestSendZeroLatencyAllocs pins that an in-process message crosses a
// zero-latency link without a heap copy: the latency branch's timer
// closure must not make Send's message escape, and the FIFO's append
// reuses its backing array.
func TestSendZeroLatencyAllocs(t *testing.T) {
	n := NewNetwork(0)
	defer n.Close()
	if err := n.Join(2, RouterFunc(nil)); err != nil {
		t.Fatal(err)
	}
	// Another goroutine holds the drain, so Send only appends; the pin
	// empties the FIFO itself, and the only code measured is Send's.
	n.draining = true
	msg := Message{Kind: MsgForward, Batch: 1, Conn: 1, Initiator: 1, Responder: 3, Remaining: 4, Path: []overlay.NodeID{1}}
	allocs := testing.AllocsPerRun(200, func() {
		if !n.Send(1, 2, &msg) {
			t.Fatal("send to a registered peer dropped")
		}
		if n.count != 1 {
			t.Fatalf("%d deliveries queued, want 1", n.count)
		}
		n.count = 0
	})
	if allocs != 0 {
		t.Fatalf("zero-latency Send allocates %.0f times, want 0", allocs)
	}
}

// TestMessageSize pins the size of what the in-process hop copies: a
// Message crosses the FIFO by value, one copy per hop, so its fields
// constant for an attempt stay small (DESIGN.md §3aa).
func TestMessageSize(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size > 128 {
		t.Fatalf("Message is %d bytes, want at most 128", size)
	}
}

// TestCloseBatchRacesHandle closes batches on one station while another
// goroutine hands it a FORWARD of each, in the same order: Handle reads
// the closed record with one atomic load while CloseBatch claims its slot
// by CompareAndSwap, and neither takes a lock. Run under -race. Each
// FORWARD is refused or routed (toward a peer that is gone, so it
// crosses the station once), whichever wins its batch.
func TestCloseBatchRacesHandle(t *testing.T) {
	n := NewNetwork(0)
	t.Cleanup(n.Close)
	var routed atomic.Int64
	for id := overlay.NodeID(0); id < 2; id++ {
		if err := n.Join(id, RouterFunc(func(self, _, _, _ overlay.NodeID, _, _, _ int) (overlay.NodeID, bool) {
			routed.Add(1)
			return self + 1, false
		})); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Local(1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := 1; b <= closedCap; b++ {
			m := Message{Kind: MsgForward, Batch: b, Conn: 1, Attempt: b, From: 0, Initiator: 0, Responder: 3,
				Remaining: 2, Path: []overlay.NodeID{0}}
			n.Handle(st, &m)
		}
	}()
	go func() {
		defer wg.Done()
		for b := 1; b <= closedCap; b++ {
			st.CloseBatch(b)
		}
	}()
	wg.Wait()
	refused := n.Telemetry().Counter("transport_closed_batch_total", nil).Value()
	if refused+routed.Load() != closedCap {
		t.Fatalf("%d FORWARDs refused and %d routed, want %d in all", refused, routed.Load(), closedCap)
	}
}

// closeCounter is a BatchCloser router that counts, per batch, the
// CloseBatch calls its stations make.
type closeCounter struct {
	RouterFunc
	mu     sync.Mutex
	closes map[int]int
}

func (r *closeCounter) CloseBatch(batch int) {
	r.mu.Lock()
	r.closes[batch]++
	r.mu.Unlock()
}

// TestCloseBatchOnce closes batches on one station from several
// goroutines at once: CloseBatch takes no lock, only a CompareAndSwap on
// the batch's slot. Run under -race. First each round has every goroutine
// close one batch, the rounds alternating between two batches congruent
// mod closedCap, so each round's batch is open and exactly one call per
// round reports true. Then each goroutine closes both batches in turn
// many times: every true hands the slot from one batch to the other, so
// over the whole test the two batches' trues alternate, and the batch
// that holds the slot at the end has the last of them. The router sees
// one CloseBatch per true.
func TestCloseBatchOnce(t *testing.T) {
	const workers, rounds, turns = 8, 50, 200
	batches := [2]int{3, 3 + closedCap}
	r := &closeCounter{closes: make(map[int]int)}
	st := NewStation(1, r)
	var won [2]atomic.Int64
	run := func(closes func(w int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				closes(w)
			}(w)
		}
		wg.Wait()
	}
	for round := 0; round < rounds; round++ {
		i := round % 2
		before := won[i].Load()
		run(func(int) {
			if st.CloseBatch(batches[i]) {
				won[i].Add(1)
			}
		})
		if got := won[i].Load() - before; got != 1 {
			t.Fatalf("round %d: %d closes of batch %d reported true, want 1", round, got, batches[i])
		}
	}
	run(func(w int) {
		for k := 0; k < turns; k++ {
			if i := (w + k) % 2; st.CloseBatch(batches[i]) {
				won[i].Add(1)
			}
		}
	})
	// The trues alternate from batches[0]: it is one ahead exactly when it
	// holds the slot.
	holds, lead := st.isClosed(batches[0]), won[0].Load()-won[1].Load()
	if holds == st.isClosed(batches[1]) || holds != (lead == 1) || lead < 0 || lead > 1 {
		t.Fatalf("trues %d and %d, batch %d holds the slot %v", won[0].Load(), won[1].Load(), batches[0], holds)
	}
	for i, b := range batches {
		if r.closes[b] != int(won[i].Load()) {
			t.Fatalf("batch %d: the router saw %d closes for %d trues", b, r.closes[b], won[i].Load())
		}
	}
}

// TestHeldSlotSurvivesPushes: the drainer hands each delivery over in
// its FIFO slot, so no push may reuse that slot while the handler runs.
// Node 1's router, handling the connection's FORWARD, first sends 40
// FORWARDs of a batch node 2 has closed — more than the FIFO holds, so it
// wraps and grows under the held slot — and the connection must still
// form over the line with its own fields.
func TestHeldSlotSurvivesPushes(t *testing.T) {
	n := NewNetwork(0)
	t.Cleanup(n.Close)
	const flood = 40
	line := RouterFunc(func(self, _, _, _ overlay.NodeID, _, _, _ int) (overlay.NodeID, bool) {
		if self == 1 {
			for i := 0; i < flood; i++ {
				n.Send(1, 2, &Message{Kind: MsgForward, Batch: 99, Conn: i, Initiator: 1, Responder: 3, Remaining: 1, Path: []overlay.NodeID{1}})
			}
		}
		return self + 1, false
	})
	for id := overlay.NodeID(0); id < 4; id++ {
		if err := n.Join(id, line); err != nil {
			t.Fatal(err)
		}
	}
	n.Local(2).CloseBatch(99)
	path, _, err := n.ConnectDetail(0, 3, 1, 1, 4, 5*time.Second)
	if err != nil || !reflect.DeepEqual(path, []overlay.NodeID{0, 1, 2, 3}) {
		t.Fatalf("path %v, err %v; want [0 1 2 3]", path, err)
	}
	if got := n.Telemetry().Counter("transport_closed_batch_total", nil).Value(); got != flood {
		t.Fatalf("%d flooded FORWARDs refused, want %d", got, flood)
	}
}

// TestConnectZeroLatencyAllocs pins the initiator's cost in allocations:
// one 5-hop, zero-latency, in-process connection on the real clock. The
// connection record, its attempt's time.Timer and the window callback are
// the initiator's share (vclock.Timer is a value, not a fourth); the
// attempt's path, allocated once at its full length, is the fourth
// (DESIGN.md §3t).
func TestConnectZeroLatencyAllocs(t *testing.T) {
	n := NewNetwork(0)
	defer n.Close()
	next := RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		return self + 1, false
	})
	for id := overlay.NodeID(0); id <= 5; id++ {
		if err := n.Join(id, next); err != nil {
			t.Fatal(err)
		}
	}
	conn := 0
	allocs := testing.AllocsPerRun(200, func() {
		conn++
		if path, _, err := n.ConnectDetail(0, 5, 1, conn, 8, 10*time.Second); err != nil || len(path) != 6 {
			t.Fatalf("path %v, err %v", path, err)
		}
	})
	if allocs > 4 {
		t.Fatalf("a 5-hop connection allocates %.2f times, want <= 4", allocs)
	}
}

// countingClock is the real clock with its reads counted: Now, Since and
// Until each read it once.
type countingClock struct {
	vclock.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Clock.Since(t)
}

// TestConnectClockReads pins the clock reads of one zero-latency
// connection over a line: the start (which the first launch shares), the
// drain pass's first read and one more every clockEvery handovers, and
// the connect latency at the CONFIRM. Ten messages read it 3 times; 34
// cross clockEvery twice and read it 5 times.
func TestConnectClockReads(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		reads int64
	}{
		{6, 3},  // 5 FORWARDs and 5 CONFIRM steps
		{18, 5}, // 17 and 17: the drain reads before handovers 1, 17 and 33
	} {
		n := NewNetwork(0)
		clock := &countingClock{Clock: vclock.Real()}
		n.SetClock(clock)
		last := overlay.NodeID(tc.nodes - 1)
		next := RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
			return self + 1, false
		})
		for id := overlay.NodeID(0); id <= last; id++ {
			if err := n.Join(id, next); err != nil {
				t.Fatal(err)
			}
		}
		path, _, err := n.ConnectDetail(0, last, 1, 1, tc.nodes-2, 10*time.Second)
		n.Close()
		if err != nil || len(path) != tc.nodes {
			t.Fatalf("%d nodes: path %v, err %v", tc.nodes, path, err)
		}
		if msgs := n.Metrics().Sent; msgs != int64(2*(tc.nodes-1)) {
			t.Fatalf("%d nodes: %d messages sent, want %d", tc.nodes, msgs, 2*(tc.nodes-1))
		}
		if got := clock.reads.Load(); got != tc.reads {
			t.Errorf("a %d-message connection reads the clock %d times, want %d", 2*(tc.nodes-1), got, tc.reads)
		}
	}
}

// jumpClock is an engine clock whose Now, Since and Until run ahead of
// the engine by jump once jumped is set; timers keep the engine's time.
type jumpClock struct {
	vclock.Clock
	jump   time.Duration
	jumped bool
}

func (c *jumpClock) Now() time.Time {
	if c.jumped {
		return c.Clock.Now().Add(c.jump)
	}
	return c.Clock.Now()
}

func (c *jumpClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c *jumpClock) Until(t time.Time) time.Duration { return t.Sub(c.Now()) }

// TestExpiredAtHandover pins where a zero-latency message expires: when
// it leaves the FIFO. The clock jumps past the attempt's deadline while
// the initiator routes its first hop, so the FORWARD it sends counts as
// sent and then as expired, reaches no router but the initiator's, and
// the attempt times out at its window as it would on a wire.
func TestExpiredAtHandover(t *testing.T) {
	n := NewNetwork(0)
	defer n.Close()
	en := onEngine(n)
	clock := &jumpClock{Clock: n.Clock(), jump: time.Hour}
	n.SetClock(clock)
	var routed []overlay.NodeID
	next := RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		routed = append(routed, self)
		clock.jumped = true
		return self + 1, false
	})
	for id := overlay.NodeID(0); id <= 3; id++ {
		if err := n.Join(id, next); err != nil {
			t.Fatal(err)
		}
	}
	out, took := en.run(t, 0, 3, 1, 1, 2, 3*time.Second, nil)
	if out.Err == nil || !strings.Contains(out.Err.Error(), "timed out after 1s") {
		t.Fatalf("outcome %+v, want the attempt timed out", out)
	}
	if took != time.Second {
		t.Fatalf("the connection ended after %v of engine time, want its 1s window", took)
	}
	if !reflect.DeepEqual(routed, []overlay.NodeID{0}) {
		t.Fatalf("routers of %v ran, want only the initiator's", routed)
	}
	m := n.Metrics()
	if m.Sent != 1 || m.Expired != 1 || m.Dropped != 0 || m.Timeouts != 1 || m.Reformations != 0 || m.Failures != 1 {
		t.Fatalf("metrics %v: want 1 sent and expired, 1 timeout, no reformation, 1 failure", m)
	}
}

// TestCloseIdempotentAndRefusesTraffic pins Close: a second Close does
// nothing, and after Close no peer is reachable — Send returns false and
// counts a drop, and a connection is refused.
func TestCloseIdempotentAndRefusesTraffic(t *testing.T) {
	topo := buildTopo(5, 2, 15)
	r := NewRandomRouter(topo, dist.NewSource(16))
	n := startNetwork(t, topo, r)
	if _, _, err := n.ConnectDetail(0, 4, 1, 1, 3, time.Second); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
	before := n.Metrics()
	if n.Send(0, 1, &Message{Kind: MsgForward, Batch: 1, Conn: 2, Initiator: 0, Responder: 4, Path: []overlay.NodeID{0}}) {
		t.Fatal("Send after Close accepted a message")
	}
	if got := n.Metrics().Dropped - before.Dropped; got != 1 {
		t.Fatalf("Send after Close counted %d drops, want 1", got)
	}
	if _, _, err := n.ConnectDetail(0, 4, 1, 3, 3, time.Second); err == nil {
		t.Fatal("ConnectDetail after Close succeeded")
	}
}

// TestConcurrentBatches runs batches from several initiators at once over
// one network, with zero link latency and with 50µs links on the real
// clock. The callers and the latency timers' goroutines then contend for
// the drain; the runtime must stay consistent (run with -race).
func TestConcurrentBatches(t *testing.T) {
	for _, latency := range []time.Duration{0, 50 * time.Microsecond} {
		t.Run(fmt.Sprintf("latency=%dus", latency.Microseconds()), func(t *testing.T) {
			topo := buildTopo(30, 6, 17)
			ur := NewUtilityRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(30))
			n := NewNetwork(latency)
			t.Cleanup(n.Close)
			for id := range topo {
				if err := n.Join(id, ur); err != nil {
					t.Fatal(err)
				}
			}
			const workers = 4
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					_, err := n.RunBatch(overlay.NodeID(w), overlay.NodeID(29-w), 100+w, 10, 5, 10*time.Second)
					errs <- err
				}(w)
			}
			for w := 0; w < workers; w++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestJoinStartsNoGoroutine pins that the in-process backend runs no
// goroutine of its own: joining 128 peers leaves the count unchanged.
func TestJoinStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	n := NewNetwork(0)
	t.Cleanup(n.Close)
	r := NewRandomRouter(buildTopo(128, 4, 31), dist.NewSource(32))
	for id := overlay.NodeID(0); id < 128; id++ {
		if err := n.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("joining 128 peers took the goroutine count from %d to %d", before, after)
	}
}

func TestRemovePeerReformsAndSucceeds(t *testing.T) {
	// Line topology: removing the middle relay forces a mid-path
	// departure. The holder's send fails synchronously, a NACK retraces
	// the reverse path, and the initiator reforms — the connection must
	// still succeed within its deadline, avoiding the corpse.
	topo := Topology{0: {1}, 1: {2}, 2: {3}, 3: {}}
	r := NewRandomRouter(topo, dist.NewSource(18))
	n := startNetwork(t, topo, r)
	en := onEngine(n)
	if out, _ := en.run(t, 0, 3, 1, 1, 10, time.Second, nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	n.RemovePeer(2)
	if n.Local(2) != nil {
		t.Fatal("removed peer still listed")
	}
	out, elapsed := en.run(t, 0, 3, 1, 1, 10, time.Second, nil)
	if out.Err != nil {
		t.Fatalf("connection did not reform around removed peer: %v", out.Err)
	}
	if elapsed > time.Second {
		t.Fatalf("reformation blew the deadline: engine time elapsed %v", elapsed)
	}
	if out.Reformations < 1 {
		t.Fatalf("reformations = %d, want >= 1", out.Reformations)
	}
	for _, id := range out.Path {
		if id == 2 {
			t.Fatalf("reformed path %v goes through the removed peer", out.Path)
		}
	}
	m := n.Metrics()
	if m.Nacks == 0 || m.Dropped == 0 || m.Reformations == 0 {
		t.Fatalf("metrics did not record the departure: %v", m)
	}
	n.RemovePeer(2)  // idempotent
	n.RemovePeer(99) // unknown: no-op
}

// departingRouter is backupRouter with a departure on the clock: the
// first time node 1 picks relay 2, it schedules 2's RemovePeer half a
// link latency later, while that FORWARD is still on the wire.
type departingRouter struct {
	*backupRouter
	n     *Network
	armed bool
}

func (r *departingRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	next, deliver := r.backupRouter.NextHop(self, pred, initiator, responder, batch, conn, remaining)
	if next == 2 && !r.armed {
		r.armed = true
		r.n.Clock().AfterFunc(r.n.latency/2, func() { r.n.RemovePeer(2) })
	}
	return next, deliver
}

// TestDepartureInFlight removes relay 2 after the link accepted a FORWARD
// for it and before the delivery comes up, on an engine clock: the
// delivery fails once, at its turn in the FIFO, and the driver NACKs the
// initiator from the sender and reforms around 2. Exactly one drop, one
// NACK and one reformation are counted.
func TestDepartureInFlight(t *testing.T) {
	n := NewNetwork(100 * time.Microsecond)
	t.Cleanup(n.Close)
	en := onEngine(n)
	r := &departingRouter{backupRouter: &backupRouter{dead: map[overlay.NodeID]bool{}}, n: n}
	for id := overlay.NodeID(0); id <= 4; id++ {
		if err := n.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := en.run(t, 0, 4, 1, 1, 8, time.Second, nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if want := []overlay.NodeID{0, 1, 3, 4}; !reflect.DeepEqual(out.Path, want) {
		t.Fatalf("reformed path %v, want %v", out.Path, want)
	}
	m := n.Metrics()
	if m.Dropped != 1 || m.Nacks != 1 || m.Reformations != 1 || out.Reformations != 1 {
		t.Fatalf("dropped %d nacks %d reformations %d (outcome %d), want 1 each: %v",
			m.Dropped, m.Nacks, m.Reformations, out.Reformations, m)
	}
	// The NACK starts at the sender, node 1, which sends it straight to
	// 0: three sends on the first attempt, six on the second.
	if m.Sent != 9 {
		t.Fatalf("sent %d, want 9: %v", m.Sent, m)
	}
}

func TestNackFailsFastOnMidFlightResponderDeparture(t *testing.T) {
	// The responder departs while the first FORWARD is in flight (a
	// forwarder's router triggers the removal, making the race
	// deterministic): every attempt then ends in a synchronous NACK, so
	// Connect exhausts its attempts and fails well before the overall
	// timeout instead of sleeping through it.
	topo := Topology{0: {1}, 1: {2}, 2: {3}, 3: {}}
	r := NewRandomRouter(topo, dist.NewSource(19))
	n := NewNetwork(0)
	t.Cleanup(n.Close)
	en := onEngine(n)
	for id := range topo {
		router := Router(r)
		if id == 1 {
			router = RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
				n.RemovePeer(3) // the responder vanishes mid-path
				return r.NextHop(self, pred, initiator, responder, batch, conn, remaining)
			})
		}
		if err := n.Join(id, router); err != nil {
			t.Fatal(err)
		}
	}
	out, elapsed := en.run(t, 0, 3, 1, 1, 10, 10*time.Second, nil)
	if out.Err == nil {
		t.Fatal("connection to mid-flight-departed responder succeeded")
	}
	if !strings.Contains(out.Err.Error(), "departed") {
		t.Fatalf("unexpected error: %v", out.Err)
	}
	// Every attempt fails on a synchronous NACK, so the only engine time
	// spent is retry backoff — far below the 10s timeout a wall-clock
	// version could sleep through.
	if elapsed > time.Second {
		t.Fatalf("NACK-driven failure took %v of engine time, want well under the 10s timeout", elapsed)
	}
	m := n.Metrics()
	if m.Nacks == 0 || m.Failures == 0 {
		t.Fatalf("failure not counted: %v", m)
	}
	// Other responders are unaffected.
	if out, _ := en.run(t, 0, 2, 1, 2, 10, 5*time.Second, nil); out.Err != nil {
		t.Fatalf("responder 2 is still alive: %v", out.Err)
	}
}

func TestBackoffScheduleOnEngineClock(t *testing.T) {
	// Every attempt fails on a synchronous NACK (the only interior relay is
	// removed and the random router keeps picking it until MarkDead teaches
	// it otherwise — here we pin the router so it never learns), so the only
	// engine time the connection consumes is its backoff schedule. With base
	// 100ms doubling to a 300ms cap over 4 attempts, that schedule is
	// exactly 100+200+300 = 600ms — an equality no wall-clock test could
	// assert without flaking.
	n := NewNetwork(0)
	t.Cleanup(n.Close)
	en := onEngine(n)
	n.SetRetry(RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 300 * time.Millisecond})
	pinned := RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		return 1, false // always route via the corpse
	})
	for _, id := range []overlay.NodeID{0, 2, 3} {
		if err := n.Join(id, pinned); err != nil {
			t.Fatal(err)
		}
	}
	out, elapsed := en.run(t, 0, 3, 1, 1, 10, time.Minute, nil)
	if out.Err == nil {
		t.Fatal("connection through a permanently dead relay succeeded")
	}
	if elapsed != 600*time.Millisecond {
		t.Fatalf("backoff schedule consumed %v of engine time, want exactly 600ms", elapsed)
	}
	m := n.Metrics()
	if m.Reformations != 3 || m.Nacks != 4 {
		t.Fatalf("reformations %d nacks %d, want 3 and 4", m.Reformations, m.Nacks)
	}
}

func TestConcurrentChurnRace(t *testing.T) {
	// Batches run while interior nodes are concurrently removed and
	// re-added: no panic or race (run with -race), batches still
	// complete, and the per-batch reformation counts agree with the
	// network's counter.
	topo := buildTopo(30, 6, 25)
	ur := NewUtilityRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(30))
	n := startNetwork(t, topo, ur)
	n.SetRetry(RetryPolicy{MaxAttempts: 6, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond})

	const workers = 3
	outs := make([]*BatchOutcome, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], errs[w] = n.RunBatch(overlay.NodeID(w), overlay.NodeID(29-w), 200+w, 12, 5, 10*time.Second)
		}(w)
	}
	// Churn interior nodes (never the workers' endpoints) while the
	// batches are in flight.
	churned := []overlay.NodeID{10, 12, 14, 16, 18}
	for round := 0; round < 3; round++ {
		for _, id := range churned {
			n.RemovePeer(id)
			time.Sleep(500 * time.Microsecond)
			if err := n.Join(id, ur); err != nil {
				t.Errorf("re-add %d: %v", id, err)
			}
		}
	}
	wg.Wait()
	total := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if len(outs[w].Paths) != 12 {
			t.Fatalf("worker %d completed %d connections", w, len(outs[w].Paths))
		}
		total += outs[w].Reformations
	}
	if got := n.Metrics().Reformations; got != int64(total) {
		t.Fatalf("network counted %d reformations, batches %d", got, total)
	}
}

func TestContractRejectionNacksInitiator(t *testing.T) {
	// A forwarder that fails to verify the contract must NACK the
	// initiator (fatal: no retry), not silently drop the message.
	topo := Topology{0: {1}, 1: {2}, 2: {3}, 3: {}}
	r := NewRandomRouter(topo, dist.NewSource(26))
	n := startNetwork(t, topo, r)
	en := onEngine(n)
	bk, err := onion.NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	contract, err := onion.NewSignedContract(5, 75, 150, bk.Public())
	if err != nil {
		t.Fatal(err)
	}
	bad := *contract
	bad.Pf = 9999 // breaks the signature
	out, elapsed := en.run(t, 0, 3, 5, 1, 10, 5*time.Second, &bad)
	reforms, err := out.Reformations, out.Err
	if err == nil {
		t.Fatal("unverifiable contract completed a connection")
	}
	if !strings.Contains(err.Error(), "verification") {
		t.Fatalf("unexpected error: %v", err)
	}
	if reforms != 0 {
		t.Fatalf("fatal NACK still reformed %d times", reforms)
	}
	// A fatal NACK skips every retry, so no backoff is ever slept: the
	// engine clock must not have moved at all.
	if elapsed != 0 {
		t.Fatalf("fatal NACK consumed %v of engine time, want 0", elapsed)
	}
	m := n.Metrics()
	if m.ContractRejects == 0 || m.Nacks == 0 {
		t.Fatalf("rejection not counted: %v", m)
	}
}

func TestRunTraceReplaysWorkloadUnderChurn(t *testing.T) {
	rng := dist.NewSource(27)
	net := overlay.NewNetwork(6, rng.Split())
	for i := 0; i < 25; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	topo := SnapshotTopology(net)
	ur := NewUtilityRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(25))
	n := startNetwork(t, topo, ur)

	w := trace.Workload{Pairs: 6, Transmissions: 48, MaxConnections: 10, PfLo: 50, PfHi: 100, Tau: 2}
	pairs, err := w.Generate(net, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	endpoints := make(map[overlay.NodeID]struct{})
	for _, p := range pairs {
		endpoints[p.Initiator] = struct{}{}
		endpoints[p.Responder] = struct{}{}
	}
	total := trace.TotalConnections(pairs)
	removed := false
	res := RunTrace(n.ConnectDetail, pairs, TraceOptions{
		Budget:  5,
		Timeout: 5 * time.Second,
		Before: func(k int, sofar *TraceResult) {
			if removed || k < total/2 {
				return
			}
			// Remove the busiest interior forwarder observed so far.
			victim, best := overlay.None, 0
			for _, out := range sofar.Outcomes {
				for id, m := range out.Forwards {
					if _, isEnd := endpoints[id]; isEnd {
						continue
					}
					if m > best || (m == best && victim != overlay.None && id < victim) {
						victim, best = id, m
					}
				}
			}
			if victim != overlay.None {
				n.RemovePeer(victim)
				removed = true
			}
		},
	})
	if !removed {
		t.Fatal("no interior forwarder to remove — workload too small")
	}
	if res.Completed+res.Failed != total {
		t.Fatalf("completed %d + failed %d != scheduled %d", res.Completed, res.Failed, total)
	}
	if res.Completed == 0 {
		t.Fatal("no connection completed")
	}
	sum := 0
	for _, out := range res.Outcomes {
		sum += out.Reformations
	}
	if sum != res.Reformations {
		t.Fatalf("per-pair reformations %d != total %d", sum, res.Reformations)
	}
}

// mirror subscribes the live network to overlay churn: a node that comes
// online is added as a peer (with a router from mkRouter), one that goes
// offline or departs is removed. It lets the structural overlay's churn
// model drive the concurrent runtime directly.
func mirror(o *overlay.Network, live *Network, mkRouter func(overlay.NodeID) Router) {
	o.OnChurn(func(id overlay.NodeID, s overlay.State) {
		switch s {
		case overlay.Online:
			_ = live.Join(id, mkRouter(id)) // duplicate adds are no-ops
		case overlay.Offline, overlay.Departed:
			live.RemovePeer(id)
		}
	})
}

func TestMirrorFollowsOverlayChurn(t *testing.T) {
	rng := dist.NewSource(28)
	net := overlay.NewNetwork(3, rng.Split())
	live := NewNetwork(0)
	t.Cleanup(live.Close)
	r := NewRandomRouter(Topology{}, rng.Split())
	mirror(net, live, func(overlay.NodeID) Router { return r })
	for i := 0; i < 6; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		if live.Local(id) == nil {
			t.Fatalf("joined node %d has no live peer", id)
		}
	}
	net.Leave(10, 2, false)
	if live.Local(2) != nil {
		t.Fatal("offline node still has a live peer")
	}
	net.Rejoin(20, 2)
	if live.Local(2) == nil {
		t.Fatal("rejoined node has no live peer")
	}
	net.Leave(30, 5, true)
	if live.Local(5) != nil {
		t.Fatal("departed node still has a live peer")
	}
}

func TestUtilityIIRouterReachesResponder(t *testing.T) {
	topo := buildTopo(25, 6, 21)
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(25))
	n := startNetwork(t, topo, r)
	out, err := n.RunBatch(0, 24, 1, 15, 5, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 15 {
		t.Fatalf("paths %d", len(out.Paths))
	}
	for _, p := range out.Paths {
		if p[0] != 0 || p[len(p)-1] != 24 {
			t.Fatalf("bad path %v", p)
		}
	}
	// A FORWARD naming a responder outside the topology has no game to
	// solve: the router answers "deliver", and the link refuses the send.
	if next, deliver := r.NextHop(3, 2, 0, 1000, 2, 1, 5); !deliver || next != overlay.None {
		t.Fatalf("unknown responder: next %d deliver %v, want deliver", next, deliver)
	}
}

func TestUtilityIIRouterShrinksForwarderSet(t *testing.T) {
	topo := buildTopo(30, 6, 22)
	avail := uniformAvail(30)
	c := core.ContractWithTau(75, 2)

	u2 := NewUtilityIIRouter(topo, quality.DefaultWeights(), c, avail)
	n2 := startNetwork(t, topo, u2)
	out2, err := n2.RunBatch(0, 29, 1, 20, 5, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	rr := NewRandomRouter(topo, dist.NewSource(23))
	nr := startNetwork(t, topo, rr)
	outR, err := nr.RunBatch(0, 29, 1, 20, 5, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out2.SetSize() >= outR.SetSize() {
		t.Fatalf("live UM-II ‖π‖=%d not below random %d", out2.SetSize(), outR.SetSize())
	}
}

func TestUtilityIIRouterConcurrentBatches(t *testing.T) {
	topo := buildTopo(25, 6, 24)
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(25))
	n := startNetwork(t, topo, r)
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func(w int) {
			_, err := n.RunBatch(overlay.NodeID(w), overlay.NodeID(24-w), 50+w, 8, 4, 10*time.Second)
			errs <- err
		}(w)
	}
	for w := 0; w < 3; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchStateBoundedInProcess settles 10⁴ batches over the in-process
// backend, up to three open at a time, and checks after every step that
// the router's histories number no more than the batches open: a long run
// keeps no state for a settled batch.
func TestBatchStateBoundedInProcess(t *testing.T) {
	const nodes, batches, window = 16, 10_000, 3
	topo := buildTopo(nodes, 4, 21)
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(nodes))
	n := startNetwork(t, topo, r)
	contract := core.Contract{Pf: 1, Pr: 10}
	rng := dist.NewSource(22)
	type openBatch struct {
		id        int
		initiator overlay.NodeID
		out       *BatchOutcome
	}
	var open []openBatch
	for b := 1; b <= batches; b++ {
		i := overlay.NodeID(rng.Intn(nodes))
		resp := overlay.NodeID(rng.Intn(nodes - 1))
		if resp >= i {
			resp++
		}
		out, err := n.RunBatch(i, resp, b, 2, 4, 5*time.Second)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		open = append(open, openBatch{b, i, out})
		if len(open) == window {
			if _, err := n.SettleBatch(open[0].initiator, open[0].id, open[0].out, contract); err != nil {
				t.Fatal(err)
			}
			open = open[1:]
		}
		if got := r.OpenBatches(); got > len(open) {
			t.Fatalf("after batch %d: router holds %d histories for %d open batches", b, got, len(open))
		}
	}
}
