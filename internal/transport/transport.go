// Package transport provides the live, message-passing runtime for the
// forwarding overlay: the same contracts, utility routing and payoff
// bookkeeping as the deterministic discrete-event simulator, but with
// peers that communicate only by messages, as the paper's deployed system
// would.
//
// The forwarding protocol mirrors §2.2: a FORWARD message carries the
// contract (P_f, P_r) and the hop budget; each holder picks a successor
// with its Router and forwards; the responder answers with a CONFIRM that
// retraces the reverse path collecting per-hop path information, which the
// initiator uses to validate the path and account the batch.
//
// That protocol and its retry loop exist once, in Driver (driver.go for
// the initiator side, protocol.go for the forwarder side), written
// against the small Link interface. Network, in this file, is the
// in-process link — a peer registry, one FIFO of deliveries drained by
// whichever goroutine finds it idle, and latency timers — and package
// netwire supplies the TCP one.
//
// The runtime is churn-safe: peers may join and leave (Join/RemovePeer)
// concurrently with in-flight traffic. A send to a departed peer fails
// synchronously and the holder NACKs back along the reverse path, so the
// initiator learns of a mid-path departure without waiting out its timeout;
// the driver then reforms the path — bounded retries with exponential backoff —
// which is exactly the "path reformation" event Prop. 1 counts. A NACK says
// why in one NackReason byte, the form every backend carries it in, and its
// subject, the departed next hop, in its From; a contract that failed
// verification is the one reason no reformation fixes. Routers that
// implement ChurnAware are told about peers found dead (failure detection by
// failed delivery, as a deployment would observe it) so reformed paths avoid
// them. Every drop, NACK, timeout and reformation is counted in the
// network's Metrics.
package transport

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
)

// Router is a peer's routing brain: given that the peer holds a payload
// for the given batch/connection with `remaining` hop budget, it returns
// the next hop, or deliver=true to hand the payload to the responder
// directly.
type Router interface {
	NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (next overlay.NodeID, deliver bool)
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool)

// NextHop calls f.
func (f RouterFunc) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	return f(self, pred, initiator, responder, batch, conn, remaining)
}

// ChurnAware is implemented by routers that track peer liveness. The
// network calls MarkDead when a delivery to a peer fails (the live
// failure-detection signal — RemovePeer itself is silent, like a real
// departure) and MarkLive when a peer (re)joins, so routing avoids known
// corpses and rehabilitates returners.
type ChurnAware interface {
	MarkDead(overlay.NodeID)
	MarkLive(overlay.NodeID)
}

// BatchCloser is implemented by routers that keep per-batch state. A
// station calls CloseBatch when the batch's settlement reaches it, and
// the router drops what it kept for the batch. A router that does not
// implement it — a wrapper that forwards only NextHop, say — keeps its
// state.
type BatchCloser interface {
	CloseBatch(batch int)
}

// Network is the in-process backend: the shared connection Driver over
// one FIFO of accepted deliveries, with an optional per-link latency. It
// starts no goroutine. The goroutine whose send finds the FIFO idle drains
// it, handing each delivery to its target's station with no lock held, so
// a handler's own sends queue behind it instead of recursing. All methods
// are safe for concurrent use; in particular Join and RemovePeer may race
// freely with in-flight traffic.
type Network struct {
	*Driver

	mu    sync.Mutex
	peers []*Station // by overlay id; nil where no peer is joined
	// ring holds the deliveries accepted and not yet handed over: count
	// of them from ring[head] on, wrapping. Its length is a power of two.
	// While held, the drainer is handing over the delivery in the slot
	// before head, in place, and no push reuses that slot.
	ring        []delivery
	head, count int
	held        bool
	draining    bool // a goroutine is inside drain
	closed      bool

	latency time.Duration
	metrics *linkMetrics
}

// delivery is one message the link accepted from node from for node to.
type delivery struct {
	from, to overlay.NodeID
	msg      Message
}

// clockEvery is how many deliveries a drain pass hands over per clock
// read: the instant it judges deadlines by is at most this many handovers
// old.
const clockEvery = 16

// NewNetwork creates a runtime with the given per-link latency (0 for
// as-fast-as-possible) and the default retry policy.
func NewNetwork(latency time.Duration) *Network {
	n := &Network{latency: latency}
	n.Driver = NewDriver(n, "transport")
	n.metrics = newLinkMetrics(n.Telemetry())
	return n
}

// Instrument rebinds the runtime's metrics into reg; a nil reg keeps the
// current registry.
func (n *Network) Instrument(reg *telemetry.Registry) {
	n.Driver.Instrument(reg)
	if reg != nil {
		n.metrics = newLinkMetrics(reg)
	}
}

// Metrics returns a snapshot of the runtime counters — consistent enough:
// counters are independent, no cross-counter invariant holds mid-flight.
func (n *Network) Metrics() MetricsSnapshot {
	s := n.Driver.Metrics()
	s.Sent = n.metrics.sent.Value()
	s.Dropped = n.metrics.dropped.Value()
	s.Expired = n.metrics.expired.Value()
	s.QueueHighWater = n.metrics.queueHighWater.Value()
	return s
}

// Join adds a peer routing with r. A negative id (overlay.None among
// them) is refused, and so is joining the same id twice. The registry is
// a slice indexed by id, sized by the largest id joined. If the router is
// ChurnAware it is registered for liveness notifications and told the ID
// is live (a re-joining peer becomes routable again).
func (n *Network) Join(id overlay.NodeID, r Router) error {
	if r == nil {
		return errors.New("transport: nil router")
	}
	if id < 0 {
		return fmt.Errorf("transport: negative peer id %d", id)
	}
	n.mu.Lock()
	if int(id) < len(n.peers) && n.peers[id] != nil {
		n.mu.Unlock()
		return fmt.Errorf("transport: duplicate peer %d", id)
	}
	if grow := int(id) + 1 - len(n.peers); grow > 0 {
		n.peers = append(n.peers, make([]*Station, grow)...)
	}
	n.peers[id] = NewStation(id, r)
	n.mu.Unlock()
	n.Joined(id, r)
	return nil
}

// RemovePeer models live churn: the peer leaves, deliveries to it still
// queued fail as they come up (a FORWARD becomes a NACK, a reply walks on
// around it), and subsequent sends to it fail synchronously (the sender
// NACKs the initiator, which reforms the path — exactly like a real
// mid-path departure). Removing an unknown peer is a no-op. Safe to call
// concurrently with Join, ConnectDetail and in-flight traffic.
func (n *Network) RemovePeer(id overlay.NodeID) {
	n.mu.Lock()
	if uint(id) < uint(len(n.peers)) {
		n.peers[id] = nil
	}
	n.mu.Unlock()
}

// Close marks the network closed and discards what is queued: from then
// on no peer is addressable, so every send fails and every connection is
// refused. A second Close does nothing.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.ring, n.head, n.count, n.held = nil, 0, 0, false
	n.mu.Unlock()
}

// station returns the station of joined peer id: nil for an id no peer
// holds, negative or past the registry, and for every id once the network
// is closed. The caller holds n.mu.
func (n *Network) station(id overlay.NodeID) *Station {
	if n.closed || uint(id) >= uint(len(n.peers)) {
		return nil
	}
	return n.peers[id]
}

// Local implements Link: the station of a joined peer, or nil once the
// network is closed.
func (n *Network) Local(id overlay.NodeID) *Station {
	n.mu.Lock()
	st := n.station(id)
	n.mu.Unlock()
	return st
}

// Addressable implements Link: in-process, only joined peers are.
func (n *Network) Addressable(id overlay.NodeID) bool { return n.Local(id) != nil }

// Send implements Link: msg joins the FIFO for peer `to` after the link
// latency. It returns false — the synchronous drop signal — when the
// target is unknown or has departed. A target that departs after the
// link accepted the message is reported when the delivery comes up. At
// zero latency the target check, the count and the append are one
// critical section, and the attempt deadline is judged when the delivery
// leaves the FIFO (drain).
func (n *Network) Send(from, to overlay.NodeID, msg *Message) bool {
	if n.latency > 0 {
		return n.sendLater(from, to, *msg)
	}
	n.mu.Lock()
	if n.station(to) == nil {
		n.mu.Unlock()
		n.metrics.dropped.Add(1)
		return false
	}
	n.metrics.sent.Add(1)
	idle := n.push(from, to, msg)
	n.mu.Unlock()
	if idle {
		n.drain()
	}
	return true
}

// sendLater is Send's latency branch: it checks the target and the
// deadline now and queues msg, its own copy, after the link latency,
// unless the deadline has passed by then. It is kept out of Send because
// the timer closure's capture moves the message it names to the heap:
// inside Send that was every message, at zero latency too.
func (n *Network) sendLater(from, to overlay.NodeID, msg Message) bool {
	if !n.Addressable(to) {
		n.metrics.dropped.Add(1)
		return false
	}
	if n.expired(msg.Deadline, n.Clock().Now().UnixNano()) {
		// The attempt's deadline passed while this message was being
		// relayed: it dies in the network (counted, no NACK — the
		// initiator's own attempt timer is already due). Reporting true
		// matches a real wire, where a late packet is accepted by the
		// link and lost downstream.
		return true
	}
	n.metrics.sent.Add(1)
	n.Clock().AfterFunc(n.latency, func() {
		if !n.expired(msg.Deadline, n.Clock().Now().UnixNano()) {
			n.enqueue(from, to, &msg)
		}
	})
	return true
}

// expired reports (and counts) a message whose per-attempt deadline lies
// before now, both in nanoseconds on the driver's clock. The deadline
// travels with the message — set once at launch — so every relay point
// applies the same timeout the initiator does, mirroring the read/write
// deadlines of the socket backend.
func (n *Network) expired(deadline, now int64) bool {
	if deadline == 0 || now <= deadline {
		return false
	}
	n.metrics.expired.Add(1)
	return true
}

// enqueue appends a delivery to the FIFO and, if no goroutine is draining
// it, drains it on this one. A closed network discards the delivery.
func (n *Network) enqueue(from, to overlay.NodeID, msg *Message) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	idle := n.push(from, to, msg)
	n.mu.Unlock()
	if idle {
		n.drain()
	}
}

// push copies a delivery into the FIFO and reports whether it was idle,
// in which case the caller is now its drainer. The ring grows only when
// every slot is live or held, so a FIFO that never empties keeps about
// its depth. The caller holds n.mu.
func (n *Network) push(from, to overlay.NodeID, msg *Message) (idle bool) {
	if n.held && n.count+1 == len(n.ring) || n.count == len(n.ring) {
		n.grow()
	}
	d := &n.ring[(n.head+n.count)&(len(n.ring)-1)]
	d.from, d.to, d.msg = from, to, *msg
	n.count++
	n.metrics.queueHighWater.SetMax(int64(n.count))
	idle = !n.draining
	n.draining = true
	return idle
}

// grow moves the live deliveries, in order, to the front of a ring twice
// the size. A slot the drainer holds stays behind in the old ring, which
// nothing else reuses. The caller holds n.mu.
func (n *Network) grow() {
	ring := make([]delivery, max(16, 2*len(n.ring)))
	k := copy(ring[:n.count], n.ring[n.head:])
	copy(ring[k:n.count], n.ring)
	n.ring, n.head, n.held = ring, 0, false
}

// drain hands the FIFO's deliveries to their stations in order until it
// is empty or the network closes. A delivery past its attempt deadline
// dies here, counted as expired; one whose target left after the link
// accepted it goes to Undeliverable. The handler gets the delivery in its
// slot, which the drainer holds until it next takes the lock. The pass
// reads the clock before its first handover and again every clockEvery
// handovers, so however many other callers' deliveries it serves, no
// deadline is judged on an instant older than that.
func (n *Network) drain() {
	var now int64
	fresh := 0 // handovers left before now is read again
	for {
		n.mu.Lock()
		n.held = false
		if n.closed || n.count == 0 {
			n.draining = false
			n.mu.Unlock()
			return
		}
		d := &n.ring[n.head]
		n.head = (n.head + 1) & (len(n.ring) - 1)
		n.count--
		n.held = true
		st := n.station(d.to)
		n.mu.Unlock()
		if fresh == 0 {
			now, fresh = n.Clock().Now().UnixNano(), clockEvery
		}
		fresh--
		switch {
		case n.expired(d.msg.Deadline, now):
			// Dead in the network, as in sendLater: no NACK, the
			// initiator's attempt timer is already due.
		case st == nil:
			n.metrics.dropped.Add(1)
			n.Undeliverable(d.from, d.to, &d.msg)
		default:
			n.Handle(st, &d.msg)
		}
	}
}

// SettleDetail renders a settlement payoff as its exact float bits —
// the backend-independent span detail format (decimal rendering could
// round differently across writers; bits cannot).
func SettleDetail(payoff float64) string {
	return fmt.Sprintf("payoff=%016x", math.Float64bits(payoff))
}

// BatchOutcome aggregates a batch of connections: the union forwarder set
// π (the keys of Forwards) with each member's instance count, all realised
// paths, and how many path reformations churn forced along the way (Prop.
// 1's event count). Set repeats the keys of Forwards; benchmark/live.go is
// its one reader.
type BatchOutcome struct {
	Paths        [][]overlay.NodeID
	Forwards     map[overlay.NodeID]int
	Set          map[overlay.NodeID]struct{}
	Reformations int
}

// NewBatchOutcome returns an empty outcome ready for Record.
func NewBatchOutcome() *BatchOutcome {
	return &BatchOutcome{
		Forwards: make(map[overlay.NodeID]int),
		Set:      make(map[overlay.NodeID]struct{}),
	}
}

// Record folds one realised path into the outcome.
func (o *BatchOutcome) Record(path []overlay.NodeID, initiator overlay.NodeID) {
	o.Paths = append(o.Paths, path)
	for _, f := range path[1 : len(path)-1] {
		if f == initiator {
			continue
		}
		o.Forwards[f]++
		o.Set[f] = struct{}{}
	}
}

// SetSize returns ‖π‖.
func (o *BatchOutcome) SetSize() int { return len(o.Forwards) }

// Payoff returns a forwarder's income under contract c: m·P_f + P_r/‖π‖.
func (o *BatchOutcome) Payoff(id overlay.NodeID, c core.Contract) float64 {
	m, member := o.Forwards[id]
	if !member {
		return 0
	}
	return c.Payoff(m, len(o.Forwards))
}

// SettleBatch accounts a completed batch's split payment in place: the
// batch closes on the initiator and on every member of the forwarder set
// that is still a peer, each member credited m·P_f + P_r/‖π‖ where it
// lands (Driver.Settled). In-process there is no wire to cross, so the
// credit is implicit in the outcome itself, and a departed member is
// neither credited nor spanned. It returns how many members were reached.
func (n *Network) SettleBatch(initiator overlay.NodeID, batch int, out *BatchOutcome, contract core.Contract) (int, error) {
	trace, root, err := n.SettleInitiator(initiator, batch, out)
	if err != nil {
		return 0, err
	}
	reached := 0
	for id := range out.Forwards {
		if st := n.Local(id); st != nil {
			n.Settled(st, batch, &Credit{Payoff: out.Payoff(id, contract), Trace: trace, Root: root})
			reached++
		}
	}
	return reached, nil
}
