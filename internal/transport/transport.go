// Package transport provides a concurrent, message-passing runtime for the
// forwarding overlay: one goroutine per peer, channels as links, and an
// optional per-link latency model. It is the "live" counterpart of the
// deterministic discrete-event simulator — the same contracts, utility
// routing and payoff bookkeeping, but with peers that really run
// concurrently and communicate only by messages, as the paper's deployed
// system would.
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
// in-process link — peer registry, inbox goroutines, latency timers,
// drain-on-leave — and package netwire supplies the TCP one.
//
// The runtime is churn-safe: peers may join and leave (AddPeer/RemovePeer)
// concurrently with in-flight traffic. A send to a departed peer fails
// synchronously and the holder NACKs back along the reverse path, so the
// initiator learns of a mid-path departure without waiting out its timeout;
// the driver then reforms the path — bounded retries with exponential backoff —
// which is exactly the "path reformation" event Prop. 1 counts. Routers that
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

// Peer is one concurrently running overlay member: its protocol station
// plus the inbox goroutine that feeds it.
type Peer struct {
	*Station
	inbox chan Message
	leave chan struct{} // closed by RemovePeer
	net   *Network
}

// Network is the in-process backend: the shared connection Driver over a
// link model of one goroutine and one inbox per peer, with an optional
// per-link latency. All methods are safe for concurrent use; in
// particular AddPeer and RemovePeer may race freely with in-flight
// traffic.
type Network struct {
	*Driver

	mu    sync.RWMutex
	peers map[overlay.NodeID]*Peer

	latency time.Duration
	metrics *linkMetrics
	wg      sync.WaitGroup
	quit    chan struct{}
	once    sync.Once
}

// NewNetwork creates a runtime with the given per-link latency (0 for
// as-fast-as-possible) and the default retry policy.
func NewNetwork(latency time.Duration) *Network {
	n := &Network{
		peers:   make(map[overlay.NodeID]*Peer),
		latency: latency,
		quit:    make(chan struct{}),
	}
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
	s.InboxHighWater = n.metrics.inboxHighWater.Value()
	return s
}

// AddPeer spawns a peer goroutine with the given router. Adding the same
// ID twice is an error. If the router is ChurnAware it is registered for
// liveness notifications and told the ID is live (a re-joining peer
// becomes routable again).
func (n *Network) AddPeer(id overlay.NodeID, r Router) (*Peer, error) {
	if r == nil {
		return nil, errors.New("transport: nil router")
	}
	p := &Peer{
		Station: NewStation(id, r),
		inbox:   make(chan Message, 64),
		leave:   make(chan struct{}),
		net:     n,
	}
	n.mu.Lock()
	if _, dup := n.peers[id]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: duplicate peer %d", id)
	}
	n.peers[id] = p
	n.wg.Add(1)
	n.mu.Unlock()
	n.Joined(id, r)
	go p.loop()
	return p, nil
}

// Peer returns the peer with the given ID, or nil.
func (n *Network) Peer(id overlay.NodeID) *Peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.peers[id]
}

// RemovePeer models live churn: the peer leaves, its goroutine exits after
// NACKing whatever was queued in its inbox, and subsequent sends to it
// fail synchronously (the sender NACKs the initiator, which reforms the
// path — exactly like a real mid-path departure). Removing an unknown peer
// is a no-op. Safe to call concurrently with AddPeer, ConnectDetail and
// in-flight traffic.
func (n *Network) RemovePeer(id overlay.NodeID) {
	n.mu.Lock()
	p, ok := n.peers[id]
	if ok {
		delete(n.peers, id)
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	close(p.leave)
}

// Close shuts every peer down and waits for their goroutines to exit.
func (n *Network) Close() {
	n.once.Do(func() { close(n.quit) })
	n.wg.Wait()
}

// closed reports whether Close has been called.
func (n *Network) closed() bool {
	select {
	case <-n.quit:
		return true
	default:
		return false
	}
}

// Local implements Link: the station of a joined peer.
func (n *Network) Local(id overlay.NodeID) *Station {
	if p := n.Peer(id); p != nil {
		return p.Station
	}
	return nil
}

// Addressable implements Link: in-process, only joined peers are.
func (n *Network) Addressable(id overlay.NodeID) bool { return n.Peer(id) != nil }

// Send implements Link: msg reaches the inbox of peer `to` after the link
// latency. It returns false — the synchronous drop signal — when the
// target is unknown or has departed. With a non-zero latency the delivery
// is asynchronous, and a target that departs in flight is reported
// through lost.
func (n *Network) Send(from, to overlay.NodeID, msg Message) bool {
	p := n.Peer(to)
	if p == nil {
		n.metrics.dropped.Add(1)
		return false
	}
	if n.expired(msg) {
		// The attempt's deadline passed while this message was being
		// relayed: it dies in the network (counted, no NACK — the
		// initiator's own attempt timer is already due). Reporting true
		// matches a real wire, where a late packet is accepted by the
		// link and lost downstream.
		return true
	}
	n.metrics.sent.Add(1)
	if n.latency > 0 {
		n.sendLater(p, from, to, msg)
		return true
	}
	if !n.deliver(p, msg) {
		n.metrics.dropped.Add(1)
		return false
	}
	return true
}

// sendLater delivers msg to p after the link latency. It is Send's latency
// branch, kept out of Send because the timer closure's capture moves the
// message it names to the heap: inside Send that was every message, at
// zero latency too.
func (n *Network) sendLater(p *Peer, from, to overlay.NodeID, msg Message) {
	n.Clock().AfterFunc(n.latency, func() {
		if n.expired(msg) {
			return
		}
		if !n.deliver(p, msg) {
			n.lost(from, to, msg)
		}
	})
}

// expired reports (and counts) a message whose per-attempt deadline has
// passed. The deadline travels with the message — set once at launch —
// so every relay point applies the same timeout the initiator does,
// mirroring the read/write deadlines of the socket backend.
func (n *Network) expired(msg Message) bool {
	if msg.Deadline.IsZero() || !n.Clock().Now().After(msg.Deadline) {
		return false
	}
	n.metrics.expired.Add(1)
	return true
}

// deliver enqueues msg into p's inbox, failing when the peer has left or
// the network is shutting down.
func (n *Network) deliver(p *Peer, msg Message) bool {
	select {
	case <-p.leave:
		return false
	case <-n.quit:
		return false
	default:
	}
	select {
	case p.inbox <- msg:
		n.metrics.inboxHighWater.SetMax(int64(len(p.inbox)))
		return true
	case <-p.leave:
		return false
	case <-n.quit:
		return false
	}
}

// lost accounts a message the link had accepted for peer `to`, which
// departed before taking it, and lets the driver recover.
func (n *Network) lost(from, to overlay.NodeID, msg Message) {
	if n.closed() {
		return
	}
	n.metrics.dropped.Add(1)
	n.Undeliverable(from, to, msg)
}

// loop is the peer's goroutine body.
func (p *Peer) loop() {
	defer p.net.wg.Done()
	for {
		select {
		case <-p.net.quit:
			return
		case <-p.leave:
			p.drain()
			return
		case msg := <-p.inbox:
			p.net.Handle(p.Station, msg)
		}
	}
}

// drain empties the inbox of a departing peer so in-flight connections
// fail fast: queued FORWARDs are NACKed to their initiators, queued
// CONFIRMs/NACKs are rerouted around us. (A message enqueued after the
// drain is lost and caught by the attempt timeout.)
func (p *Peer) drain() {
	for {
		select {
		case msg := <-p.inbox:
			p.net.lost(p.ID, p.ID, msg)
		default:
			return
		}
	}
}

// SettleDetail renders a settlement payoff as its exact float bits —
// the backend-independent span detail format (decimal rendering could
// round differently across writers; bits cannot).
func SettleDetail(payoff float64) string {
	return fmt.Sprintf("payoff=%016x", math.Float64bits(payoff))
}

// BatchOutcome aggregates a batch of connections: the union forwarder set,
// per-forwarder instance counts, all realised paths, and how many path
// reformations churn forced along the way (Prop. 1's event count).
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
func (o *BatchOutcome) SetSize() int { return len(o.Set) }

// Payoff returns a forwarder's income under contract c: m·P_f + P_r/‖π‖.
func (o *BatchOutcome) Payoff(id overlay.NodeID, c core.Contract) float64 {
	if _, member := o.Set[id]; !member {
		return 0
	}
	return c.Payoff(o.Forwards[id], len(o.Set))
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
	for id := range out.Set {
		if p := n.Peer(id); p != nil {
			n.Settled(p.Station, batch, &Credit{Payoff: out.Payoff(id, contract), Trace: trace, Root: root})
			reached++
		}
	}
	return reached, nil
}
