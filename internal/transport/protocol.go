package transport

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
)

// MsgKind discriminates protocol messages.
type MsgKind uint8

// The three messages of §2.2: FORWARD out, CONFIRM or NACK back.
const (
	MsgForward MsgKind = iota
	MsgConfirm
	MsgNack
)

// String names the kind as the netwire frame kinds do.
func (k MsgKind) String() string {
	switch k {
	case MsgForward:
		return "forward"
	case MsgConfirm:
		return "confirm"
	}
	return "nack"
}

// Message is what travels over links. Every backend carries exactly
// these fields — in-process through one FIFO, over TCP inside a
// netwire.Frame — so the forwarding state machine below is written once.
// A message has one owner. A handler is handed a *Message and owns it
// for the call: it changes it in place, so a FORWARD it passes on is the
// message it got, one hop on, and a CONFIRM or NACK is the FORWARD
// turned around. Link.Send only borrows it: a link that keeps a message
// past Send (the in-process FIFO, faultsim's delays and duplicates) keeps
// its own copy. The Path and Secure a message points to are its
// attempt's one FORWARD's, so a link that hands one message on twice
// gives each copy its own. Fields constant for a whole attempt are kept
// small: the deadline is an int64, the NACK reason a byte, and the
// secure protocol's load one pointer that plain mode leaves nil.
type Message struct {
	Kind MsgKind
	// Reason is why a NACK's attempt failed; NackNone on every other kind.
	Reason NackReason

	Batch int
	Conn  int
	// Attempt names the initiator's pending attempt this message belongs
	// to; the terminal CONFIRM/NACK resolves it. A late message of an
	// abandoned attempt finds nothing to resolve.
	Attempt int
	// From is a FORWARD's sender, and a NACK's subject: the next hop whose
	// departure it reports (NackDeparted), zero otherwise.
	From      overlay.NodeID
	Initiator overlay.NodeID
	Responder overlay.NodeID
	Remaining int
	// Path accumulates the node sequence; on the confirm/NACK leg it is
	// frozen and Hop is the index of the current recipient on the reverse
	// traversal.
	Path []overlay.NodeID
	Hop  int

	// Deadline is the attempt's absolute expiry in nanoseconds on the
	// driver's clock (its Now().UnixNano()), stamped at launch and carried
	// by every message of the attempt (forward, confirm and NACK legs
	// alike). A message still in flight past it is dropped silently by
	// the link — the initiator's attempt timer is already due, so nobody
	// is waiting for it. Zero means no deadline.
	Deadline int64

	// Secure is the §5 secure protocol's load, nil in plain mode. A NACK
	// carries none: no reverse-path node reads it.
	Secure *SecureLoad

	// Trace context: the connection's trace id and the span of the last
	// causal step, which the next handler parents its own span on. Zero
	// when span recording is off.
	Trace telemetry.SpanID
	Span  telemetry.SpanID
}

// SecureLoad is what a message of the secure protocol (§5) carries on
// top of a plain one: the signed contract forwarders verify before
// working, and the sealed per-hop records they contribute.
type SecureLoad struct {
	Contract *onion.SignedContract
	Records  []onion.PathRecord
}

// NackReason says, in one byte, why a NACK's attempt failed: the form
// it takes in a Message and on the wire. Text names it where it is logged
// — the NACK's span and the initiator's error.
type NackReason uint8

// The reasons a driver gives.
const (
	NackNone     NackReason = iota // no reason: every kind but a NACK
	NackDeparted                   // the next hop, the NACK's From, departed
	NackContract                   // the signed contract failed verification
)

// Text renders the reason of a NACK whose From is subject.
func (r NackReason) Text(subject overlay.NodeID) string {
	switch r {
	case NackDeparted:
		return "next hop " + strconv.Itoa(int(subject)) + " departed"
	case NackContract:
		return "contract failed verification"
	}
	return ""
}

// Fatal reports whether no reformation can fix the failure: a contract
// that failed verification fails on every path.
func (r NackReason) Fatal() bool { return r == NackContract }

// MaxBudget caps a connection's hop budget, the Remaining a FORWARD
// carries: Driver.start refuses a larger budget, and Driver.Handle refuses
// a FORWARD whose Remaining lies outside [0, MaxBudget] (netwire refuses
// the frame already). The UM-II router sizes its memo by Remaining, so an
// unbounded one could demand any amount of memory. Every budget the
// system draws is at most 16.
const MaxBudget = 64

// closedCap is the size of a station's record of closed batches, so that
// it can refuse their late messages: batch b is remembered until the
// station closes another batch congruent to b mod closedCap. A message
// for a batch it no longer remembers is handled as one for an open batch
// (DESIGN.md §3u).
const closedCap = 256

// Station is one hosted node's protocol state: its routing brain and the
// batches it has closed. A backend embeds one in its node type and hands
// it to Driver.Handle with every message it delivers there. A station
// keeps no record of its forwards: the hop spans it emits and the
// initiator's BatchOutcome are the record (DESIGN.md §3u).
type Station struct {
	ID     overlay.NodeID
	router Router
	// closed[b mod closedCap] is b+1 for the last batch b closed in that
	// slot, 0 for none. CloseBatch claims a slot by CompareAndSwap and
	// Handle admits a message on one atomic load, so no lock is taken.
	closed [closedCap]atomic.Int64
}

// NewStation returns the protocol state of node id routing with r.
func NewStation(id overlay.NodeID, r Router) *Station {
	return &Station{ID: id, router: r}
}

// CloseBatch ends batch at this station, where its settlement landed: the
// router's state for the batch goes if the router is a BatchCloser, and
// from then on Driver.Handle refuses the batch's messages here. It
// reports false, and closes nothing, when the station had already closed
// the batch; of concurrent closes of one batch exactly one reports true.
func (s *Station) CloseBatch(batch int) bool {
	slot, mark := &s.closed[uint(batch)%closedCap], int64(batch)+1
	for {
		old := slot.Load()
		if old == mark {
			return false
		}
		if slot.CompareAndSwap(old, mark) {
			break
		}
	}
	if c, closer := s.router.(BatchCloser); closer {
		c.CloseBatch(batch)
	}
	return true
}

// isClosed reports whether the station remembers closing batch.
func (s *Station) isClosed(batch int) bool {
	return s.closed[uint(batch)%closedCap].Load() == int64(batch)+1
}

// Link is all the connection driver knows about a backend: how a message
// leaves a node, and which ids the runtime hosts or can address. A link
// that accepted a message (Send returned true) and later finds it
// undeliverable reports that through Driver.Undeliverable; its own
// accounting (sent/dropped/expired, queue depths) stays with it.
type Link interface {
	// Send hands m to the link on behalf of node from, addressed to node
	// to. False is the synchronous drop signal: the target is known gone
	// or the link refuses the message. A message past its Deadline may be
	// accepted and die in the link, like a late packet on a wire. Send
	// borrows m for the call; a link that keeps it copies it.
	Send(from, to overlay.NodeID, m *Message) bool
	// Local returns the station of a node this runtime hosts, or nil.
	Local(id overlay.NodeID) *Station
	// Addressable reports whether a message can be addressed to id: a
	// hosted node, or one the link knows how to reach elsewhere.
	Addressable(id overlay.NodeID) bool
}

// Handle is the link's delivery entry point: m arrived at hosted node st.
// A message for a batch st has closed is refused and counted: it is
// neither routed nor relayed, and re-creates no state. A message is
// admitted only if its Batch is not negative, a FORWARD only if its
// Remaining lies in [0, MaxBudget], a CONFIRM/NACK only if its Hop
// indexes its Path and names st there; any other message is refused and
// counted malformed, and otherwise ignored. The driver owns m for the
// call and keeps no pointer to it or into its Path, which may be a buffer
// the link reuses for its next message (netwire decodes every path of a
// connection into one): the one path kept, the Outcome's, is copied into
// the attempt's launch buffer (resolve).
func (d *Driver) Handle(st *Station, m *Message) {
	if m.Batch < 0 {
		d.inst.malformed.Inc()
		return
	}
	if st.isClosed(m.Batch) {
		d.inst.closedBatch.Inc()
		return
	}
	switch m.Kind {
	case MsgForward:
		if m.Remaining < 0 || m.Remaining > MaxBudget {
			d.inst.malformed.Inc()
			return
		}
		d.handleForward(st, m)
	case MsgConfirm, MsgNack:
		if m.Hop < 0 || m.Hop >= len(m.Path) || m.Path[m.Hop] != st.ID {
			d.inst.malformed.Inc()
			return
		}
		d.back(st.ID, m)
	}
}

// Malformed counts, in <prefix>_malformed_total beside the messages
// Handle refuses, a message a link received but could not decode.
func (d *Driver) Malformed() { d.inst.malformed.Inc() }

// Credit is what a settlement pays one forwarder-set member: its payoff
// m·P_f + P_r/‖π‖ and the batch root (Trace, Root) its settle span
// parents on, zeros when spans are off.
type Credit struct {
	Payoff      float64
	Trace, Root telemetry.SpanID
}

// Settled is the one place a settlement lands, on every backend and in
// the fault world: batch's settlement reached hosted node st, and the
// batch closes there (Station.CloseBatch). A settle for a batch st had
// already closed is refused like any other message for it: false,
// counted, and nothing else; so is one for a negative batch, counted
// malformed as Handle counts its messages. Otherwise a credit — nil for
// the initiator's own close, which credits nothing — is counted and
// recorded as a settle span at st.
func (d *Driver) Settled(st *Station, batch int, c *Credit) bool {
	if batch < 0 {
		d.inst.malformed.Inc()
		return false
	}
	if !st.CloseBatch(batch) {
		d.inst.closedBatch.Inc()
		return false
	}
	if c != nil {
		d.inst.settlements.Inc()
		if c.Trace != 0 {
			d.spans.Emit(telemetry.Span{
				Trace: c.Trace, Parent: c.Root, Kind: telemetry.SpanSettle,
				Batch: batch, Node: int(st.ID), Detail: SettleDetail(c.Payoff),
			})
		}
	}
	return true
}

// SettleInitiator is the initiator's side of every backend's SettleBatch:
// it closes batch at the initiator (Settled, crediting nothing) and
// returns the batch root the members' settle spans parent on — the trace
// of the batch's first path, zeros when spans are off or out has no path.
func (d *Driver) SettleInitiator(initiator overlay.NodeID, batch int, out *BatchOutcome) (trace, root telemetry.SpanID, err error) {
	st := d.link.Local(initiator)
	if st == nil {
		return 0, 0, fmt.Errorf("transport: unknown initiator %d", initiator)
	}
	d.Settled(st, batch, nil)
	if len(out.Paths) > 0 {
		first := out.Paths[0]
		trace, root = d.spans.Root(batch, int(initiator), int(first[len(first)-1]))
	}
	return trace, root, nil
}

// Undeliverable is the link's failure entry point: m, which Send accepted
// from node from for node to, could not be delivered. The corpse is
// marked and the protocol kept moving — a lost FORWARD becomes a NACK
// toward the initiator, a lost CONFIRM/NACK walks on from the reverse-path
// member below to. The driver owns m for the call, as in Handle.
func (d *Driver) Undeliverable(from, to overlay.NodeID, m *Message) {
	d.MarkDead(to)
	switch m.Kind {
	case MsgForward:
		d.nackBack(from, m, NackDeparted, to)
	case MsgConfirm, MsgNack:
		m.Hop--
		d.back(from, m)
	}
}

// handleForward is one stage of path formation: m, one hop on, is the
// FORWARD it sends, or becomes the CONFIRM or NACK it sends back.
func (d *Driver) handleForward(st *Station, m *Message) {
	m.Path = append(m.Path, st.ID)
	hop := len(m.Path) - 1
	if st.ID == m.Responder {
		// Payload arrived: send CONFIRM back along the reverse path. The
		// respond span closes the forward chain; the confirm carries it so
		// the initiator can parent its deliver span on it.
		respondSpan := m.Span
		if id := d.span(m, telemetry.SpanRespond, hop, st.ID, ""); id != 0 {
			respondSpan = id
		}
		reply(m, MsgConfirm, respondSpan)
		d.back(st.ID, m)
		return
	}
	// Secure protocol: verify the contract before doing any work (a
	// rational forwarder will not forward for an unverifiable commitment)
	// and NACK the initiator so it fails fast instead of waiting out its
	// timeout. The rejection is fatal: no reformation fixes a bad contract.
	if m.Secure != nil && !m.Secure.Contract.Verify() {
		d.inst.contractRejects.Inc()
		d.nackBack(st.ID, m, NackContract, 0)
		return
	}
	// Chain the causal span: this hop's span hashes its predecessor's, so
	// the id is derivable from carried context alone — the property that
	// lets nodes in other processes mint the ids a single runtime would.
	// A hop span at a node other than the initiator is the record of one
	// forwarding instance there.
	if id := d.span(m, telemetry.SpanHop, hop, st.ID, ""); id != 0 {
		m.Span = id
	}
	next := m.Responder
	if m.Remaining > 0 {
		if n, deliver := st.router.NextHop(st.ID, m.From, m.Initiator, m.Responder, m.Batch, m.Conn, m.Remaining); !deliver {
			next = n
		}
	}
	// Secure protocol: seal this hop's record to the batch key. The hop
	// index is this forwarder's position (interior nodes so far).
	if m.Secure != nil && st.ID != m.Initiator {
		rec, err := onion.NewPathRecord(m.Secure.Contract, uint64(m.Conn), hop, st.ID, m.From, next)
		if err == nil {
			m.Secure.Records = append(m.Secure.Records, rec)
		}
	}
	m.From = st.ID
	m.Remaining = max(m.Remaining-1, 0) // a spent budget rides the last edge, to R, as 0
	if !d.link.Send(st.ID, next, m) {
		// Synchronous drop: the chosen successor departed. Mark it dead
		// and NACK back along the path so the initiator reforms at once.
		d.MarkDead(next)
		d.nackBack(st.ID, m, NackDeparted, next)
	}
}

// span records a span of m's connection at node, parented on m.Span,
// and returns its id: 0, with no span built, while m carries no trace.
func (d *Driver) span(m *Message, kind telemetry.SpanKind, hop int, node overlay.NodeID, detail string) telemetry.SpanID {
	if m.Trace == 0 {
		return 0
	}
	return d.spans.Emit(telemetry.Span{
		Trace: m.Trace, Parent: m.Span, Kind: kind,
		Batch: m.Batch, Conn: m.Conn, Hop: hop, Node: int(node), Detail: detail,
	})
}

// reply turns the FORWARD m, at the last node of its path, into the
// CONFIRM or NACK answering it: the attempt, its endpoints, deadline,
// trace and secure load stay, span becomes the causal step to parent on,
// the path freezes with Hop at that last node, from where back walks it
// home, and the forward leg's From and Remaining are cleared, as is any
// NACK reason the FORWARD arrived with.
func reply(m *Message, kind MsgKind, span telemetry.SpanID) {
	m.Kind, m.Span = kind, span
	m.Hop = len(m.Path) - 1
	m.From, m.Remaining = 0, 0
	m.Reason = NackNone
}

// back is the one reverse walk: it moves a CONFIRM/NACK held by node self
// toward the initiator, trying Path[Hop], Path[Hop−1], … in turn. It skips
// entries equal to self (a walk may revisit a node, and a node does not
// message itself), marks dead and passes over members the link refuses,
// and at index 0 — self's own entry — resolves the attempt. If even the
// initiator refuses, the message dies: nobody is waiting for it. Callers
// keep Hop below len(Path).
func (d *Driver) back(self overlay.NodeID, m *Message) {
	for ; m.Hop >= 0; m.Hop-- {
		switch to := m.Path[m.Hop]; {
		case to != self:
			if d.link.Send(self, to, m) {
				return
			}
			d.MarkDead(to)
		case m.Hop == 0:
			d.resolve(self, m.Path[len(m.Path)-1], m)
			return
		}
	}
}

// nackBack turns m, at node self, into a NACK for reason about subject
// and walks it home from the last node of m's path: self, which back
// skips. The NACK drops the secure load.
func (d *Driver) nackBack(self overlay.NodeID, m *Message, reason NackReason, subject overlay.NodeID) {
	d.inst.nacks.Inc()
	d.inst.nackHops.Observe(float64(len(m.Path)))
	reply(m, MsgNack, d.span(m, telemetry.SpanNack, len(m.Path), m.Initiator, reason.Text(subject)))
	m.Reason, m.From, m.Secure = reason, subject, nil
	d.back(self, m)
}
