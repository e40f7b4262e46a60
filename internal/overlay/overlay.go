// Package overlay models the P2P forwarding overlay from the paper: a
// population of peer nodes, each maintaining a fixed-size neighbor set D(s)
// of potential forwarders, with join/leave (churn) transitions and
// ground-truth availability bookkeeping.
//
// The overlay is purely structural — who exists, who is online, who
// neighbors whom. Behaviour (probing, routing, incentives) lives in the
// probe, quality and core packages, which observe and act on an overlay.
package overlay

import (
	"fmt"

	"p2panon/internal/dist"
	"p2panon/internal/sim"
	"p2panon/internal/telemetry"
)

// NodeID identifies a peer. IDs are dense small integers assigned in join
// order, which keeps them usable as slice indices throughout the repo.
type NodeID int

// None is the sentinel "no node" value, used for the NULL routing strategy
// from the paper's strategy space.
const None NodeID = -1

// State is a node's lifecycle state.
type State uint8

const (
	// Offline: the node exists (has joined at least once) but is not in a
	// session.
	Offline State = iota
	// Online: the node is in a session and can forward.
	Online
	// Departed: the node has left the system permanently (end of
	// lifetime); it never returns.
	Departed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Offline:
		return "offline"
	case Online:
		return "online"
	case Departed:
		return "departed"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Node is one peer in the overlay.
type Node struct {
	ID    NodeID
	State State

	// Neighbors is the node's forwarder candidate set D(s), fixed size d
	// while enough peers exist. Order is maintenance order; routing code
	// must not depend on it.
	Neighbors []NodeID

	// Malicious marks adversary-controlled nodes (they route randomly per
	// the paper's adversary model).
	Malicious bool

	// FirstJoin and FinalDeparture bound the node's lifetime; TotalSession
	// accumulates completed session time. Availability ground truth is
	// TotalSession / (FinalDeparture - FirstJoin).
	FirstJoin      sim.Time
	FinalDeparture sim.Time
	TotalSession   sim.Time

	sessionStart sim.Time // start of the current session while Online
}

// ChurnFunc observes a node's lifecycle transition: it is called with the
// node's ID and its new state after every Join, Rejoin and Leave.
type ChurnFunc func(id NodeID, s State)

// Network is the overlay: the node table, whose State fields are the
// online set. It is not safe for concurrent use; the transport package
// provides the concurrent runtime.
type Network struct {
	nodes []*Node
	// up[id] mirrors nodes[id].State == Online, so Online — asked per
	// candidate per hop by the routing layer — reads one dense byte
	// instead of chasing a *Node. Join, GrowUniform, Rejoin and Leave, the
	// only writers of State, keep it in step.
	up        []bool
	online    int // nodes whose State is Online
	degree    int
	rng       *dist.Source
	observers []ChurnFunc

	// version counts structural changes — lifecycle transitions and actual
	// neighbor-set edits — so routing-layer caches (SPNE tables, min-cost
	// memos) can invalidate exactly when topology state they consumed may
	// have moved. Pure queries never advance it.
	version uint64

	// nbrVer[id] is the version at which id's neighbor list last changed,
	// and touched the version of the last Touch, which may have changed
	// any list (see NeighborsVersion).
	nbrVer  []uint64
	touched uint64

	// churn counters, one per destination state; nil (no-op) until
	// Instrument binds them into a telemetry registry.
	churnOnline   *telemetry.Counter
	churnOffline  *telemetry.Counter
	churnDeparted *telemetry.Counter
}

// NewNetwork returns an empty overlay whose nodes will maintain neighbor
// sets of the given degree d. It panics if degree < 1.
func NewNetwork(degree int, rng *dist.Source) *Network {
	if degree < 1 {
		panic(fmt.Sprintf("overlay: degree %d < 1", degree))
	}
	if rng == nil {
		panic("overlay: nil rng")
	}
	return &Network{degree: degree, rng: rng}
}

// OnChurn registers fn to be notified of every subsequent lifecycle
// transition (Join, Rejoin, Leave) — faultsim's world opens a bank account
// for each node as it first comes online this way. Observers run
// synchronously in registration order.
func (n *Network) OnChurn(fn ChurnFunc) {
	if fn != nil {
		n.observers = append(n.observers, fn)
	}
}

// Instrument binds the overlay's churn counters into reg, exposed as
// overlay_churn_total{state=online|offline|departed}. Call before driving
// churn; transitions before the call are not retro-counted.
func (n *Network) Instrument(reg *telemetry.Registry) {
	reg.Help("overlay_churn_total", "node lifecycle transitions by destination state")
	n.churnOnline = reg.Counter("overlay_churn_total", telemetry.Labels{"state": "online"})
	n.churnOffline = reg.Counter("overlay_churn_total", telemetry.Labels{"state": "offline"})
	n.churnDeparted = reg.Counter("overlay_churn_total", telemetry.Labels{"state": "departed"})
}

// notifyChurn fans a transition out to the registered observers.
func (n *Network) notifyChurn(id NodeID, s State) {
	n.version++
	switch s {
	case Online:
		n.churnOnline.Inc()
	case Offline:
		n.churnOffline.Inc()
	case Departed:
		n.churnDeparted.Inc()
	}
	for _, fn := range n.observers {
		fn(id, s)
	}
}

// Version returns the structural-change counter: it advances on every
// Join, Rejoin and Leave, and on RefreshNeighbors calls that actually
// modify a neighbor set. Equal versions guarantee an unchanged topology
// (node set, online set and neighbor sets). Callers that hand-edit a
// Node's Neighbors slice directly (scripted topologies) must call Touch
// afterwards.
func (n *Network) Version() uint64 { return n.version }

// Touch records an out-of-band structural change: call it after mutating
// a Node's Neighbors slice directly so version-keyed caches invalidate.
func (n *Network) Touch() {
	n.version++
	n.touched = n.version
}

// NeighborsVersion returns a stamp of id's neighbor list: it differs from
// every earlier stamp of id once the list may have changed (an edit by
// Join, GrowUniform or RefreshNeighbors, or any Touch), so a cache built
// from the list can revalidate by one comparison instead of by content.
func (n *Network) NeighborsVersion(id NodeID) uint64 {
	return max(n.nbrVer[id], n.touched)
}

// Len returns the total number of nodes ever created (any state).
func (n *Network) Len() int { return len(n.nodes) }

// OnlineCount returns the number of nodes currently online.
func (n *Network) OnlineCount() int { return n.online }

// Node returns the node with the given ID. It panics on an unknown ID —
// IDs are only ever minted by Join, so an unknown ID is a programming
// error.
func (n *Network) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("overlay: unknown node %d", id))
	}
	return n.nodes[id]
}

// Exists reports whether id names a created node.
func (n *Network) Exists(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes)
}

// Online reports whether id is currently online (false for an ID that
// names no node).
func (n *Network) Online(id NodeID) bool {
	return id >= 0 && int(id) < len(n.up) && n.up[id]
}

// Up returns the dense online flags Online reads, indexed by node ID. The
// slice is the network's own: read it, never write it, and ask again
// after a Join.
func (n *Network) Up() []bool { return n.up }

// OnlineIDs returns the online node IDs in ascending order — the node
// table's own order. The slice is freshly allocated.
func (n *Network) OnlineIDs() []NodeID {
	out := make([]NodeID, 0, n.online)
	for id, up := range n.up {
		if up {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// AllIDs returns every created node ID in ascending order.
func (n *Network) AllIDs() []NodeID {
	out := make([]NodeID, len(n.nodes))
	for i := range n.nodes {
		out[i] = NodeID(i)
	}
	return out
}

// Join creates a new node, brings it online at time now, and assigns it up
// to d random online neighbors (excluding itself). Existing nodes do not
// rewire to include the newcomer immediately; they discover it through
// neighbor repair (RefreshNeighbors) as in typical P2P maintenance.
func (n *Network) Join(now sim.Time, malicious bool) *Node {
	id := NodeID(len(n.nodes))
	node := &Node{
		ID:             id,
		State:          Online,
		Malicious:      malicious,
		FirstJoin:      now,
		FinalDeparture: now,
		sessionStart:   now,
	}
	n.nodes = append(n.nodes, node)
	n.up = append(n.up, true)
	n.online++
	node.Neighbors = n.pickNeighbors(id, nil)
	n.nbrVer = append(n.nbrVer, 0)
	n.notifyChurn(id, Online)
	n.nbrVer[id] = n.version
	return node
}

// GrowUniform bulk-joins count good nodes at time now: IDs are assigned
// sequentially, every node comes up Online, and each samples its d
// neighbors uniformly from the *final* population (excluding itself).
// Join gathers every online candidate, O(n) per call — O(n²) across a
// large build-out — which walls off scale-frontier populations;
// GrowUniform is O(count·d) expected. Semantically it is the
// steady-state topology Join + RefreshNeighbors converge to, built in one
// shot; churn observers and the version counter advance once per node,
// exactly as with individual joins. Intended for constructing large
// static overlays (the N-sweep benchmarks); incremental arrival dynamics
// still go through Join.
func (n *Network) GrowUniform(now sim.Time, count int) {
	if count <= 0 {
		return
	}
	start := len(n.nodes)
	total := start + count
	for i := start; i < total; i++ {
		n.nodes = append(n.nodes, &Node{
			ID:             NodeID(i),
			State:          Online,
			FirstJoin:      now,
			FinalDeparture: now,
			sessionStart:   now,
		})
		n.up = append(n.up, true)
	}
	n.online += count
	for i := start; i < total; i++ {
		id := NodeID(i)
		d := n.degree
		if d > total-1 {
			d = total - 1
		}
		neigh := make([]NodeID, 0, d)
		for len(neigh) < d {
			// Uniform over [0, total) \ {id}: draw from a range one short
			// and shift past self; reject duplicates (d is small, so the
			// linear scan beats a map).
			v := NodeID(n.rng.Intn(total - 1))
			if v >= id {
				v++
			}
			dup := false
			for _, u := range neigh {
				if u == v {
					dup = true
					break
				}
			}
			if !dup {
				neigh = append(neigh, v)
			}
		}
		n.nodes[i].Neighbors = neigh
	}
	n.nbrVer = append(n.nbrVer, make([]uint64, count)...)
	for i := start; i < total; i++ {
		n.notifyChurn(NodeID(i), Online)
		n.nbrVer[i] = n.version
	}
}

// Rejoin brings an Offline node back online at time now, starting a new
// session. It panics if the node is Online or Departed.
func (n *Network) Rejoin(now sim.Time, id NodeID) {
	node := n.Node(id)
	if node.State != Offline {
		panic(fmt.Sprintf("overlay: Rejoin of %d in state %v", id, node.State))
	}
	node.State = Online
	n.up[id] = true
	node.sessionStart = now
	n.online++
	// Repair any neighbors that departed while we were away.
	n.RefreshNeighbors(id)
	n.notifyChurn(id, Online)
}

// Leave ends the node's current session at time now. If final is true the
// node departs permanently. It panics if the node is not Online.
func (n *Network) Leave(now sim.Time, id NodeID, final bool) {
	node := n.Node(id)
	if node.State != Online {
		panic(fmt.Sprintf("overlay: Leave of %d in state %v", id, node.State))
	}
	node.TotalSession += now - node.sessionStart
	node.FinalDeparture = now
	if final {
		node.State = Departed
	} else {
		node.State = Offline
	}
	n.up[id] = false
	n.online--
	n.notifyChurn(id, node.State)
}

// pickNeighbors selects up to d random online nodes, excluding self and
// anything in keep (already-held neighbors being retained). With nothing
// to add it draws no randomness.
func (n *Network) pickNeighbors(self NodeID, keep []NodeID) []NodeID {
	want := n.degree - len(keep)
	if want <= 0 {
		return append([]NodeID(nil), keep...)
	}
	held := make(map[NodeID]struct{}, len(keep)+1)
	held[self] = struct{}{}
	for _, k := range keep {
		held[k] = struct{}{}
	}
	candidates := make([]NodeID, 0, n.online)
	for _, node := range n.nodes {
		if _, skip := held[node.ID]; !skip && node.State == Online {
			candidates = append(candidates, node.ID)
		}
	}
	if want > len(candidates) {
		want = len(candidates)
	}
	idx := dist.SampleWithoutReplacement(n.rng, len(candidates), want)
	out := append([]NodeID(nil), keep...)
	for _, i := range idx {
		out = append(out, candidates[i])
	}
	return out
}

// RefreshNeighbors repairs id's neighbor set: departed neighbors are
// dropped and replaced with fresh random online peers so the set returns
// to size d when possible. Offline (but not departed) neighbors are kept —
// they may come back, and the paper's availability estimator needs to
// observe their absences.
func (n *Network) RefreshNeighbors(id NodeID) {
	node := n.Node(id)
	keep := node.Neighbors[:0]
	dropped := 0
	for _, v := range node.Neighbors {
		if n.Node(v).State != Departed {
			keep = append(keep, v)
		} else {
			dropped++
		}
	}
	if dropped == 0 && len(keep) >= n.degree {
		return // nobody to replace: the common case on every Rejoin
	}
	node.Neighbors = n.pickNeighbors(id, keep)
	// Only an actual edit — a departed neighbor dropped or a replacement
	// found — is a structural change; a repair that finds nothing must not
	// invalidate topology-keyed caches.
	if dropped > 0 || len(node.Neighbors) != len(keep) {
		n.version++
		n.nbrVer[id] = n.version
	}
}

// GoodOnline returns the online, non-malicious node IDs in ascending order.
func (n *Network) GoodOnline() []NodeID {
	var out []NodeID
	for _, node := range n.nodes {
		if node.State == Online && !node.Malicious {
			out = append(out, node.ID)
		}
	}
	return out
}

// NeighborsOf returns a copy of id's current neighbor set.
func (n *Network) NeighborsOf(id NodeID) []NodeID {
	return append([]NodeID(nil), n.Node(id).Neighbors...)
}

// IsNeighbor reports whether v is in u's neighbor set.
func (n *Network) IsNeighbor(u, v NodeID) bool {
	for _, x := range n.Node(u).Neighbors {
		if x == v {
			return true
		}
	}
	return false
}
