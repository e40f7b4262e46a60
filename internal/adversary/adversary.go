// Package adversary implements the attacker behaviours the paper discusses
// (§2.4, §5):
//
//   - the baseline adversary whose routing is random (its objective is to
//     break anonymity, not to earn incentives) — this behaviour lives in
//     core, behind the overlay's per-node Malicious flag;
//   - the availability attacker: malicious nodes that stay maximally
//     available so that reforming paths drift through them;
//   - colluding observers: malicious nodes that pool the (cid,
//     predecessor, successor) entries of their history profiles to
//     reconstruct path segments and guess initiators (the §5 "attacks
//     through the use of connection identifier" threat).
package adversary

import (
	"sort"

	"p2panon/internal/core"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
)

// HighAvailability implements the §5 availability attack: it rejoins every
// malicious node that churn pushed offline, keeping the coalition
// permanently available so that reforming paths drift through it. Call it
// after churn events, or attach it to an engine with a short period.
func HighAvailability(net *overlay.Network, now sim.Time) (revived int) {
	for _, id := range net.AllIDs() {
		node := net.Node(id)
		if node.Malicious && node.State == overlay.Offline {
			net.Rejoin(now, id)
			revived++
		}
	}
	return revived
}

// AttachHighAvailability runs HighAvailability every period on the engine.
func AttachHighAvailability(e *sim.Engine, net *overlay.Network, period sim.Time) (cancel func()) {
	return e.Every(period, func(e *sim.Engine) bool {
		HighAvailability(net, e.Now())
		return true
	})
}

// Observation is what one malicious forwarder learns from one forwarding
// instance: for connection Conn of a batch it saw Pred hand the payload to
// it, and it handed the payload to Succ. This is exactly the history-table
// row of Table 1, viewed as attacker evidence.
type Observation struct {
	Observer overlay.NodeID
	Conn     int
	Pred     overlay.NodeID
	Succ     overlay.NodeID
}

// Coalition pools observations from colluding malicious nodes and mounts
// the predecessor/cid-linking analysis of §5: by chaining observations
// that share a connection id, the coalition reconstructs contiguous path
// segments; the predecessor of the earliest reconstructed hop is its best
// initiator guess.
type Coalition struct {
	members map[overlay.NodeID]struct{}
	obs     []Observation
}

// NewCoalition creates a coalition of the given malicious members.
func NewCoalition(members []overlay.NodeID) *Coalition {
	m := make(map[overlay.NodeID]struct{}, len(members))
	for _, id := range members {
		m[id] = struct{}{}
	}
	return &Coalition{members: m}
}

// Members returns the coalition size.
func (c *Coalition) Members() int { return len(c.members) }

// Contains reports whether id is a coalition member.
func (c *Coalition) Contains(id overlay.NodeID) bool {
	_, ok := c.members[id]
	return ok
}

// ObservePath extracts every coalition member's observations from a
// completed connection and stores them. It returns how many observations
// were gained.
func (c *Coalition) ObservePath(res *core.PathResult) int {
	gained := 0
	nodes := res.Nodes
	for i := 1; i < len(nodes)-1; i++ {
		if !c.Contains(nodes[i]) {
			continue
		}
		c.obs = append(c.obs, Observation{
			Observer: nodes[i],
			Conn:     res.Conn,
			Pred:     nodes[i-1],
			Succ:     nodes[i+1],
		})
		gained++
	}
	return gained
}

// FirstHopExposures returns, per connection, whether some coalition member
// directly observed the true initiator as its predecessor — the
// first-malicious-forwarder predecessor attack. The initiator must be
// supplied by the evaluator (ground truth).
func (c *Coalition) FirstHopExposures(initiator overlay.NodeID) (exposed, total int) {
	conns := make(map[int]bool)
	hit := make(map[int]bool)
	for _, o := range c.obs {
		conns[o.Conn] = true
		if o.Pred == initiator {
			hit[o.Conn] = true
		}
	}
	return len(hit), len(conns)
}

// GuessInitiator mounts the cid-linking attack for one connection: chain
// observations with the same Conn into segments (o1.Succ == o2.Observer
// links them), then return the predecessor at the head of the earliest
// segment. The second return is false when the coalition saw nothing for
// that connection.
func (c *Coalition) GuessInitiator(conn int) (overlay.NodeID, bool) {
	// Collect this connection's observations.
	byObserver := make(map[overlay.NodeID]Observation)
	succs := make(map[overlay.NodeID]struct{})
	for _, o := range c.obs {
		if o.Conn != conn {
			continue
		}
		byObserver[o.Observer] = o
		succs[o.Succ] = struct{}{}
	}
	if len(byObserver) == 0 {
		return overlay.None, false
	}
	// Heads are observers that are not another member's successor: the
	// earliest member of each reconstructed segment.
	var heads []Observation
	for obs, o := range byObserver {
		if _, isSucc := succs[obs]; !isSucc {
			heads = append(heads, o)
		}
	}
	if len(heads) == 0 {
		// Fully cyclic observation set (cannot happen on simple paths,
		// but guard anyway): fall back to any observation.
		for _, o := range byObserver {
			heads = append(heads, o)
			break
		}
	}
	// Deterministic pick: the head whose observer ID is smallest.
	sort.Slice(heads, func(i, j int) bool { return heads[i].Observer < heads[j].Observer })
	return heads[0].Pred, true
}

// GuessAccuracy evaluates GuessInitiator against ground truth over all
// observed connections: the fraction of observed connections whose guess
// equals the true initiator.
func (c *Coalition) GuessAccuracy(initiator overlay.NodeID) float64 {
	conns := make(map[int]struct{})
	for _, o := range c.obs {
		conns[o.Conn] = struct{}{}
	}
	if len(conns) == 0 {
		return 0
	}
	hits := 0
	for conn := range conns {
		if g, ok := c.GuessInitiator(conn); ok && g == initiator {
			hits++
		}
	}
	return float64(hits) / float64(len(conns))
}
