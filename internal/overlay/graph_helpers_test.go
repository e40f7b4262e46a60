package overlay

// Graph-structure queries over the online overlay. Only this package's
// tests ask them — routing reads neighbor lists directly — so they are
// test helpers rather than exported API.

import (
	"math"
	"sort"
)

// Reachable reports whether an online directed path of neighbor edges
// exists from `from` to `to`, using only online nodes.
func (n *Network) Reachable(from, to NodeID) bool {
	if !n.Exists(from) || !n.Exists(to) {
		return false
	}
	if from == to {
		return n.Online(from)
	}
	if !n.Online(from) || !n.Online(to) {
		return false
	}
	seen := map[NodeID]struct{}{from: {}}
	frontier := []NodeID{from}
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			for _, v := range n.Node(u).Neighbors {
				if !n.Online(v) {
					continue
				}
				if v == to {
					return true
				}
				if _, ok := seen[v]; ok {
					continue
				}
				seen[v] = struct{}{}
				next = append(next, v)
			}
		}
		frontier = next
	}
	return false
}

// HopDistance returns the minimum number of neighbor edges from `from` to
// `to` over online nodes, or -1 when unreachable.
func (n *Network) HopDistance(from, to NodeID) int {
	if !n.Exists(from) || !n.Exists(to) || !n.Online(from) || !n.Online(to) {
		return -1
	}
	if from == to {
		return 0
	}
	dist := map[NodeID]int{from: 0}
	frontier := []NodeID{from}
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			for _, v := range n.Node(u).Neighbors {
				if !n.Online(v) {
					continue
				}
				if _, ok := dist[v]; ok {
					continue
				}
				dist[v] = dist[u] + 1
				if v == to {
					return dist[v]
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
	return -1
}

// DegreeStats summarises the online overlay's out-degree distribution and
// in-degree skew — the structural facts behind selection bias (a node that
// appears in many neighbor sets is probed and picked more often).
type DegreeStats struct {
	Online      int
	MinOut      int
	MaxOut      int
	MeanOut     float64
	MaxIn       int
	MeanIn      float64
	InDegreeGap float64 // MaxIn − MeanIn, the popularity skew
}

// Degrees computes DegreeStats over the online nodes, counting only edges
// between online nodes.
func (n *Network) Degrees() DegreeStats {
	online := n.OnlineIDs()
	st := DegreeStats{Online: len(online), MinOut: math.MaxInt}
	if len(online) == 0 {
		st.MinOut = 0
		return st
	}
	in := make(map[NodeID]int)
	totalOut := 0
	for _, id := range online {
		out := 0
		for _, v := range n.Node(id).Neighbors {
			if n.Online(v) {
				out++
				in[v]++
			}
		}
		totalOut += out
		if out < st.MinOut {
			st.MinOut = out
		}
		if out > st.MaxOut {
			st.MaxOut = out
		}
	}
	st.MeanOut = float64(totalOut) / float64(len(online))
	totalIn := 0
	for _, id := range online {
		d := in[id]
		totalIn += d
		if d > st.MaxIn {
			st.MaxIn = d
		}
	}
	st.MeanIn = float64(totalIn) / float64(len(online))
	st.InDegreeGap = float64(st.MaxIn) - st.MeanIn
	return st
}

// StronglyReachableFraction returns the fraction of ordered online pairs
// (u, v), u ≠ v, with a directed online path u→v. 1.0 means the online
// overlay is strongly connected — the regime the paper's simulations
// assume implicitly. Quadratic BFS; intended for N ≤ a few hundred.
func (n *Network) StronglyReachableFraction() float64 {
	online := n.OnlineIDs()
	if len(online) < 2 {
		return 1
	}
	sort.Slice(online, func(i, j int) bool { return online[i] < online[j] })
	reached := 0
	total := 0
	for _, u := range online {
		// Single BFS from u covers all targets.
		seen := map[NodeID]struct{}{u: {}}
		frontier := []NodeID{u}
		for len(frontier) > 0 {
			var next []NodeID
			for _, x := range frontier {
				for _, v := range n.Node(x).Neighbors {
					if !n.Online(v) {
						continue
					}
					if _, ok := seen[v]; ok {
						continue
					}
					seen[v] = struct{}{}
					next = append(next, v)
				}
			}
			frontier = next
		}
		total += len(online) - 1
		reached += len(seen) - 1
	}
	if total == 0 {
		return 1
	}
	return float64(reached) / float64(total)
}
