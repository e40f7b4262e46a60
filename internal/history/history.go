// Package history implements the connection history of §2.3 (Table 1):
// every node s stores, for each connection of a batch that passed through
// it, the connection identifier together with the predecessor and
// successor hops. The history of connections π¹…π^{k-1} yields the
// *selectivity* of an outgoing edge:
//
//	σ(s, v) = (# past connections of the batch routed s→v) / (k − 1)
//
// A batch keeps one Table, keyed by directed edge. The row keyed (s, v)
// is s's own Table-1 row for its successor v, so the table is the union
// of the nodes' profiles, and σ(s, v) reads s's rows only. The simulator's
// batches and the live routers both count σ here.
//
// The predecessor is stored, when a batch asks for positions, so that a
// node occupying two different positions on the same path can distinguish
// its two outgoing edges.
package history

import (
	"slices"

	"p2panon/internal/overlay"
)

// edge is a directed edge (tail, head), kept as int32 ids: every batch
// open at once holds a table, so its keys are kept small.
type edge [2]int32

// posEdge is an edge together with the predecessor its tail received the
// payload from.
type posEdge struct {
	pred int32
	e    edge
}

// Table is one batch's routing history: the directed edges its
// connections used, each with the number of distinct connections that used
// it, so a connection reusing an edge — a cycle, a re-attempt — counts
// once, and connections of the batch may interleave. Queries are
// allocation free, and a nil *Table is an empty history.
type Table struct {
	uses map[edge]int32
	seen map[connKey[edge]]struct{}
	// The position index, nil unless the table was made with positions.
	pos     map[posEdge]int32
	posSeen map[connKey[posEdge]]struct{}
}

// connKey pairs a connection with the key it used: the set of pairs
// already counted.
type connKey[K comparable] struct {
	conn int
	k    K
}

// New returns an empty table; positions keeps the (predecessor, edge)
// index that UsesAt and SelectivityAt read.
func New(positions bool) *Table {
	t := &Table{uses: make(map[edge]int32), seen: make(map[connKey[edge]]struct{})}
	if positions {
		t.pos = make(map[posEdge]int32)
		t.posSeen = make(map[connKey[posEdge]]struct{})
	}
	return t
}

func key(from, to overlay.NodeID) edge { return edge{int32(from), int32(to)} }

// Record stores one forwarding instance of connection conn: the holder
// from, having received the payload from pred (overlay.None if from is
// the initiator), sent it to to. It reports whether the edge is new to
// the batch: no connection, this one included, used it before.
func (t *Table) Record(conn int, pred, from, to overlay.NodeID) (first bool) {
	e := key(from, to)
	first = t.uses[e] == 0
	count(t.uses, t.seen, conn, e)
	if t.pos != nil {
		count(t.pos, t.posSeen, conn, posEdge{int32(pred), e})
	}
	return first
}

// count adds one use of k by connection conn, unless conn used it before.
func count[K comparable](uses map[K]int32, seen map[connKey[K]]struct{}, conn int, k K) {
	if _, counted := seen[connKey[K]{conn, k}]; !counted {
		seen[connKey[K]{conn, k}] = struct{}{}
		uses[k]++
	}
}

// Uses returns the number of distinct connections that used from→to.
func (t *Table) Uses(from, to overlay.NodeID) int {
	if t == nil {
		return 0
	}
	return int(t.uses[key(from, to)])
}

// UsesAt returns the number of distinct connections on which from,
// holding the payload received from pred, forwarded to to — the
// position-differentiated count §2.3's predecessor trick enables. It is 0
// for a table made without positions.
func (t *Table) UsesAt(pred, from, to overlay.NodeID) int {
	if t == nil {
		return 0
	}
	return int(t.pos[posEdge{int32(pred), key(from, to)}])
}

// Selectivity returns σ(from, to) for the k-th connection of the batch:
// the edge's uses over the k−1 earlier connections, capped at 1 — a use by
// the connection in flight counts, so a cycle can reach the cap. The
// k ≤ 1 guard is load-bearing, not cosmetic: σ feeds edge quality and
// through it the SPNE payoffs, so a raw division by k−1 would leak ±Inf
// (k = 1) or a negative σ (k ≤ 0) into every utility comparison of the
// stage game. For the first connection there is no history and
// selectivity is defined as 0; non-positive k (a caller bug) degrades to
// the same harmless value.
func (t *Table) Selectivity(from, to overlay.NodeID, k int) float64 {
	return sigma(t.Uses(from, to), k)
}

// SelectivityAt is the position-aware variant of Selectivity: σ counted
// only over the connections on which from held the payload received from
// pred, so a node that occupies two positions on the same recurring path
// scores each position's outgoing edge independently ("a node can
// differentiate between outgoing edges for two different positions on the
// same path", §2.3).
func (t *Table) SelectivityAt(pred, from, to overlay.NodeID, k int) float64 {
	return sigma(t.UsesAt(pred, from, to), k)
}

func sigma(uses, k int) float64 {
	if k <= 1 {
		return 0
	}
	return min(float64(uses)/float64(k-1), 1)
}

// Successors returns the distinct successors from forwarded to, ascending.
func (t *Table) Successors(from overlay.NodeID) []overlay.NodeID {
	if t == nil {
		return nil
	}
	var out []overlay.NodeID
	for e := range t.uses {
		if e[0] == int32(from) {
			out = append(out, overlay.NodeID(e[1]))
		}
	}
	slices.Sort(out)
	return out
}

// Tails appends to dst every node s that forwarded on some connection of
// the batch — the nodes whose σ may be non-zero — and is not yet set in
// holds, sets holds[s] for each, and returns dst, in no particular order.
// holds must span every recorded id.
func (t *Table) Tails(dst []int32, holds []bool) []int32 {
	if t == nil {
		return dst
	}
	for e := range t.uses {
		if !holds[e[0]] {
			holds[e[0]] = true
			dst = append(dst, e[0])
		}
	}
	return dst
}
