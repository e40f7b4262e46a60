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

// Table is one batch's routing history: the directed edges its
// connections used, each with the number of distinct connections that used
// it, so a connection reusing an edge — a cycle, a re-attempt — counts
// once. Counts are exact for any order and any values of the connection
// ids: connections of the batch may interleave and repeat. Queries are
// allocation free, and a nil *Table is an empty history.
//
// The table holds no Go map on its hot path. Each of its one or two
// indexes (edges, and (predecessor, edge) pairs when made with positions)
// is a flat slice of records, each with its distinct-connection count and
// the set of connections that used it: a 64-bit window from the first
// such connection, so the connections of a batch in order fill one word,
// and a spill map, made on first need, for a connection outside it. A
// small index is scanned; a larger one is found through an open-addressed
// hash of record positions. Recording a known edge for a connection
// inside its window allocates nothing.
type Table struct {
	edges store
	pos   *store // nil unless the table was made with positions
}

// rowKey names a record: its tail's predecessor (0 in the edge index), tail
// and head, as int32 ids — every batch open at once holds a table, so its
// records are kept small.
type rowKey struct{ pred, from, to int32 }

// record is one key's row: uses distinct connections used it, namely the
// members of base+i for each bit i of set and those the store's spill
// holds for it.
type record struct {
	key  rowKey
	uses int32
	base int
	set  uint64
}

// spillKey is a (record, connection) pair outside the record's window.
type spillKey struct {
	rec  int32
	conn int
}

// scanMax is the most records a store finds by scanning; past it, slots
// index them.
const scanMax = 8

// store is one index of a table: its records, in the order their keys
// were first recorded, and the means to find one by key.
type store struct {
	recs []record
	// slots is an open-addressed hash of record positions (position+1, 0
	// for an empty slot), at most half full; nil while the store is small
	// enough to scan.
	slots []int32
	spill map[spillKey]struct{}
}

// New returns an empty table; positions keeps the (predecessor, edge)
// index that UsesAt and SelectivityAt read.
func New(positions bool) *Table {
	t := &Table{}
	if positions {
		t.pos = &store{}
	}
	return t
}

func edgeKey(from, to overlay.NodeID) rowKey { return rowKey{0, int32(from), int32(to)} }

// Record stores one forwarding instance of connection conn: the holder
// from, having received the payload from pred (overlay.None if from is
// the initiator), sent it to to. It reports whether the edge is new to
// the batch: no connection, this one included, used it before.
func (t *Table) Record(conn int, pred, from, to overlay.NodeID) (first bool) {
	first = t.edges.count(conn, edgeKey(from, to))
	if t.pos != nil {
		t.pos.count(conn, rowKey{int32(pred), int32(from), int32(to)})
	}
	return first
}

// count adds one use of k by connection conn, unless conn used it before,
// and reports whether k is new to the store.
func (s *store) count(conn int, k rowKey) (isNew bool) {
	i := s.find(k)
	if i < 0 {
		s.insert(record{key: k, uses: 1, base: conn, set: 1})
		return true
	}
	r := &s.recs[i]
	// The window's offsets wrap modulo 2⁶⁴, so each bit names exactly one
	// connection id whatever base is.
	if d := uint(conn - r.base); d < 64 {
		if r.set&(1<<d) == 0 {
			r.set |= 1 << d
			r.uses++
		}
		return false
	}
	sk := spillKey{int32(i), conn}
	if _, seen := s.spill[sk]; !seen {
		if s.spill == nil {
			s.spill = make(map[spillKey]struct{})
		}
		s.spill[sk] = struct{}{}
		r.uses++
	}
	return false
}

// hash mixes a key's three ids into the low bits a slot index keeps.
func (k rowKey) hash() uint64 {
	h := (uint64(uint32(k.from))<<32 | uint64(uint32(k.to))) ^ uint64(uint32(k.pred))*0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	return h ^ h>>29
}

// find returns the position of k's record, or -1.
func (s *store) find(k rowKey) int {
	if s.slots == nil {
		for i := range s.recs {
			if s.recs[i].key == k {
				return i
			}
		}
		return -1
	}
	mask := uint64(len(s.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		p := s.slots[i]
		if p == 0 {
			return -1
		}
		if s.recs[p-1].key == k {
			return int(p - 1)
		}
	}
}

// insert appends r, whose key the store does not hold, and indexes it
// once the store outgrows a scan.
func (s *store) insert(r record) {
	s.recs = append(s.recs, r)
	switch n := len(s.recs); {
	case n <= scanMax:
	case 2*n > len(s.slots):
		s.rehash(max(4*scanMax, 2*len(s.slots)))
	default:
		s.place(int32(n))
	}
}

// rehash indexes every record in fresh slots of the given size, a power
// of two.
func (s *store) rehash(size int) {
	s.slots = make([]int32, size)
	for p := range s.recs {
		s.place(int32(p + 1))
	}
}

// place puts record position p−1 in the first free slot of its probe
// sequence.
func (s *store) place(p int32) {
	mask := uint64(len(s.slots) - 1)
	i := s.recs[p-1].key.hash() & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = p
}

// uses returns k's distinct-connection count, 0 for a key not held.
func (s *store) uses(k rowKey) int {
	if i := s.find(k); i >= 0 {
		return int(s.recs[i].uses)
	}
	return 0
}

// Uses returns the number of distinct connections that used from→to.
func (t *Table) Uses(from, to overlay.NodeID) int {
	if t == nil {
		return 0
	}
	return t.edges.uses(edgeKey(from, to))
}

// UsesAt returns the number of distinct connections on which from,
// holding the payload received from pred, forwarded to to — the
// position-differentiated count §2.3's predecessor trick enables. It is 0
// for a table made without positions.
func (t *Table) UsesAt(pred, from, to overlay.NodeID) int {
	if t == nil || t.pos == nil {
		return 0
	}
	return t.pos.uses(rowKey{int32(pred), int32(from), int32(to)})
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
	for i := range t.edges.recs {
		if k := t.edges.recs[i].key; k.from == int32(from) {
			out = append(out, overlay.NodeID(k.to))
		}
	}
	slices.Sort(out)
	return out
}

// Tails appends to dst every node s that forwarded on some connection of
// the batch — the nodes whose σ may be non-zero — and is not yet set in
// holds, sets holds[s] for each, and returns dst, in the order their first
// edges were recorded.
// holds must span every recorded id.
func (t *Table) Tails(dst []int32, holds []bool) []int32 {
	if t == nil {
		return dst
	}
	for i := range t.edges.recs {
		if s := t.edges.recs[i].key.from; !holds[s] {
			holds[s] = true
			dst = append(dst, s)
		}
	}
	return dst
}
