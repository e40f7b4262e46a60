package game

import (
	"fmt"
	"math"
)

// Memo is the storage of demand-driven solves (PathGame.SolveFrom): a
// decision table plus per-cell epoch marks saying which cells hold a value
// of the current game. Only the play that starts at one vertex with one
// hop budget is ever played, so a caller that needs the prescriptions
// along that play solves the cone of cells it can reach instead of the
// whole (MaxHops+1)×Nodes table. The zero value is empty; Reset readies
// it.
type Memo struct {
	table [][]Decision
	mark  [][]uint32 // mark[h][i] == epoch ⇔ table[h][i] is solved
	epoch uint32
	todo  [][]int32 // per-stage discovery lists, reused across calls
	// roots counts the roots SolveFrom solved since the last Reset, and
	// hops is the budget of the latest: with one root, todo[2 … hops]
	// still list its cone, which Refresh re-solves.
	roots, hops int
	// The cone's reverse index, built by its first Refresh (indexed) and
	// kept until the next Reset: for 2 ≤ h < hops, the cells at stage h+1
	// whose rows visit todo[h][p] are the chain of preds[h] that starts
	// at first[h][p].
	first   [][]int32
	preds   [][]predEdge
	indexed bool
	// Refresh's working state: stale[h][p] says a successor todo[h][p]'s row
	// visits changed its Quality at stage h−1; at[j] is j's position in
	// the todo list being indexed.
	stale [][]bool
	at    []int32
}

// predEdge is one (cell, successor) pair of a cone's reverse index: the
// cell's position in its stage's todo list, and the pair of the same
// successor listed before it (−1 for none).
type predEdge struct{ cell, next int32 }

// Reset forgets every solved cell and sizes the memo for games of nodes
// vertices and at most maxHops stages. Forgetting is one epoch bump; the
// storage is reallocated only when the dimensions change. Call it
// whenever anything the game reads — rows, responder, contract, costs —
// may have changed.
func (m *Memo) Reset(nodes, maxHops int) {
	if len(m.table) != maxHops+1 || len(m.table[0]) != nodes {
		m.table = make([][]Decision, maxHops+1)
		m.mark = make([][]uint32, maxHops+1)
		m.todo = make([][]int32, maxHops+1)
		for h := range m.table {
			m.table[h] = make([]Decision, nodes)
			m.mark[h] = make([]uint32, nodes)
		}
		m.epoch = 0
	}
	m.epoch++
	if m.epoch == 0 {
		// Wrapped: marks left by epoch 1, 2, … would read as current.
		for h := range m.mark {
			clear(m.mark[h])
		}
		m.epoch = 1
	}
	m.roots, m.indexed = 0, false
}

// Known reports whether cell (hops, node) has been solved since the last
// Reset.
func (m *Memo) Known(hops, node int) bool {
	return m.epoch != 0 && m.mark[hops][node] == m.epoch
}

// Cell returns the decision of cell (hops, node) of the game g and
// whether it holds a value of that game: the one read of a demand-driven
// solve. A stage-1 cell is answered for any node from its delivery edge
// alone (deliverCell), since SolveFrom never stores one unless asked for it as
// a root; every other stage reads m, where only the cells a SolveFrom
// since the last Reset solved hold values. g must have an active Rule,
// m must hold cells of g, and what g reads — its rows and its rule — must
// be unchanged since they were solved.
func (g *PathGame) Cell(m *Memo, hops, node int) (Decision, bool) {
	if hops == 1 {
		return g.deliverCell(node), true
	}
	return m.table[hops][node], m.Known(hops, node)
}

// SolveFrom solves, into m, every cell at stage 2 and above the play from
// (start, hops) can reach and returns how many cells it computed. It
// discovers the cone top down through the rows as the rule reads them —
// cell (i, h) needs (j, h−1) for each candidate j of i — down to stage 2,
// then fills it bottom up: stage 2 from each cell's own row and delivery
// edge (penultimateCell), every later stage with the same solveCell the
// full sweeps use, so every computed cell is bit-identical to SolveInto's.
// Stages 1 and 0 are never stored — a stage-2 cell reads V(j, 1) in
// closed form, and Cell answers stage 1 from the delivery edge — unless
// the root itself has hops ≤ 1; then its one cell is solved. Cells
// already Known are reused and not descended from: a second root under
// the same epoch, or a larger budget, only adds what is missing. When
// hops reaches the graph's diameter the cone is the full table less
// stages 0 and 1, and the cost that of a full sweep, never more.
//
// The game must set Adjacency and an active Rule, whose delivery edges
// the closed-form stages 1 and 2 read (PathGame.Rule); and m must have
// been Reset for g.Nodes and at least hops stages. Rows are read during
// the call only; the caller must keep them unchanged until the last read
// of a cell, or re-solve the cells that read them (Refresh). The
// discovery lists stay in m for Refresh, and a root costs nothing more:
// the cone's reverse index waits for its first Refresh, so a caller that
// never refreshes never builds one.
func (g *PathGame) SolveFrom(m *Memo, start, hops int) (computed int) {
	if g.Adjacency == nil || g.Rule.Holds == nil {
		panic("game: SolveFrom needs Adjacency and an active row rule")
	}
	if hops < 0 || hops >= len(m.table) || len(m.table[hops]) != g.Nodes || start < 0 || start >= g.Nodes {
		panic(fmt.Sprintf("game: SolveFrom(%d, %d): memo not Reset for %d nodes and that budget", start, hops, g.Nodes))
	}
	if m.mark[hops][start] == m.epoch {
		return 0
	}
	g.prepare()
	m.mark[hops][start] = m.epoch
	m.roots, m.hops = m.roots+1, hops
	switch hops {
	case 0:
		q := negInf
		if start == g.Responder {
			q = 0
		}
		m.table[0][start] = Decision{Node: start, Next: -1, Utility: negInf, Quality: q}
		return 1
	case 1:
		m.table[1][start] = g.deliverCell(start)
		return 1
	}
	for h := 2; h <= hops; h++ {
		m.todo[h] = m.todo[h][:0]
	}
	m.todo[hops] = append(m.todo[hops], int32(start))
	for h := hops; h > 2; h-- {
		below, pending := m.mark[h-1], m.todo[h-1]
		var row rowView
		for _, i := range m.todo[h] {
			if int(i) == g.Responder {
				continue // R's cell is constant and reads nothing
			}
			g.open(&row, int(i))
			for a := 0; a < row.n; a++ {
				if j, _, ok := row.at(a); ok && below[j] != m.epoch {
					below[j] = m.epoch
					pending = append(pending, j)
				}
			}
		}
		m.todo[h-1] = pending
	}
	for _, i := range m.todo[2] {
		m.table[2][i] = g.penultimateCell(int(i))
	}
	computed = len(m.todo[2])
	for h := 3; h <= hops; h++ {
		prev, cur := m.table[h-1], m.table[h]
		for _, i := range m.todo[h] {
			cur[i] = g.solveCell(prev, int(i))
		}
		computed += len(m.todo[h])
	}
	return computed
}

// Refresh re-solves, in place, the cone the one SolveFrom since m's last
// Reset discovered, after the qualities of the rows marked dirty changed,
// and returns how many cells it recomputed. It propagates change instead
// of sweeping: a stage-2 cell reads its own row alone (penultimateCell),
// so it is recomputed only when its row is dirty; a cell at stage 3 and
// above reads its own row and, of the stage below, only the Quality of
// each successor its row visits (solveCell), so it is recomputed only
// when its row is dirty or one of those successors' Quality changed its
// Float64bits. Every other cell keeps a value computed from the same
// inputs, so every cell is bit-identical to the one a Reset and SolveFrom
// over the same rows would compute. A cone's first Refresh builds its
// reverse index, the (cell, successor) pairs of its rows; SolveFrom pays
// nothing for it.
//
// Refresh reuses the discovery lists and the row rule as that SolveFrom
// prepared it, so g must be the game that solved m, and what the
// discovery read unchanged since: the rule, and which entries each row
// holds (no quality may cross 0). dirty is indexed by vertex and must
// span the cone. When m does not hold exactly one cone — no root, or a
// second root solved into it — Refresh does nothing and returns ok ==
// false.
func (g *PathGame) Refresh(m *Memo, dirty []bool) (computed int, ok bool) {
	if g.Adjacency == nil || g.Rule.Holds == nil {
		panic("game: Refresh needs Adjacency and an active row rule")
	}
	if m.roots != 1 {
		return 0, false
	}
	if m.hops < 2 {
		return 0, true // the root reads its delivery edge only, or nothing
	}
	if !m.indexed {
		g.index(m)
	}
	for h := 2; h <= m.hops; h++ {
		cur, stale := m.table[h], m.stale[h]
		for p, i := range m.todo[h] {
			if !dirty[i] && !stale[p] {
				continue
			}
			stale[p] = false
			was := cur[i].Quality
			if h == 2 {
				cur[i] = g.penultimateCell(int(i))
			} else {
				cur[i] = g.solveCell(m.table[h-1], int(i))
			}
			computed++
			if h < m.hops && math.Float64bits(cur[i].Quality) != math.Float64bits(was) {
				up, preds := m.stale[h+1], m.preds[h]
				for e := m.first[h][p]; e >= 0; e = preds[e].next {
					up[preds[e].cell] = true
				}
			}
		}
	}
	return computed, true
}

// index builds the reverse index of m's one cone: for every cell (i, h)
// at stage 3 and above and every successor j its row visits, (i, h)
// joins the chain of (j, h−1) — every pair, also when j was discovered
// from another cell first. It readies stale too, all false. Its storage
// is sized here, not by Reset, so that a memo that is never refreshed
// never holds it.
func (g *PathGame) index(m *Memo) {
	if len(m.first) != len(m.table) {
		m.first = make([][]int32, len(m.table))
		m.preds = make([][]predEdge, len(m.table))
		m.stale = make([][]bool, len(m.table))
	}
	if len(m.at) != g.Nodes {
		m.at = make([]int32, g.Nodes)
	}
	for h := 2; h <= m.hops; h++ {
		m.stale[h] = resized(m.stale[h], len(m.todo[h]))
		clear(m.stale[h])
	}
	var row rowView
	for h := 3; h <= m.hops; h++ {
		below := m.todo[h-1]
		for p, j := range below {
			m.at[j] = int32(p)
		}
		first, preds := resized(m.first[h-1], len(below)), m.preds[h-1][:0]
		for p := range first {
			first[p] = -1
		}
		for p, i := range m.todo[h] {
			g.open(&row, int(i)) // R and a node without a row visit nothing
			for a := 0; a < row.n; a++ {
				if j, _, ok := row.at(a); ok {
					s := m.at[j]
					preds = append(preds, predEdge{cell: int32(p), next: first[s]})
					first[s] = int32(len(preds) - 1)
				}
			}
		}
		m.first[h-1], m.preds[h-1] = first, preds
	}
	m.indexed = true
}

// resized returns s with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
