package game

import "fmt"

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
}

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
}

// Known reports whether cell (hops, node) has been solved since the last
// Reset.
func (m *Memo) Known(hops, node int) bool {
	return m.epoch != 0 && m.mark[hops][node] == m.epoch
}

// Table returns the memo's decision table, indexed [hops][node] like
// Solve's. Only Known cells hold values of the current game; the rest is
// stale storage. The table is overwritten by later SolveFrom calls.
func (m *Memo) Table() [][]Decision { return m.table }

// SolveFrom solves, into m, every cell above stage 0 the play from
// (start, hops) can reach and returns how many cells it computed. It
// discovers the cone top down through Adjacency — cell (i, h) needs
// (j, h−1) for each candidate j of i — down to stage 1, then fills it
// bottom up: stage 1 from Deliver alone (deliverCell), every later stage
// with the same solveCell the full sweeps use, so every computed cell is
// bit-identical to SolveInto's. Stage 0 is never read, since a stage-1
// cell has R as its only feasible move, and is solved only for a root
// with hops = 0. Cells already Known are reused and not descended from: a
// second root under the same epoch, or a larger budget, only adds what is
// missing. When hops reaches the graph's diameter the cone is the full
// table less stage 0, and the cost that of a full sweep, never more.
//
// The game must set Adjacency and Deliver, and m must have been Reset
// for g.Nodes and at least hops stages. Rows are read during the call
// only; the caller must keep them unchanged between a Reset and the last
// read of a cell.
func (g *PathGame) SolveFrom(m *Memo, start, hops int) (computed int) {
	if g.Adjacency == nil || g.Deliver == nil {
		panic("game: SolveFrom needs Adjacency and Deliver")
	}
	if hops < 0 || hops >= len(m.table) || len(m.table[hops]) != g.Nodes || start < 0 || start >= g.Nodes {
		panic(fmt.Sprintf("game: SolveFrom(%d, %d): memo not Reset for %d nodes and that budget", start, hops, g.Nodes))
	}
	if m.mark[hops][start] == m.epoch {
		return 0
	}
	if hops == 0 {
		m.mark[0][start] = m.epoch
		q := negInf
		if start == g.Responder {
			q = 0
		}
		m.table[0][start] = Decision{Node: start, Next: -1, Utility: negInf, Quality: q}
		return 1
	}
	for h := 1; h <= hops; h++ {
		m.todo[h] = m.todo[h][:0]
	}
	m.mark[hops][start] = m.epoch
	m.todo[hops] = append(m.todo[hops], int32(start))
	for h := hops; h > 1; h-- {
		below, pending := m.mark[h-1], m.todo[h-1]
		for _, i := range m.todo[h] {
			if int(i) == g.Responder {
				continue // R's cell is constant and reads nothing
			}
			succ, qual := g.Adjacency(int(i))
			for idx, j := range succ {
				if j != i && qual[idx] >= 0 && below[j] != m.epoch {
					below[j] = m.epoch
					pending = append(pending, j)
				}
			}
		}
		m.todo[h-1] = pending
	}
	for _, i := range m.todo[1] {
		m.table[1][i] = g.deliverCell(int(i))
	}
	computed = len(m.todo[1])
	for h := 2; h <= hops; h++ {
		prev, cur := m.table[h-1], m.table[h]
		for _, i := range m.todo[h] {
			cur[i] = g.solveCell(prev, int(i))
		}
		computed += len(m.todo[h])
	}
	return computed
}
