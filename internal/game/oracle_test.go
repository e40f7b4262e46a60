package game

import (
	"fmt"
	"math"
)

// edgeQ returns q(i, j) under either formulation (−1 when absent); the
// sparse lookup walks i's row as the rule reads it. Used by the
// off-hot-path helpers (verification, brute force) so they accept both
// views.
func (g *PathGame) edgeQ(i, j int) float64 {
	if g.Adjacency == nil {
		return g.EdgeQuality(i, j)
	}
	g.prepare()
	var row rowView
	g.open(&row, i)
	for a := 0; a < row.n; a++ {
		if k, q, ok := row.at(a); ok && int(k) == j {
			return q
		}
	}
	return -1
}

// BestPath extracts the SPNE path from start to the responder using at
// most MaxHops hops. It returns nil when no path exists within the budget.
func (g *PathGame) BestPath(start int) []int {
	table := g.Solve()
	return extractPath(table, start, g.Responder, g.MaxHops)
}

func extractPath(table [][]Decision, start, responder, hops int) []int {
	if start == responder {
		return []int{start}
	}
	path := []int{start}
	cur := start
	for h := hops; h > 0; h-- {
		d := table[h][cur]
		if d.Next == -1 {
			return nil
		}
		path = append(path, d.Next)
		cur = d.Next
		if cur == responder {
			return path
		}
	}
	return nil
}

// BruteForceBestQuality exhaustively searches all simple paths from start
// to the responder of length <= maxHops and returns the maximum
// edge-quality sum, or -Inf when unreachable. Exponential; used only by
// tests to validate the backward induction.
func (g *PathGame) BruteForceBestQuality(start, maxHops int) float64 {
	visited := make([]bool, g.Nodes)
	var rec func(i, hops int) float64
	rec = func(i, hops int) float64 {
		if i == g.Responder {
			return 0
		}
		if hops == 0 {
			return negInf
		}
		best := negInf
		visited[i] = true
		for j := 0; j < g.Nodes; j++ {
			if j == i || visited[j] {
				continue
			}
			q := g.edgeQ(i, j)
			if q < 0 {
				continue
			}
			cont := rec(j, hops-1)
			if math.IsInf(cont, -1) {
				continue
			}
			if q+cont > best {
				best = q + cont
			}
		}
		visited[i] = false
		return best
	}
	return rec(start, maxHops)
}

// DeviationReport describes one profitable one-shot deviation found in a
// solved PathGame table — evidence that a prescription is *not* subgame
// perfect.
type DeviationReport struct {
	Hops       int     // remaining hop budget at the information set
	Node       int     // deciding player
	Prescribed int     // the table's move (-1 = NULL)
	Better     int     // the strictly better move
	Gain       float64 // utility improvement of the deviation
}

// String renders the deviation.
func (d DeviationReport) String() string {
	return fmt.Sprintf("at (hops=%d, node=%d): prescribed %d, deviation to %d gains %.6f",
		d.Hops, d.Node, d.Prescribed, d.Better, d.Gain)
}

// VerifySubgamePerfect checks a solved table against the one-shot
// deviation principle: for every information set (remaining hops h, node
// i), no single-move deviation followed by a return to the prescribed
// strategy strictly improves the deciding node's utility. For finite
// multi-stage games this is necessary and sufficient for subgame
// perfection, so a nil return certifies the table is an SPNE of the path
// game.
func (g *PathGame) VerifySubgamePerfect(table [][]Decision) []DeviationReport {
	var out []DeviationReport
	const eps = 1e-9
	for h := 1; h < len(table); h++ {
		for i := 0; i < g.Nodes; i++ {
			if i == g.Responder {
				continue
			}
			prescribed := table[h][i]
			for j := 0; j < g.Nodes; j++ {
				if j == i {
					continue
				}
				q := g.edgeQ(i, j)
				if q < 0 {
					continue
				}
				cont := table[h-1][j].Quality
				if math.IsInf(cont, -1) {
					continue
				}
				u := g.Pf + (q+cont)*g.Pr - (g.Cost.Participation + g.Cost.Transmission(i, j))
				base := prescribed.Utility
				if math.IsInf(base, -1) {
					base = 0 // NULL play earns nothing
					// A feasible move with positive utility beats NULL.
					if u > eps {
						out = append(out, DeviationReport{
							Hops: h, Node: i, Prescribed: -1, Better: j, Gain: u,
						})
					}
					continue
				}
				if u > base+eps {
					out = append(out, DeviationReport{
						Hops: h, Node: i, Prescribed: prescribed.Next, Better: j, Gain: u - base,
					})
				}
			}
		}
	}
	return out
}
