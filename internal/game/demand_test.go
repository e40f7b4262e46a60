package game

import (
	"math"
	"testing"
	"testing/quick"

	"p2panon/internal/dist"
)

// randomSparseGame draws a game in the simulator's shape: 20–59 vertices,
// three candidate successors each (one in eight with a negative quality,
// i.e. listed but absent), and — under the active row rule SolveFrom
// asks for — a delivery edge to R from every vertex or, in one game in
// four (R unreachable), from none.
func randomSparseGame(rng *dist.Source) (*PathGame, map[[2]int]float64) {
	n := 20 + rng.Intn(40)
	deliver := rng.Intn(4) != 0
	edges := make(map[[2]int]float64)
	for i := 0; i < n-1; i++ {
		for c := 0; c < 3; c++ {
			if j := rng.Intn(n - 1); j != i {
				q := rng.Float64()
				if rng.Intn(8) == 0 {
					q = -1
				}
				edges[[2]int{i, j}] = q
			}
		}
		if deliver {
			edges[[2]int{i, n - 1}] = 1
		}
	}
	return &PathGame{
		Nodes:     n,
		Responder: n - 1,
		Adjacency: sparseView(n, edges),
		Rule:      holdAll(n, deliver),
		Pf:        10, Pr: 20,
		Cost:    UniformCost(1, 1),
		MaxHops: 6,
	}, edges
}

// cone marks, independently of SolveFrom, the cells at stage 2 and above
// the play from (start, hops) can reach — and the root alone when hops ≤
// 1: (i, h) reaches (j, h−1) over every existing edge of a non-responder
// i while h ≥ 3. A stage-2 cell reads no stored stage-1 cell: V(j, 1) is
// in closed form, 0 for R and the one delivery quality for every other j.
func cone(g *PathGame, edges map[[2]int]float64, in [][]bool, start, hops int) {
	if in[hops][start] {
		return
	}
	in[hops][start] = true
	if hops <= 2 || start == g.Responder {
		return
	}
	for j := 0; j < g.Nodes; j++ {
		if q, ok := edges[[2]int{start, j}]; ok && q >= 0 {
			cone(g, edges, in, j, hops-1)
		}
	}
}

// Property: on random sparse games SolveFrom computes exactly the cone of
// its root — every cell in it bit-equal to SolveInto's, nothing outside
// it, no stage-0 or stage-1 cell for a root with hops ≥ 2 — a second root
// under the same epoch only adds the cells its own cone is missing, a
// repeated root computes nothing, a root with hops ≤ 1 solves its one
// cell, the stage-1 read (Cell) equals SolveInto's stage 1 for every
// node, and Reset forgets everything.
func TestQuickSolveFromMatchesSolveInto(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewSource(seed)
		g, edges := randomSparseGame(rng)
		full := g.Solve()
		want := make([][]bool, g.MaxHops+1)
		for h := range want {
			want[h] = make([]bool, g.Nodes)
		}
		var m Memo
		m.Reset(g.Nodes, g.MaxHops)
		known := 0
		roots := [][2]int{
			{rng.Intn(g.Nodes), 1 + rng.Intn(3)},
			{rng.Intn(g.Nodes), 4 + rng.Intn(3)},
		}
		roots = append(roots, [2]int{roots[0][0], g.MaxHops}, roots[1], [2]int{rng.Intn(g.Nodes), 0})
		const repeat = 3 // roots[3] repeats roots[1]
		for r, root := range roots {
			cone(g, edges, want, root[0], root[1])
			size := 0
			for h := range want {
				for i, in := range want[h] {
					if in {
						size++
					}
					if m.Known(h, i) && !in {
						t.Logf("seed %d root %d: cell (%d,%d) known before its cone was asked for", seed, r, h, i)
						return false
					}
				}
			}
			got := g.SolveFrom(&m, root[0], root[1])
			if got != size-known || (r == repeat && got != 0) {
				t.Logf("seed %d root %d %v: computed %d cells, cone adds %d", seed, r, root, got, size-known)
				return false
			}
			known = size
			for h := 0; h <= 1 && root[1] >= 2; h++ {
				for i := 0; i < g.Nodes; i++ {
					if m.Known(h, i) && !(h == roots[0][1] && i == roots[0][0]) {
						t.Logf("seed %d root %d %v: stage-%d cell %d solved", seed, r, root, h, i)
						return false
					}
				}
			}
			for h := range want {
				for i, in := range want[h] {
					if m.Known(h, i) != in {
						t.Logf("seed %d root %d: Known(%d,%d) = %v, cone says %v", seed, r, h, i, !in, in)
						return false
					}
					if got, ok := g.Cell(&m, h, i); ok != (in || h == 1) || ok && !sameCell(got, full[h][i]) {
						t.Logf("seed %d root %d: Cell(%d,%d) = %+v, %v; SolveInto %+v, cone says %v", seed, r, h, i, got, ok, full[h][i], in)
						return false
					}
				}
			}
		}
		m.Reset(g.Nodes, g.MaxHops)
		for h := range want {
			for i := range want[h] {
				if m.Known(h, i) {
					t.Logf("seed %d: cell (%d,%d) survived Reset", seed, h, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoEpochWrap pins the one place stale marks could alias: when the
// 32-bit epoch wraps, Reset must clear the marks instead of reusing a
// value old cells still carry.
func TestMemoEpochWrap(t *testing.T) {
	g := starGame(6)
	var m Memo
	m.Reset(g.Nodes, g.MaxHops)
	g.SolveFrom(&m, 0, 2) // marks cells with epoch 1
	m.epoch = ^uint32(0)
	m.Reset(g.Nodes, g.MaxHops)
	if m.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.epoch)
	}
	if m.Known(2, 0) {
		t.Fatal("a cell marked in the first epoch 1 is known in the second")
	}
	if got := g.SolveFrom(&m, 0, 2); got == 0 {
		t.Fatal("SolveFrom reused a cell from before the wrap")
	}
}

// Property: after the qualities of some rows change — each staying on the
// side of 0 it was on, so the rows hold the same entries — Refresh with
// those rows marked dirty leaves every cell of the cone bit-equal to a
// cold Reset and SolveFrom over the changed rows, and recomputes exactly
// the cells whose inputs moved: a stage-2 cell when its row is dirty, a
// later one when its row is dirty or a successor its row visits changed
// the Float64bits of its Quality at the stage below. Three kinds of round
// take turns: random rows change at random; no row is dirty, and nothing
// is recomputed; and dirty rows change only entries none of their cone
// cells chose, so that no Quality moves and only the dirty cells are
// recomputed. Refresh refuses a memo that holds no cone or two.
func TestQuickRefreshMatchesSolveFrom(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewSource(seed)
		g, _ := randomSparseGame(rng)
		succ := make([][]int32, g.Nodes)
		qual := make([][]float64, g.Nodes)
		for i := range succ {
			s, q := g.Adjacency(i)
			succ[i], qual[i] = s, append([]float64(nil), q...)
		}
		g.Adjacency = func(i int) ([]int32, []float64) { return succ[i], qual[i] }
		start, hops := rng.Intn(g.Nodes), 2+rng.Intn(g.MaxHops-1)
		var m, cold Memo
		m.Reset(g.Nodes, g.MaxHops)
		if _, ok := g.Refresh(&m, nil); ok {
			t.Logf("seed %d: Refresh accepted an empty memo", seed)
			return false
		}
		g.SolveFrom(&m, start, hops)
		dirty := make([]bool, g.Nodes)
		was := make([][]float64, hops+1) // each cone cell's Quality before the round
		for h := range was {
			was[h] = make([]float64, g.Nodes)
		}
		var visits []int32
		for round := 0; round < 6; round++ {
			kind := round % 3
			clear(dirty)
			for h := 2; h <= hops; h++ {
				for i := range was[h] {
					d, _ := g.Cell(&m, h, i)
					was[h][i] = d.Quality
				}
			}
			for i := range qual {
				if kind == 1 || rng.Intn(3) != 0 {
					continue
				}
				dirty[i] = true
				chosen := make(map[int]bool)
				for h := 2; h <= hops; h++ {
					if d, ok := g.Cell(&m, h, i); ok {
						chosen[d.Next] = true
					}
				}
				for a, q := range qual[i] {
					j := succ[i][a]
					switch {
					case q < 0 || j == int32(g.Responder):
					case kind == 0:
						qual[i][a] = rng.Float64()
					case !chosen[int(j)]:
						qual[i][a] = q / 2
					}
				}
			}
			got, ok := g.Refresh(&m, dirty)
			cold.Reset(g.Nodes, g.MaxHops)
			g.SolveFrom(&cold, start, hops)
			want, dirtyCells := 0, 0
			for h := 2; h <= hops; h++ {
				for i := 0; i < g.Nodes; i++ {
					if !cold.Known(h, i) {
						if m.Known(h, i) {
							t.Logf("seed %d: cell (%d,%d) outside the cone is known", seed, h, i)
							return false
						}
						continue
					}
					moved := dirty[i]
					visits, _ = g.AppendRow(visits[:0], nil, i)
					for _, j := range visits {
						b, _ := g.Cell(&cold, h-1, int(j))
						moved = moved || h > 2 && math.Float64bits(b.Quality) != math.Float64bits(was[h-1][j])
					}
					if moved {
						want++
					}
					if dirty[i] {
						dirtyCells++
					}
					a, aok := g.Cell(&m, h, i)
					b, _ := g.Cell(&cold, h, i)
					if !aok || !sameCell(a, b) {
						t.Logf("seed %d round %d: cell (%d,%d) = %+v (%v), cold %+v", seed, round, h, i, a, aok, b)
						return false
					}
				}
			}
			if !ok || got != want || kind == 1 && got != 0 || kind == 2 && got != dirtyCells {
				t.Logf("seed %d round %d (kind %d): Refresh = %d, %v; want %d cells, %d of them dirty", seed, round, kind, got, ok, want, dirtyCells)
				return false
			}
		}
		if g.SolveFrom(&m, (start+1)%g.Nodes, hops) > 0 {
			if _, ok := g.Refresh(&m, dirty); ok {
				t.Logf("seed %d: Refresh accepted a memo holding two cones", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
