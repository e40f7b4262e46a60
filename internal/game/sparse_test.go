package game

import (
	"math"
	"testing"
	"testing/quick"
)

// sparseView materialises a dense edge map as the ascending candidate
// rows the sparse solver consumes, so a test can run the same graph
// through every formulation.
func sparseView(n int, edges map[[2]int]float64) func(int) ([]int32, []float64) {
	succ := make([][]int32, n)
	qual := make([][]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if q, ok := edges[[2]int{i, j}]; ok {
				succ[i] = append(succ[i], int32(j))
				qual[i] = append(qual[i], q)
			}
		}
	}
	return func(i int) ([]int32, []float64) { return succ[i], qual[i] }
}

// holdAll is the active row rule of a game with no initiator in which
// every vertex but R holds a row: it drops only R from the rows, and
// gives every row the delivery edge at quality 1 when deliver is set —
// what sparseView's rows say when each lists (i, R) at quality 1, or no
// vertex lists it.
func holdAll(n int, deliver bool) RowRule {
	holds := make([]bool, n)
	for i := range holds {
		holds[i] = true
	}
	return RowRule{Holds: holds, Initiator: -1, Deliver: deliver}
}

// sparseGame is randomPathGame on the sparse formulation.
func sparseGame(seed uint64) *PathGame {
	n, edges := randomPathEdges(seed)
	return &PathGame{
		Nodes:     n,
		Responder: n - 1,
		Adjacency: sparseView(n, edges),
		Pf:        10, Pr: 20,
		Cost:    UniformCost(1, 1),
		MaxHops: n,
	}
}

func requireSameTable(t *testing.T, label string, got, want [][]Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows vs %d", label, len(got), len(want))
	}
	for h := range got {
		for i := range got[h] {
			if !sameCell(got[h][i], want[h][i]) {
				t.Fatalf("%s: table[%d][%d] = %+v, want %+v", label, h, i, got[h][i], want[h][i])
			}
		}
	}
}

// TestEdgeQBinarySearch is the lookup regression for the sparse edgeQ:
// on random graphs the lookup over the ascending candidate row must
// agree with the edge map for every pair — present edges bit-exact,
// absent edges (including rows with no successors at all) −1.
func TestEdgeQBinarySearch(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		n, edges := randomPathEdges(seed)
		g := sparseGame(seed)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got := g.edgeQ(i, j)
				want, ok := edges[[2]int{i, j}]
				if !ok {
					want = -1
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: edgeQ(%d,%d) = %v, want %v", seed, i, j, got, want)
				}
			}
		}
	}
	// A node with an empty candidate row must answer −1, not panic.
	g := &PathGame{
		Nodes:     3,
		Responder: 2,
		Adjacency: func(i int) ([]int32, []float64) {
			if i == 0 {
				return []int32{2}, []float64{0.5}
			}
			return nil, nil
		},
		Pf: 10, Pr: 20,
		Cost:    UniformCost(1, 1),
		MaxHops: 2,
	}
	if q := g.edgeQ(1, 2); q != -1 {
		t.Fatalf("edgeQ on empty row = %v, want -1", q)
	}
}

// sameCell reports full bit-equality of two decisions.
func sameCell(a, b Decision) bool {
	return a.Node == b.Node && a.Next == b.Next &&
		math.Float64bits(a.Utility) == math.Float64bits(b.Utility) &&
		math.Float64bits(a.Quality) == math.Float64bits(b.Quality)
}

// Property: the sparse solver reproduces the dense oracle bit for bit on
// arbitrary random games.
func TestQuickSparseMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		dense := randomPathGame(seed).Solve()
		table := sparseGame(seed).Solve()
		for h := range table {
			for i := range table[h] {
				if !sameCell(table[h][i], dense[h][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// starGame is a graph whose induction reaches its fixed point after one
// stage: every non-responder node's only move is the direct edge to R,
// so no row can improve with more hops.
func starGame(n int) *PathGame {
	edges := make(map[[2]int]float64)
	for i := 0; i < n-1; i++ {
		edges[[2]int{i, n - 1}] = 1
	}
	return &PathGame{
		Nodes:     n,
		Responder: n - 1,
		Adjacency: sparseView(n, edges),
		Rule:      holdAll(n, true),
		Pf:        10, Pr: 20,
		Cost:    UniformCost(1, 1),
		MaxHops: 8,
	}
}

// TestSolveFixedPointExit pins the early exit: on a game that converges
// after one stage the sparse solve must skip most stages, report a
// Converged index below MaxHops, and still produce the dense oracle's
// table (the skipped rows are materialised by copying, so callers see a
// full table either way).
func TestSolveFixedPointExit(t *testing.T) {
	const n = 6
	dg := starGame(n)
	dg.Adjacency, dg.Rule = nil, RowRule{}
	edges := make(map[[2]int]float64)
	for i := 0; i < n-1; i++ {
		edges[[2]int{i, n - 1}] = 1
	}
	dg.EdgeQuality = func(i, j int) float64 {
		if q, ok := edges[[2]int{i, j}]; ok {
			return q
		}
		return -1
	}
	dense := dg.Solve()
	var st SolveStats
	g := starGame(n)
	g.Stats = &st
	table := g.Solve()
	requireSameTable(t, "star", table, dense)
	if st.StagesSkipped == 0 {
		t.Fatalf("no stages skipped on a one-stage fixed point (%+v)", st)
	}
	if st.Converged >= g.MaxHops {
		t.Fatalf("Converged = %d, want < MaxHops (%+v)", st.Converged, st)
	}
}
