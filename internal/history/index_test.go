package history

import (
	"math/rand"
	"testing"

	"p2panon/internal/overlay"
)

// row is one Table-1 row as the oracle keeps it: connection conn's holder
// from received the payload from pred and sent it to to.
type row struct {
	conn           int
	pred, from, to overlay.NodeID
}

// scanCount counts the distinct connections among rows that match keep,
// by a full scan: the oracle the table's counts are checked against.
func scanCount(rows []row, keep func(row) bool) int {
	conns := make(map[int]struct{})
	for _, r := range rows {
		if keep(r) {
			conns[r.conn] = struct{}{}
		}
	}
	return len(conns)
}

func scanUses(rows []row, from, to overlay.NodeID) int {
	return scanCount(rows, func(r row) bool { return r.from == from && r.to == to })
}

func scanUsesAt(rows []row, pred, from, to overlay.NodeID) int {
	return scanCount(rows, func(r row) bool { return r.pred == pred && r.from == from && r.to == to })
}

// scanSelectivity is σ over the scan count, with the k ≤ 1 definition
// written out again.
func scanSelectivity(rows []row, from, to overlay.NodeID, k int) float64 {
	if k <= 1 {
		return 0
	}
	sigma := float64(scanUses(rows, from, to)) / float64(k-1)
	if sigma > 1 {
		sigma = 1
	}
	return sigma
}

// TestIndexMatchesScanOracle records a random sequence of rows — several
// tails, predecessors including overlay.None, connections out of order —
// into a table with positions and into a row list, and checks every
// count, the new-edge report and every tail's successors against a scan
// of the list after every step.
func TestIndexMatchesScanOracle(t *testing.T) {
	for _, seed := range []int64{17, 18, 20, 25} {
		rng := rand.New(rand.NewSource(seed))
		h := New(true)
		var rows []row
		for step := 0; step < 400; step++ {
			r := row{
				conn: rng.Intn(12),
				pred: overlay.NodeID(rng.Intn(5) - 1),
				from: overlay.NodeID(rng.Intn(4)),
				to:   overlay.NodeID(rng.Intn(6)),
			}
			first := scanUses(rows, r.from, r.to) == 0
			if got := h.Record(r.conn, r.pred, r.from, r.to); got != first {
				t.Fatalf("seed=%d step=%d: Record(%+v) new = %v, scan says %v", seed, step, r, got, first)
			}
			rows = append(rows, r)

			for from := overlay.NodeID(0); from < 4; from++ {
				var succ []overlay.NodeID
				for to := overlay.NodeID(0); to < 6; to++ {
					want := scanUses(rows, from, to)
					if got := h.Uses(from, to); got != want {
						t.Fatalf("seed=%d step=%d: Uses(%d, %d) = %d, scan = %d", seed, step, from, to, got, want)
					}
					if want > 0 {
						succ = append(succ, to)
					}
					for pr := overlay.NodeID(-1); pr < 4; pr++ {
						if got, want := h.UsesAt(pr, from, to), scanUsesAt(rows, pr, from, to); got != want {
							t.Fatalf("seed=%d step=%d: UsesAt(%d, %d, %d) = %d, scan = %d",
								seed, step, pr, from, to, got, want)
						}
					}
				}
				got := h.Successors(from)
				if len(got) != len(succ) {
					t.Fatalf("seed=%d step=%d: Successors(%d) = %v, scan = %v", seed, step, from, got, succ)
				}
				for i := range succ {
					if got[i] != succ[i] {
						t.Fatalf("seed=%d step=%d: Successors(%d) = %v, scan = %v", seed, step, from, got, succ)
					}
				}
			}
		}
	}
}

// TestHotPathQueriesAllocationFree asserts the selectivity lookups
// allocate nothing — the regression guard for the hot routing path.
func TestHotPathQueriesAllocationFree(t *testing.T) {
	h := New(true)
	for c := 1; c <= 20; c++ {
		h.Record(c, overlay.NodeID(c%3), overlay.NodeID(c%4), overlay.NodeID(c%5))
	}
	var nilTable *Table
	var sink float64
	var sinkInt int
	allocs := testing.AllocsPerRun(200, func() {
		sink += h.Selectivity(1, 2, 10)
		sink += h.SelectivityAt(1, 1, 2, 10)
		sink += nilTable.Selectivity(1, 2, 10)
		sinkInt += h.Uses(3, 3)
		sinkInt += h.UsesAt(0, 3, 3)
	})
	if allocs != 0 {
		t.Fatalf("hot-path queries allocate %.1f per run, want 0", allocs)
	}
	_ = sink
	_ = sinkInt
}

// BenchmarkSelectivityAt measures the position-aware selectivity lookup on
// a table holding a realistic per-batch history.
func BenchmarkSelectivityAt(b *testing.B) {
	h := New(true)
	rng := rand.New(rand.NewSource(1))
	for c := 1; c <= 200; c++ {
		for hop := 0; hop < 4; hop++ {
			h.Record(c, overlay.NodeID(rng.Intn(8)-1), 0, overlay.NodeID(rng.Intn(40)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.SelectivityAt(overlay.NodeID(i%8-1), 0, overlay.NodeID(i%40), 100)
	}
	_ = sink
}
