package history

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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
			var err error
			if rows, err = recordAndCheck(h, rows, r, true); err != nil {
				t.Fatalf("seed=%d step=%d: %v", seed, step, err)
			}
		}
	}
}

// TestQuickIndexMatchesScanOracle is the oracle check over connection ids
// the batches of the system never draw: each generated sequence mixes
// in-order ids, ids far below and above a 64-connection window, negative
// and extreme ones, interleaved and repeated, into a table with positions
// or without, enough distinct edges to outgrow a scan.
func TestQuickIndexMatchesScanOracle(t *testing.T) {
	conns := func(rng *rand.Rand, step int) int {
		switch rng.Intn(6) {
		case 0:
			return step / 8 // in order, repeated
		case 1:
			return rng.Intn(200) - 70 // negative, and above 64
		case 2:
			return []int{math.MinInt, math.MaxInt, math.MinInt + 63, math.MaxInt - 63}[rng.Intn(4)]
		case 3:
			return rng.Intn(1<<40) - 1<<39
		default:
			return rng.Intn(8) // interleaved
		}
	}
	check := func(seed int64, positions bool) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(positions)
		var rows []row
		for step := 0; step < 300; step++ {
			r := row{
				conn: conns(rng, step),
				pred: overlay.NodeID(rng.Intn(5) - 1),
				from: overlay.NodeID(rng.Intn(4)),
				to:   overlay.NodeID(rng.Intn(6)),
			}
			var err error
			if rows, err = recordAndCheck(h, rows, r, positions); err != nil {
				t.Logf("seed=%d positions=%v step=%d: %v", seed, positions, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// recordAndCheck records r into h and appends it to rows, then checks
// Record's new-edge report, every Uses, UsesAt (0 throughout without
// positions), Successors and Tails over ids 0..3 → 0..5 against a scan of
// rows.
func recordAndCheck(h *Table, rows []row, r row, positions bool) ([]row, error) {
	first := scanUses(rows, r.from, r.to) == 0
	if got := h.Record(r.conn, r.pred, r.from, r.to); got != first {
		return rows, fmt.Errorf("Record(%+v) new = %v, scan says %v", r, got, first)
	}
	rows = append(rows, r)
	wantTails := make([]bool, 4)
	for from := overlay.NodeID(0); from < 4; from++ {
		var succ []overlay.NodeID
		for to := overlay.NodeID(0); to < 6; to++ {
			want := scanUses(rows, from, to)
			if got := h.Uses(from, to); got != want {
				return rows, fmt.Errorf("Uses(%d, %d) = %d, scan = %d", from, to, got, want)
			}
			if want > 0 {
				succ = append(succ, to)
				wantTails[from] = true
			}
			for pr := overlay.NodeID(-1); pr < 4; pr++ {
				want := 0
				if positions {
					want = scanUsesAt(rows, pr, from, to)
				}
				if got := h.UsesAt(pr, from, to); got != want {
					return rows, fmt.Errorf("UsesAt(%d, %d, %d) = %d, scan = %d", pr, from, to, got, want)
				}
			}
		}
		if got := h.Successors(from); !slices.Equal(got, succ) {
			return rows, fmt.Errorf("Successors(%d) = %v, scan = %v", from, got, succ)
		}
	}
	holds := make([]bool, 4)
	tails := h.Tails(nil, holds)
	sorted := slices.Clone(tails)
	slices.Sort(sorted)
	if !slices.Equal(holds, wantTails) || len(slices.Compact(sorted)) != len(tails) {
		return rows, fmt.Errorf("Tails = %v marking %v, scan = %v", tails, holds, wantTails)
	}
	return rows, nil
}

// TestRecordKnownEdgeAllocsZero pins the per-hop cost of a batch's
// history: recording an edge the table already holds, for a connection
// that has not used it yet and lies within 64 of its first, allocates
// nothing, in a table past the scan size with positions.
func TestRecordKnownEdgeAllocsZero(t *testing.T) {
	h := New(true)
	for to := overlay.NodeID(0); to < 4*scanMax; to++ {
		h.Record(1, 2, 0, to)
	}
	conn := 1
	allocs := testing.AllocsPerRun(50, func() {
		conn++
		h.Record(conn, 2, 0, overlay.NodeID(conn%(4*scanMax)))
	})
	if allocs != 0 {
		t.Fatalf("recording a known edge for a new connection allocates %.1f times, want 0", allocs)
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
