package history

import (
	"math"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
)

// TestSelectivitySmallKAgainstScanOracle is the k ≤ 1 audit regression:
// the table's selectivity must match the full-scan oracle bit for bit
// across the whole k range, and in particular the degenerate k values
// (0, 1, negative) must yield exactly 0 — never ±Inf or NaN, which a raw
// division by k−1 would leak straight into the SPNE utility comparisons.
func TestSelectivitySmallKAgainstScanOracle(t *testing.T) {
	rng := dist.NewSource(99)
	h := New(true)
	var rows []row
	for c := 1; c <= 40; c++ {
		hops := 1 + rng.Intn(3)
		for i := 0; i < hops; i++ {
			r := row{conn: c, pred: overlay.NodeID(rng.Intn(8)) - 1, from: 0, to: overlay.NodeID(rng.Intn(10))}
			h.Record(r.conn, r.pred, r.from, r.to)
			rows = append(rows, r)
		}
	}
	for k := -2; k <= 45; k++ {
		for succ := overlay.NodeID(0); succ < 12; succ++ {
			got := h.Selectivity(0, succ, k)
			want := scanSelectivity(rows, 0, succ, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Selectivity(0, %d, %d) = %x, scan oracle %x",
					succ, k, math.Float64bits(got), math.Float64bits(want))
			}
			if math.IsInf(got, 0) || math.IsNaN(got) || got < 0 || got > 1 {
				t.Fatalf("Selectivity(0, %d, %d) = %v escapes [0, 1]", succ, k, got)
			}
			if k <= 1 && got != 0 {
				t.Fatalf("Selectivity(0, %d, %d) = %v, want 0 for k ≤ 1", succ, k, got)
			}
			at := h.SelectivityAt(4, 0, succ, k)
			if math.IsInf(at, 0) || math.IsNaN(at) || at < 0 || at > 1 {
				t.Fatalf("SelectivityAt(4, 0, %d, %d) = %v escapes [0, 1]", succ, k, at)
			}
			if k <= 1 && at != 0 {
				t.Fatalf("SelectivityAt(4, 0, %d, %d) = %v, want 0 for k ≤ 1", succ, k, at)
			}
		}
	}
}

// TestNilProfileQueries pins the nil-receiver contract the routers lean
// on: a batch that has recorded nothing has no table, and every query on
// a nil *Table behaves exactly like an empty table.
func TestNilProfileQueries(t *testing.T) {
	var h *Table
	if h.Uses(1, 3) != 0 || h.UsesAt(1, 1, 3) != 0 {
		t.Fatal("nil table reports edge uses")
	}
	if got := h.Selectivity(1, 3, 5); got != 0 {
		t.Fatalf("nil Selectivity = %v", got)
	}
	if got := h.SelectivityAt(1, 1, 3, 5); got != 0 {
		t.Fatalf("nil SelectivityAt = %v", got)
	}
	if got := h.Successors(1); len(got) != 0 {
		t.Fatalf("nil Successors = %v", got)
	}
	holds := make([]bool, 4)
	if got := h.Tails(nil, holds); len(got) != 0 {
		t.Fatalf("nil Tails = %v", got)
	}
	for _, b := range holds {
		if b {
			t.Fatal("nil table marked a tail")
		}
	}
}
