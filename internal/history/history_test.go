package history

import (
	"math"
	"testing"
	"testing/quick"

	"p2panon/internal/overlay"
)

func TestEmptyProfile(t *testing.T) {
	h := New(true)
	if h.Uses(3, 1) != 0 || h.UsesAt(overlay.None, 3, 1) != 0 {
		t.Fatal("empty table reports uses")
	}
	if h.Selectivity(3, 1, 5) != 0 {
		t.Fatal("selectivity without history should be 0")
	}
	if got := h.Successors(3); len(got) != 0 {
		t.Fatalf("successors = %v", got)
	}
}

func TestRecordAndEdgeUses(t *testing.T) {
	h := New(false)
	h.Record(1, overlay.None, 0, 7)
	h.Record(2, 4, 0, 7)
	h.Record(3, 4, 0, 9)
	if h.Uses(0, 7) != 2 {
		t.Fatalf("Uses(0, 7) = %d", h.Uses(0, 7))
	}
	if h.Uses(0, 9) != 1 {
		t.Fatalf("Uses(0, 9) = %d", h.Uses(0, 9))
	}
	if h.Uses(0, 12) != 0 {
		t.Fatalf("Uses(0, 12) = %d", h.Uses(0, 12))
	}
}

func TestSameConnectionCountedOnce(t *testing.T) {
	// A node appearing twice on the same path with the same successor
	// still contributes one connection to that edge; only the first
	// record of an edge is new to the batch.
	h := New(true)
	if !h.Record(1, 4, 0, 7) {
		t.Fatal("first use of 0→7 not new")
	}
	if h.Record(1, 9, 0, 7) {
		t.Fatal("second use of 0→7 reported new")
	}
	if h.Uses(0, 7) != 1 {
		t.Fatalf("Uses = %d, want 1 (same conn)", h.Uses(0, 7))
	}
	if h.UsesAt(4, 0, 7) != 1 || h.UsesAt(9, 0, 7) != 1 {
		t.Fatalf("UsesAt = %d, %d, want 1, 1", h.UsesAt(4, 0, 7), h.UsesAt(9, 0, 7))
	}
}

func TestSelectivityDefinition(t *testing.T) {
	// σ(s,v) = uses / (k-1), per §2.3.
	h := New(false)
	h.Record(1, overlay.None, 0, 7)
	h.Record(2, overlay.None, 0, 7)
	h.Record(3, overlay.None, 0, 9)
	// For the 4th connection: edge 0→7 used in 2 of 3 prior connections.
	if got, want := h.Selectivity(0, 7, 4), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigma = %g, want %g", got, want)
	}
	if got, want := h.Selectivity(0, 9, 4), 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigma = %g, want %g", got, want)
	}
	if got := h.Selectivity(0, 11, 4); got != 0 {
		t.Fatalf("unused edge sigma = %g", got)
	}
}

func TestSelectivityClampedToOne(t *testing.T) {
	// If a node recorded more uses than k-1 (possible when k is an
	// undercount from the caller's perspective), clamp.
	h := New(false)
	h.Record(1, overlay.None, 0, 7)
	h.Record(2, overlay.None, 0, 7)
	h.Record(3, overlay.None, 0, 7)
	if got := h.Selectivity(0, 7, 2); got != 1 {
		t.Fatalf("sigma = %g, want clamp at 1", got)
	}
}

func TestSuccessorsSorted(t *testing.T) {
	h := New(false)
	h.Record(1, overlay.None, 0, 9)
	h.Record(2, overlay.None, 0, 3)
	h.Record(3, overlay.None, 0, 6)
	h.Record(3, 0, 6, 2) // another tail's row
	got := h.Successors(0)
	want := []overlay.NodeID{3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("successors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("successors = %v", got)
		}
	}
}

// TestStoreIsolatesBatches: each batch has its own table, and within one
// a row is its tail's alone — the table is the union of the nodes'
// profiles, so no node's σ reads another node's rows; Tails lists
// each tail once, and not again once holds marks it.
func TestStoreIsolatesBatches(t *testing.T) {
	a, b := New(false), New(false)
	a.Record(1, overlay.None, 1, 7)
	if b.Uses(1, 7) != 0 {
		t.Fatal("batches not isolated")
	}
	if a.Uses(2, 7) != 0 || a.Selectivity(2, 7, 2) != 0 {
		t.Fatal("nodes not isolated")
	}
	a.Record(2, overlay.None, 1, 3)
	holds := make([]bool, 8)
	if got := a.Tails(nil, holds); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Tails listed %v, want [1]", got)
	}
	for id, h := range holds {
		if h != (id == 1) {
			t.Fatalf("Tails marked %v", holds)
		}
	}
	if got := a.Tails(nil, holds); len(got) != 0 {
		t.Fatalf("Tails listed %v again", got)
	}
}

// Property: selectivity is always within [0, 1] and Uses never exceeds
// the number of distinct connections.
func TestQuickSelectivityBounds(t *testing.T) {
	f := func(ops []uint8, k uint8) bool {
		h := New(false)
		conns := make(map[int]bool)
		for i, op := range ops {
			conn := int(op % 8)
			conns[conn] = true
			h.Record(conn, overlay.NodeID(i%3), 0, overlay.NodeID(op%5))
		}
		for succ := overlay.NodeID(0); succ < 5; succ++ {
			if h.Uses(0, succ) > len(conns) {
				return false
			}
			sigma := h.Selectivity(0, succ, int(k))
			if sigma < 0 || sigma > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeUsesAtDifferentiatesPositions(t *testing.T) {
	h := New(true)
	// Node 0 occupies two positions on recurring paths: after pred 4 it
	// forwards to 7; after pred 9 it forwards to 8.
	h.Record(1, 4, 0, 7)
	h.Record(1, 9, 0, 8)
	h.Record(2, 4, 0, 7)
	h.Record(2, 9, 0, 8)
	if got := h.UsesAt(4, 0, 7); got != 2 {
		t.Fatalf("UsesAt(4, 0, 7) = %d", got)
	}
	if got := h.UsesAt(9, 0, 7); got != 0 {
		t.Fatalf("UsesAt(9, 0, 7) = %d", got)
	}
	if got := h.UsesAt(4, 0, 8); got != 0 {
		t.Fatalf("UsesAt(4, 0, 8) = %d", got)
	}
	// Position-agnostic count sees both connections per successor.
	if got := h.Uses(0, 7); got != 2 {
		t.Fatalf("Uses(0, 7) = %d", got)
	}
	// A table made without positions keeps no position index.
	p := New(false)
	p.Record(1, 4, 0, 7)
	if got := p.UsesAt(4, 0, 7); got != 0 {
		t.Fatalf("position-free table: UsesAt = %d", got)
	}
}

func TestSelectivityAtDefinition(t *testing.T) {
	h := New(true)
	h.Record(1, 4, 0, 7)
	h.Record(2, 4, 0, 7)
	h.Record(3, 9, 0, 7) // same successor, different position
	// At position pred=4 for the 4th connection: 2 of 3 prior.
	if got, want := h.SelectivityAt(4, 0, 7, 4), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigma = %g, want %g", got, want)
	}
	// Unknown position: zero.
	if got := h.SelectivityAt(12, 0, 7, 4); got != 0 {
		t.Fatalf("sigma = %g", got)
	}
	if got := h.SelectivityAt(4, 0, 7, 1); got != 0 {
		t.Fatal("k<=1 selectivity should be 0")
	}
	// Clamp: more uses than k-1.
	if got := h.SelectivityAt(4, 0, 7, 2); got != 1 {
		t.Fatalf("sigma = %g, want clamp", got)
	}
}
