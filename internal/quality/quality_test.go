package quality

import (
	"math"
	"testing"
	"testing/quick"

	"p2panon/internal/overlay"
)

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Weights{0.3, 0.7}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Weights{
		{0.5, 0.6},
		{-0.1, 1.1},
		{1.2, -0.2},
		{0, 0},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("weights %+v validated", w)
		}
	}
}

func TestEdgeFormula(t *testing.T) {
	w := Weights{Selectivity: 0.5, Availability: 0.5}
	if got := w.Edge(1, 0); got != 0.5 {
		t.Fatalf("Edge(1,0) = %g", got)
	}
	if got := w.Edge(0.4, 0.8); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("Edge = %g", got)
	}
	w2 := Weights{Selectivity: 0.25, Availability: 0.75}
	if got := w2.Edge(1, 1); got != 1 {
		t.Fatalf("Edge(1,1) = %g", got)
	}
}

func TestEdgeClamps(t *testing.T) {
	w := DefaultWeights()
	if got := w.Edge(3, 3); got != 1 {
		t.Fatalf("over-range not clamped: %g", got)
	}
	if got := w.Edge(-3, -3); got != 0 {
		t.Fatalf("under-range not clamped: %g", got)
	}
}

func TestPathQuality(t *testing.T) {
	if got := PathQuality(4, 8); got != 0.5 {
		t.Fatalf("Q = %g", got)
	}
	if got := PathQuality(4, 0); got != 4 {
		t.Fatalf("Q with empty set = %g", got)
	}
}

func TestForwarderSetBasics(t *testing.T) {
	fs := NewForwarderSet()
	if fs.Size() != 0 || fs.Paths() != 0 || fs.AvgLen() != 0 {
		t.Fatal("fresh set not empty")
	}
	fs.AddPath([]overlay.NodeID{1, 2, 3}, 4)
	fs.AddPath([]overlay.NodeID{2, 3, 4}, 4)
	if fs.Size() != 4 {
		t.Fatalf("size = %d", fs.Size())
	}
	if fs.AvgLen() != 4 {
		t.Fatalf("avg len = %g", fs.AvgLen())
	}
	if fs.Paths() != 2 {
		t.Fatalf("paths = %d", fs.Paths())
	}
	if !fs.Contains(1) || fs.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if got := fs.Quality(); got != 1 {
		t.Fatalf("quality = %g", got)
	}
}

func TestForwarderSetStableRouting(t *testing.T) {
	// The Figure 2 scenario: the same 3 forwarders across all connections
	// keeps ‖π‖ = 3 and quality = L/3.
	fs := NewForwarderSet()
	for i := 0; i < 20; i++ {
		fs.AddPath([]overlay.NodeID{1, 2, 3}, 4)
	}
	if fs.Size() != 3 {
		t.Fatalf("size = %d", fs.Size())
	}
	if got, want := fs.Quality(), 4.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quality = %g, want %g", got, want)
	}
}

func TestForwarderSetMembersComplete(t *testing.T) {
	fs := NewForwarderSet()
	fs.AddPath([]overlay.NodeID{5, 9}, 3)
	m := fs.Members()
	if len(m) != 2 {
		t.Fatalf("members = %v", m)
	}
	seen := map[overlay.NodeID]bool{}
	for _, id := range m {
		seen[id] = true
	}
	if !seen[5] || !seen[9] {
		t.Fatalf("members = %v", m)
	}
}

// A member that holds the payload twice on one path, as a node on a
// cycle does, forwards twice: m counts occurrences, ‖π‖ distinct members.
func TestForwarderSetCountsEachInstance(t *testing.T) {
	fs := NewForwarderSet()
	fs.AddPath([]overlay.NodeID{4, 7, 4}, 4)
	fs.AddPath([]overlay.NodeID{7}, 2)
	if fs.Size() != 2 {
		t.Fatalf("size = %d", fs.Size())
	}
	for id, want := range map[overlay.NodeID]int{4: 2, 7: 2, 9: 0} {
		if got := fs.Forwards(id); got != want {
			t.Errorf("Forwards(%d) = %d, want %d", id, got, want)
		}
	}
}

// Property: edge quality is within [0,1] for any valid weight split and
// in-range inputs.
func TestQuickEdgeBounds(t *testing.T) {
	f := func(wRaw, sRaw, aRaw uint8) bool {
		ws := float64(wRaw) / 255
		w := Weights{Selectivity: ws, Availability: 1 - ws}
		sigma := float64(sRaw) / 255
		alpha := float64(aRaw) / 255
		q := w.Edge(sigma, alpha)
		return q >= 0 && q <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: edge quality is monotone in both selectivity and availability.
func TestQuickEdgeMonotone(t *testing.T) {
	f := func(wRaw, sRaw, aRaw, dRaw uint8) bool {
		ws := float64(wRaw) / 255
		w := Weights{Selectivity: ws, Availability: 1 - ws}
		sigma := float64(sRaw) / 255
		alpha := float64(aRaw) / 255
		d := float64(dRaw) / 255 * (1 - sigma)
		d2 := float64(dRaw) / 255 * (1 - alpha)
		return w.Edge(sigma+d, alpha) >= w.Edge(sigma, alpha)-1e-12 &&
			w.Edge(sigma, alpha+d2) >= w.Edge(sigma, alpha)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: forwarder-set size never exceeds the total forwarder slots
// added and quality falls as distinct forwarders grow for fixed L.
func TestQuickForwarderSetSize(t *testing.T) {
	f := func(paths [][3]uint8) bool {
		fs := NewForwarderSet()
		slots := 0
		for _, p := range paths {
			ids := []overlay.NodeID{overlay.NodeID(p[0]), overlay.NodeID(p[1]), overlay.NodeID(p[2])}
			fs.AddPath(ids, 4)
			slots += 3
		}
		return fs.Size() <= slots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Contains reports whether id ever forwarded for this batch.
func (fs *ForwarderSet) Contains(id overlay.NodeID) bool {
	_, ok := fs.members[id]
	return ok
}

// Paths returns the number of connections recorded.
func (fs *ForwarderSet) Paths() int { return fs.paths }
