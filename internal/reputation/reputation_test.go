package reputation

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
)

func TestTablePriorAndReports(t *testing.T) {
	tab := NewTable(1)
	if tab.Score(5) != 1 {
		t.Fatalf("prior %g", tab.Score(5))
	}
	tab.Report(5, 3)
	if tab.Score(5) != 4 {
		t.Fatalf("score %g", tab.Score(5))
	}
	tab.Report(5, -100)
	if got := tab.Score(5); got > 1e-5 || got <= 0 {
		t.Fatalf("floor not applied: %g", got)
	}
}

func TestTablePanicsOnBadPrior(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTable(0)
}

func TestSubjectsSorted(t *testing.T) {
	tab := NewTable(1)
	tab.Report(9, 1)
	tab.Report(2, 1)
	tab.Report(5, 1)
	got := tab.Subjects()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("subjects %v", got)
	}
}

func TestSelectWeightedFavoursHighScore(t *testing.T) {
	tab := NewTable(1)
	tab.Report(1, 99) // score 100 vs prior 1
	rng := dist.NewSource(3)
	counts := map[overlay.NodeID]int{}
	for i := 0; i < 10000; i++ {
		counts[tab.SelectWeighted(rng, []overlay.NodeID{1, 2})]++
	}
	frac := float64(counts[1]) / 10000
	if math.Abs(frac-100.0/101.0) > 0.02 {
		t.Fatalf("high-score selection rate %g", frac)
	}
}

func TestSelectWeightedPanicsOnEmpty(t *testing.T) {
	tab := NewTable(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tab.SelectWeighted(dist.NewSource(1), nil)
}

func TestCoalitionInflate(t *testing.T) {
	tab := NewTable(1)
	c := NewCoalition([]overlay.NodeID{1, 2, 3}, 2)
	n := c.Inflate(tab)
	if n != 6 { // 3 members × 2 others
		t.Fatalf("reports %d", n)
	}
	for _, id := range []overlay.NodeID{1, 2, 3} {
		if got := tab.Score(id); got != 5 { // 1 + 2 peers × boost 2
			t.Fatalf("member %d score %g", id, got)
		}
	}
	if tab.Score(9) != 1 {
		t.Fatal("outsider score changed")
	}
	if !c.Contains(1) || c.Contains(9) || c.Members() != 3 {
		t.Fatal("membership wrong")
	}
}

func buildNet(t *testing.T, n int, seed uint64) *overlay.Network {
	t.Helper()
	net := overlay.NewNetwork(5, dist.NewSource(seed))
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	return net
}

func TestCaptureGrowsWithCollusion(t *testing.T) {
	// The paper's claim: colluders inflate their reputation and capture a
	// share of the forwarding slots far above their population share.
	net := buildNet(t, 40, 1)
	members := []overlay.NodeID{0, 1, 2, 3} // 10% of nodes
	rng := dist.NewSource(2)

	honest := &CaptureSim{
		Net:       net,
		Table:     NewTable(1),
		Coalition: NewCoalition(members, 0), // no fake reports
		Rng:       rng.Split(),
		Hops:      4,
	}
	hres, err := honest.Run(200)
	if err != nil {
		t.Fatal(err)
	}

	colluding := &CaptureSim{
		Net:       net,
		Table:     NewTable(1),
		Coalition: NewCoalition(members, 5),
		Rng:       rng.Split(),
		Hops:      4,
	}
	cres, err := colluding.Run(200)
	if err != nil {
		t.Fatal(err)
	}

	// Without collusion the coalition holds roughly its population share.
	popShare := 4.0 / 38.0 // 4 of ~38 eligible relays
	if math.Abs(hres.Overall-popShare) > 0.08 {
		t.Fatalf("honest capture %g far from population share %g", hres.Overall, popShare)
	}
	// With collusion, late-run capture must be dramatically higher.
	if cres.Late < 2*popShare {
		t.Fatalf("colluding late capture %g did not inflate (share %g)", cres.Late, popShare)
	}
	if cres.Late <= hres.Late {
		t.Fatalf("collusion did not help: %g vs %g", cres.Late, hres.Late)
	}
}

func TestCaptureCompoundsOverTime(t *testing.T) {
	net := buildNet(t, 40, 3)
	sim := &CaptureSim{
		Net:       net,
		Table:     NewTable(1),
		Coalition: NewCoalition([]overlay.NodeID{0, 1, 2, 3}, 5),
		Rng:       dist.NewSource(4),
		Hops:      4,
	}
	res, err := sim.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Late <= res.Overall {
		t.Fatalf("capture did not compound: late %g <= overall %g", res.Late, res.Overall)
	}
}

func TestCaptureSimValidation(t *testing.T) {
	net := buildNet(t, 5, 5)
	sim := &CaptureSim{
		Net:       net,
		Table:     NewTable(1),
		Coalition: NewCoalition(nil, 0),
		Rng:       dist.NewSource(1),
		Hops:      0,
	}
	if _, err := sim.Run(1); err == nil {
		t.Fatal("hops=0 accepted")
	}
	sim.Hops = 10 // more hops than nodes
	if _, err := sim.Run(1); err == nil {
		t.Fatal("oversized hops accepted")
	}
}

// Property: scores are always >= floor and selection always returns a
// candidate from the list.
func TestQuickTableInvariants(t *testing.T) {
	rng := dist.NewSource(7)
	f := func(deltas []int8) bool {
		tab := NewTable(1)
		for i, d := range deltas {
			tab.Report(overlay.NodeID(i%5), float64(d))
			if tab.Score(overlay.NodeID(i%5)) <= 0 {
				return false
			}
		}
		cands := []overlay.NodeID{0, 1, 2, 3, 4}
		pick := tab.SelectWeighted(rng, cands)
		return pick >= 0 && pick <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Subjects returns all explicitly scored subjects, ascending.
func (t *Table) Subjects() []overlay.NodeID {
	out := make([]overlay.NodeID, 0, len(t.scores))
	for id := range t.scores {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Members returns the coalition size.
func (c *Coalition) Members() int { return len(c.members) }
