package trace

import (
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
)

func testNet(t *testing.T, n int) *overlay.Network {
	t.Helper()
	net := overlay.NewNetwork(5, dist.NewSource(1))
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	return net
}

func TestDefaultWorkloadMatchesPaper(t *testing.T) {
	w := DefaultWorkload()
	if w.Pairs != 100 || w.Transmissions != 2000 || w.MaxConnections != 20 {
		t.Fatalf("defaults %+v", w)
	}
	if w.PfLo != 50 || w.PfHi != 100 {
		t.Fatalf("P_f range [%g, %g]", w.PfLo, w.PfHi)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Workload{
		{Pairs: 0, Transmissions: 10, MaxConnections: 5, PfLo: 1, PfHi: 2},
		{Pairs: 10, Transmissions: 5, MaxConnections: 5, PfLo: 1, PfHi: 2},
		{Pairs: 10, Transmissions: 100, MaxConnections: 0, PfLo: 1, PfHi: 2},
		{Pairs: 10, Transmissions: 100, MaxConnections: 5, PfLo: 0, PfHi: 2},
		{Pairs: 10, Transmissions: 100, MaxConnections: 5, PfLo: 5, PfHi: 2},
		{Pairs: 10, Transmissions: 100, MaxConnections: 5, PfLo: 1, PfHi: 2, Tau: -1},
		{Pairs: 10, Transmissions: 100, MaxConnections: 5, PfLo: 1, PfHi: 2, MeanGap: -1},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, w)
		}
	}
}

func TestGenerateDistinctEndpoints(t *testing.T) {
	net := testNet(t, 40)
	w := DefaultWorkload()
	pairs, err := w.Generate(net, dist.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 100 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for _, p := range pairs {
		if p.Initiator == p.Responder {
			t.Fatalf("pair %d: I == R == %d", p.Index, p.Initiator)
		}
		if !net.Online(p.Initiator) || !net.Online(p.Responder) {
			t.Fatalf("pair %d uses offline node", p.Index)
		}
	}
}

func TestGenerateContracts(t *testing.T) {
	net := testNet(t, 40)
	w := DefaultWorkload()
	w.Tau = 4
	pairs, err := w.Generate(net, dist.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Contract.Pf < 50 || p.Contract.Pf >= 100 {
			t.Fatalf("P_f = %g out of range", p.Contract.Pf)
		}
		if tau := p.Contract.Pr / p.Contract.Pf; tau < 3.999 || tau > 4.001 {
			t.Fatalf("tau = %g", tau)
		}
	}
}

func TestConnectionBudgetExact(t *testing.T) {
	net := testNet(t, 40)
	w := DefaultWorkload()
	pairs, err := w.Generate(net, dist.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalConnections(pairs); got != 2000 {
		t.Fatalf("total connections %d, want 2000", got)
	}
	for _, p := range pairs {
		if p.Connections < 1 || p.Connections > w.MaxConnections {
			t.Fatalf("pair %d has %d connections", p.Index, p.Connections)
		}
	}
}

func TestConnectionBudgetUnevenRemainder(t *testing.T) {
	net := testNet(t, 20)
	w := Workload{Pairs: 7, Transmissions: 45, MaxConnections: 20, PfLo: 50, PfHi: 100, Tau: 1}
	pairs, err := w.Generate(net, dist.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalConnections(pairs); got != 45 {
		t.Fatalf("total = %d", got)
	}
}

func TestConnectionBudgetClampedAtCap(t *testing.T) {
	net := testNet(t, 20)
	// 5 pairs × cap 4 = 20 max, but 100 requested: everything clamps.
	w := Workload{Pairs: 5, Transmissions: 100, MaxConnections: 4, PfLo: 50, PfHi: 100, Tau: 1}
	pairs, err := w.Generate(net, dist.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Connections != 4 {
			t.Fatalf("pair %d connections %d, want cap 4", p.Index, p.Connections)
		}
	}
	if got := TotalConnections(pairs); got != 20 {
		t.Fatalf("total = %d, want 20 (capped)", got)
	}
}

func TestGenerateNeedsTwoNodes(t *testing.T) {
	net := testNet(t, 1)
	w := DefaultWorkload()
	if _, err := w.Generate(net, dist.NewSource(7)); err == nil {
		t.Fatal("single-node workload accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	gen := func() []Pair {
		net := testNet(t, 40)
		pairs, err := DefaultWorkload().Generate(net, dist.NewSource(42))
		if err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	pairs := []Pair{
		{Index: 0, Connections: 3},
		{Index: 1, Connections: 1},
		{Index: 2, Connections: 2},
	}
	sched := Interleave(pairs)
	if len(sched) != TotalConnections(pairs) {
		t.Fatalf("schedule length %d, want %d", len(sched), TotalConnections(pairs))
	}
	want := []Connection{{0, 1}, {1, 1}, {2, 1}, {0, 2}, {2, 2}, {0, 3}}
	for i := range want {
		if sched[i] != want[i] {
			t.Fatalf("slot %d = %v, want %v", i, sched[i], want[i])
		}
	}
	// Per-pair connection numbers must stay ordered.
	last := map[int]int{}
	for _, c := range sched {
		if c.Conn != last[c.Pair]+1 {
			t.Fatalf("pair %d jumps to connection %d after %d", c.Pair, c.Conn, last[c.Pair])
		}
		last[c.Pair] = c.Conn
	}
	if Interleave(nil) != nil {
		t.Fatal("empty workload produced a schedule")
	}
}
