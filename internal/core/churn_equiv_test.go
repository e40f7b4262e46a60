package core

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
	"p2panon/internal/telemetry"
)

// runSingleEventScript drives one system through a churn script built
// from single-node events — individual Leave/Rejoin, one-node neighbor
// repairs, single estimator ticks — plus one round in which a node joins
// (a newcomer has no estimator, so that round exercises when and in what
// order a solve creates them). Each event invalidates a handful of base
// rows where TestSparseDenseEquivalence's TickAll rounds invalidate all of
// them. Every round's connection and the full table after it are held to
// the dense oracle, so a divergence is pinned to the exact event that
// introduced it.
func runSingleEventScript(t *testing.T, label string, n int, seed uint64) *equivRun {
	t.Helper()
	sys := equivSystem(t, n, seed)
	b, err := sys.NewBatch(0, overlay.NodeID(n-1), Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		t.Fatal(err)
	}
	script := dist.NewSource(seed ^ 0x9e3779b97f4a7c15)
	out := &equivRun{}
	now := sim.Time(0)
	for round := 0; round < 30; round++ {
		now += 60
		if round == 15 {
			sys.Net.Join(now, false)
		}
		switch script.Intn(5) {
		case 0: // one non-endpoint node drops offline
			ids := sys.Net.OnlineIDs()
			id := ids[script.Intn(len(ids))]
			if id != b.Initiator && id != b.Responder {
				sys.Net.Leave(now, id, false)
			}
		case 1: // the first offline node comes back
			for _, id := range sys.Net.AllIDs() {
				if sys.Net.Node(id).State == overlay.Offline {
					sys.Net.Rejoin(now, id)
					break
				}
			}
		case 2: // one node repairs its neighbor set
			ids := sys.Net.OnlineIDs()
			sys.Net.RefreshNeighbors(ids[script.Intn(len(ids))])
		case 3: // one node's availability estimator ticks
			ids := sys.Net.OnlineIDs()
			sys.Probes.For(ids[script.Intn(len(ids))]).Tick()
		case 4: // quiet round: only history/k movement invalidates
		}
		out.runConnection(t, label, b)
		requireOracleTable(t, fmt.Sprintf("%s round %d", label, round), b)
	}
	requireOraclePayoffs(t, label, b, out)
	return out
}

// TestSingleEventChurnEquivalence is the base-row property test: under a
// seeded single-event churn script the demand-driven solver — cones over
// lazily specialised, individually revalidated base rows — must reproduce
// the cold dense oracle bit for bit after every event: identical cells
// for every (i, h), paths, edge qualities and settled payoffs.
func TestSingleEventChurnEquivalence(t *testing.T) {
	cases := []struct {
		n    int
		seed uint64
	}{
		{60, 7},
		{200, 99},
		{400, 2026},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("N=%d/seed=%d", tc.n, tc.seed)
		requireSmallCones(t, label, tc.n, runSingleEventScript(t, label, tc.n, tc.seed))
	}
}

// TestSolveMetricsExposition scrapes a real /metrics endpoint after a
// churn-heavy run and asserts the solver families are exposed with
// exactly the documented label sets — the contract the ROADMAP's
// telemetry item promises dashboards.
func TestSolveMetricsExposition(t *testing.T) {
	sys, b := scaleSystem(t, 300, 13)
	reg := telemetry.NewRegistry()
	sys.Instrument(reg)
	b.RunConnection()
	now := sim.Time(0)
	for i := 0; i < 8; i++ {
		now += 60
		id := overlay.NodeID(1 + i)
		sys.Net.Leave(now, id, false)
		b.RunConnection()
		now += 60
		sys.Net.Rejoin(now, id)
		b.RunConnection()
	}
	// Nothing moved since the last ask: the memo is reused, and a larger
	// budget only extends it.
	b.spneTable(b.Initiator, 2)
	b.spneTable(b.Initiator, 3)

	srv, err := telemetry.Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body := string(raw)

	for _, family := range []string{metricSolveCells, metricSolveMemo} {
		if !strings.Contains(body, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE for %s", family)
		}
	}
	st := sys.SolverStats()
	for series, want := range map[string]int{
		metricSolveCells:                      st.FrontierCells,
		metricSolveMemo + `{result="reused"}`: st.Incremental,
		metricSolveMemo + `{result="reset"}`:  st.Solves,
	} {
		if !strings.Contains(body, fmt.Sprintf("\n%s %d\n", series, want)) {
			t.Errorf("series %s does not read %d", series, want)
		}
	}

	// The scripted run above must be visible in the stats the series
	// mirror: every churn round reset the memo, discarding the previous
	// round's, the closing asks reused it, and the cones stayed far below
	// the full table.
	if st.Solves != 18 || st.Fallbacks != 17 {
		t.Errorf("18 connections over moving inputs made %d resets, %d of a filled memo", st.Solves, st.Fallbacks)
	}
	if st.Incremental == 0 {
		t.Error("asks over unchanged inputs did not reuse the memo")
	}
	if full := st.Solves * (sys.cfg.MaxHops + 1) * sys.Net.Len(); st.FrontierCells == 0 || st.FrontierCells >= full/2 {
		t.Errorf("%d cells computed; %d full tables hold %d", st.FrontierCells, st.Solves, full)
	}
}
