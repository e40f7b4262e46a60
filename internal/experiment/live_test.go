package experiment

import (
	"testing"

	"p2panon/internal/core"
	"p2panon/internal/netwire"
	"p2panon/internal/transport"
)

func TestRunLiveUnderChurn(t *testing.T) {
	s := DefaultLive()
	s.Seed = 7
	out, err := RunLive(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed == 0 {
		t.Fatal("no connection completed")
	}
	if len(out.Removed) != s.Removals {
		t.Fatalf("removed %d peers, want %d", len(out.Removed), s.Removals)
	}
	// Removing the busiest forwarders mid-run must force at least one
	// reformation (the whole point of the churn study).
	if out.Reformations == 0 {
		t.Fatal("no reformations despite mid-run removals")
	}
	if out.ReformationRate <= 0 {
		t.Fatalf("reformation rate %g", out.ReformationRate)
	}
	if out.Metrics.Reformations != int64(out.Reformations) {
		t.Fatalf("metrics reformations %d != outcome %d",
			out.Metrics.Reformations, out.Reformations)
	}
	if out.Metrics.Dropped == 0 && out.Metrics.Nacks == 0 {
		t.Fatal("removals produced neither drops nor NACKs")
	}
	var perPair int
	for _, b := range out.Outcomes {
		perPair += b.Reformations
	}
	if perPair != out.Reformations {
		t.Fatalf("per-pair reformation sum %d != total %d", perPair, out.Reformations)
	}
}

func TestRunLiveNoChurnNoReformations(t *testing.T) {
	s := DefaultLive()
	s.Removals = 0
	s.Seed = 11
	out, err := RunLive(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("%d failures on a static network", out.Failed)
	}
	if out.Reformations != 0 {
		t.Fatalf("%d reformations without churn", out.Reformations)
	}
	if len(out.Removed) != 0 {
		t.Fatalf("removed %v with Removals=0", out.Removed)
	}
}

func TestRunLiveRejectsUnsupported(t *testing.T) {
	s := DefaultLive()
	s.Strategy = core.FixedPath
	if _, err := RunLive(s); err == nil {
		t.Fatal("FixedPath accepted for live replay")
	}
	s = DefaultLive()
	s.N = 2
	if _, err := RunLive(s); err == nil {
		t.Fatal("tiny network accepted")
	}
}

// TestRunLiveOverTCP replays the live churn study over the netwire TCP
// loopback backend via the NewConductor hook: the same workload, routers
// and mid-run removals, but every hop crossing a real socket. The study
// must complete connections and account them in the (netwire-backed)
// metrics snapshot exactly like the in-process run.
func TestRunLiveOverTCP(t *testing.T) {
	s := DefaultLive()
	s.N, s.Degree = 16, 5
	s.Pairs, s.Transmissions, s.MaxConnections = 4, 16, 4
	s.Removals = 1
	s.Seed = 3
	s.NewConductor = func() transport.Conductor {
		return netwire.NewCluster(netwire.Config{})
	}
	out, err := RunLive(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed == 0 {
		t.Fatal("no connection completed over TCP")
	}
	if len(out.Removed) != s.Removals {
		t.Fatalf("removed %d peers, want %d", len(out.Removed), s.Removals)
	}
	if out.Metrics.Connects != int64(out.Completed) {
		t.Fatalf("netwire metrics connects %d != completed %d", out.Metrics.Connects, out.Completed)
	}
	if out.Metrics.Failures != int64(out.Failed) {
		t.Fatalf("netwire metrics failures %d != failed %d", out.Metrics.Failures, out.Failed)
	}
}
