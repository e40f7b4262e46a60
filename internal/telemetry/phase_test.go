package telemetry

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// allocSink keeps test allocations observable by the runtime counters.
var allocSink []byte

func TestPhaseProfilerAccumulates(t *testing.T) {
	p := NewPhaseProfiler()
	for i := 0; i < 3; i++ {
		sp := p.Start(PhaseSolveInduction)
		allocSink = make([]byte, 64*1024)
		sp.End()
	}
	sp := p.Start(PhaseProbeTick)
	time.Sleep(time.Millisecond)
	sp.End()

	stats := p.Snapshot()
	if len(stats) != 2 {
		t.Fatalf("phases = %+v", stats)
	}
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Phase] = s
	}
	solve := byName[PhaseSolveInduction]
	if solve.Count != 3 {
		t.Fatalf("solve.induction count = %d, want 3", solve.Count)
	}
	if solve.Bytes < 3*64*1024 {
		t.Fatalf("solve.induction bytes = %d, want >= %d", solve.Bytes, 3*64*1024)
	}
	if solve.Objects < 3 {
		t.Fatalf("solve.induction objects = %d, want >= 3", solve.Objects)
	}
	tick := byName[PhaseProbeTick]
	if tick.Count != 1 || tick.NS < int64(time.Millisecond)/2 {
		t.Fatalf("probe.tick = %+v", tick)
	}
}

func TestPhaseProfilerDominantAndReport(t *testing.T) {
	p := NewPhaseProfiler()
	p.add(PhaseRouteWalk, 100, 10, 1)
	p.add(PhaseSolveInduction, 5000, 20, 2)
	p.add(PhaseSolveInduction, 5000, 20, 2)
	if got := p.Dominant(); got != PhaseSolveInduction {
		t.Fatalf("dominant = %q", got)
	}
	rep := p.Report()
	if rep.Dominant != PhaseSolveInduction || len(rep.Phases) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Phases[0].Phase != PhaseSolveInduction || rep.Phases[0].NS != 10000 || rep.Phases[0].Count != 2 {
		t.Fatalf("phases not sorted by time: %+v", rep.Phases)
	}

	var b bytes.Buffer
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back PhaseReport
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Dominant != PhaseSolveInduction {
		t.Fatalf("JSON round trip: %+v", back)
	}

	path := filepath.Join(t.TempDir(), "phases.json")
	if err := p.DumpJSON(path); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.Dominant() != "" || len(p.Snapshot()) != 0 {
		t.Fatal("reset did not clear totals")
	}
}

func TestPhaseProfilerInstrument(t *testing.T) {
	p := NewPhaseProfiler()
	reg := NewRegistry()
	p.Instrument(reg)
	p.Start(PhaseEscrowSettle).End()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		"# HELP sim_phase_seconds ",
		"# TYPE sim_phase_seconds histogram",
		`sim_phase_seconds_count{phase="escrow.settle"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestPhaseProfilerNilSafe(t *testing.T) {
	var p *PhaseProfiler
	p.Start(PhaseSolveInduction).End()
	p.Instrument(NewRegistry())
	p.Reset()
	if p.Snapshot() != nil || p.Dominant() != "" {
		t.Fatal("nil profiler not inert")
	}
	rep := p.Report()
	if rep.Dominant != "" || rep.Phases != nil {
		t.Fatalf("nil report = %+v", rep)
	}
	var zero PhaseSpan
	zero.End()
}
