package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// The simulation-loop phase taxonomy. Every instrumented stage of a
// batch run reports under one of these names, so phase breakdowns from
// benchmarks, live runs and the JSON report all speak the same
// vocabulary. Brackets do not subtract nested time: overlay.candidates
// runs inside route.walk, so the walk's total includes it — every other
// pair of phases is disjoint. The stage game's rows are built on demand
// inside the solve, one cone node at a time, so their cost is part of
// solve.induction: a bracket per row would cost more than the row.
const (
	PhaseSolveInduction    = "solve.induction"    // demand-driven SPNE solve at connection start, rows included
	PhaseProbeTick         = "probe.tick"         // probe estimator TickAll rounds
	PhaseOverlayCandidates = "overlay.candidates" // per-hop neighbor candidate gathering
	PhaseRouteWalk         = "route.walk"         // per-connection forwarding walk
	PhaseEscrowSettle      = "escrow.settle"      // post-batch escrow settlement
)

// allocSamples returns a fresh runtime/metrics sample set for the two
// monotonic allocation counters a phase delta subtracts.
func allocSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
}

// PhaseProfiler accumulates wall time and heap-allocation deltas per
// named phase. Start/End pairs bracket a stage; the profiler is nil-safe
// throughout, so instrumented code pays one branch when profiling is
// off. Allocation deltas come from the process-global monotonic
// /gc/heap/allocs counters (runtime/metrics — cheap to read, unlike
// ReadMemStats), so a phase that shards work across goroutines is
// charged for its workers too, which is exactly the attribution a
// phase breakdown wants. Overlapping phases on concurrent goroutines
// double-charge the overlap; the simulation loop runs its phases
// sequentially, so in practice deltas are exact.
type PhaseProfiler struct {
	mu     sync.Mutex
	phases map[string]*phaseTotals
	reg    *Registry
	hists  map[string]*Histogram
}

type phaseTotals struct {
	count int64
	ns    int64
	bytes int64
	objs  int64
}

// NewPhaseProfiler returns an empty profiler.
func NewPhaseProfiler() *PhaseProfiler {
	return &PhaseProfiler{phases: make(map[string]*phaseTotals)}
}

// Instrument mirrors every phase's duration into reg as the
// sim_phase_seconds{phase=...} histogram family. Nil-safe on both
// receiver and registry.
func (p *PhaseProfiler) Instrument(reg *Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.Help("sim_phase_seconds", "Wall time per simulation phase.")
	p.mu.Lock()
	p.reg = reg
	p.hists = make(map[string]*Histogram)
	p.mu.Unlock()
}

// PhaseSpan is one in-flight Start/End bracket. The zero value (from a
// nil profiler) ends as a no-op.
type PhaseSpan struct {
	p       *PhaseProfiler
	phase   string
	start   time.Time
	samples []metrics.Sample
}

// Start opens a bracket for phase. Nil-safe: a nil profiler returns a
// no-op span, costing only the nil check.
func (p *PhaseProfiler) Start(phase string) PhaseSpan {
	if p == nil {
		return PhaseSpan{}
	}
	s := PhaseSpan{p: p, phase: phase, samples: allocSamples()}
	metrics.Read(s.samples)
	s.start = time.Now()
	return s
}

// StartTimer opens a time-only bracket: no allocation sampling, so the
// per-bracket overhead is two clock reads. For fine-grained hot sites
// (per-hop candidate gathering) where two runtime/metrics reads would
// outweigh the phase body; such phases report zero Bytes/Objects.
func (p *PhaseProfiler) StartTimer(phase string) PhaseSpan {
	if p == nil {
		return PhaseSpan{}
	}
	return PhaseSpan{p: p, phase: phase, start: time.Now()}
}

// End closes the bracket, charging elapsed time and allocation deltas
// to the span's phase. Safe on the zero PhaseSpan.
func (s PhaseSpan) End() {
	if s.p == nil {
		return
	}
	ns := time.Since(s.start).Nanoseconds()
	var bytes, objs int64
	if s.samples != nil {
		after := allocSamples()
		metrics.Read(after)
		bytes = int64(after[0].Value.Uint64() - s.samples[0].Value.Uint64())
		objs = int64(after[1].Value.Uint64() - s.samples[1].Value.Uint64())
	}
	s.p.add(s.phase, ns, bytes, objs)
}

func (p *PhaseProfiler) add(phase string, ns, bytes, objs int64) {
	p.mu.Lock()
	t := p.phases[phase]
	if t == nil {
		t = &phaseTotals{}
		p.phases[phase] = t
	}
	t.count++
	t.ns += ns
	t.bytes += bytes
	t.objs += objs
	var h *Histogram
	if p.reg != nil {
		h = p.hists[phase]
		if h == nil {
			h = p.reg.Histogram("sim_phase_seconds", LogBuckets(1e-6, 4, 16), Labels{"phase": phase})
			p.hists[phase] = h
		}
	}
	p.mu.Unlock()
	h.Observe(float64(ns) / 1e9)
}

// PhaseStat is one phase's accumulated totals.
type PhaseStat struct {
	Phase   string `json:"phase"`
	Count   int64  `json:"count"`
	NS      int64  `json:"ns"`
	Bytes   int64  `json:"bytes"`
	Objects int64  `json:"objects"`
}

// Snapshot returns per-phase totals sorted by descending time (ties by
// name), so the dominant phase is first. Nil-safe (returns nil).
func (p *PhaseProfiler) Snapshot() []PhaseStat {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]PhaseStat, 0, len(p.phases))
	for name, t := range p.phases {
		out = append(out, PhaseStat{Phase: name, Count: t.count, NS: t.ns, Bytes: t.bytes, Objects: t.objs})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].NS != out[j].NS {
			return out[i].NS > out[j].NS
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// Dominant returns the phase with the most accumulated time, or "" when
// nothing was recorded. Nil-safe.
func (p *PhaseProfiler) Dominant() string {
	s := p.Snapshot()
	if len(s) == 0 {
		return ""
	}
	return s[0].Phase
}

// Reset clears all accumulated totals (registry histograms are left
// alone). Nil-safe.
func (p *PhaseProfiler) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phases = make(map[string]*phaseTotals)
	p.mu.Unlock()
}

// PhaseReport is the JSON document a phase-breakdown run exports: the
// per-phase totals plus the name of the dominant (most expensive) phase.
type PhaseReport struct {
	Dominant string      `json:"dominant"`
	Phases   []PhaseStat `json:"phases"`
}

// Report builds the breakdown document. Nil-safe (returns the zero
// report).
func (p *PhaseProfiler) Report() PhaseReport {
	return PhaseReport{Dominant: p.Dominant(), Phases: p.Snapshot()}
}

// WriteJSON writes the indented report document. Nil-safe.
func (p *PhaseProfiler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Report())
}

// DumpJSON writes the report to the named file (truncating). Nil-safe.
func (p *PhaseProfiler) DumpJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
