package faultsim

import (
	"bytes"

	"p2panon/internal/telemetry"
)

// Result is everything one deterministic run produced: the causal span
// log, the invariant verdict and the headline counters. Nacks, Timeouts,
// Reformations and Stale are the driver's own instruments; Nacks counts
// NACKs generated, Stale replies that found their attempt already over.
// Sends and OfflineDrops are the network's sent and dropped messages:
// a fault-dropped message is not sent, a duplicated one is sent twice.
// Hops counts the FORWARDs the driver handed the fault layer.
type Result struct {
	Plan       Plan
	Violations []Violation

	Sends, OfflineDrops, Stale                    int64
	Launches, Hops, Nacks, Timeouts, Reformations int64
	Delivered, Failed, FaultsInjected             int64
	SettledBatches, SkippedBatches, FailedSettles int
	VirtualSeconds                                float64

	Spans       []telemetry.Span
	SpanDropped uint64
}

// OK reports whether every invariant held.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// SpanJSONL renders the causal span log as JSON lines in canonical order,
// readable by cmd/tracetool. Spans carry virtual-clock timestamps, and two
// runs of the same plan must render byte-identical output — that equality
// is the determinism guarantee, and the test suite asserts it.
func (r *Result) SpanJSONL() []byte {
	var buf bytes.Buffer
	if err := telemetry.WriteSpansJSONL(&buf, r.Spans); err != nil {
		// Span is a plain struct of scalars; encoding cannot fail.
		panic(err)
	}
	return buf.Bytes()
}

// Run executes the plan in a fresh deterministic world and checks every
// invariant. The error return is for unusable plans (validation, key
// generation); invariant failures land in Result.Violations.
func Run(p Plan) (*Result, error) {
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w, err := newWorld(p)
	if err != nil {
		return nil, err
	}
	w.run()

	m := w.drv.Metrics()
	res := &Result{
		Plan:           p,
		Sends:          m.Sent,
		OfflineDrops:   m.Dropped,
		Stale:          w.reg.Counter(metricStale, nil).Value(),
		Launches:       m.Connects + m.Failures,
		Hops:           w.forwards,
		Nacks:          m.Nacks,
		Timeouts:       m.Timeouts,
		Reformations:   m.Reformations,
		Delivered:      m.Connects,
		Failed:         m.Failures,
		FaultsInjected: w.cFaults.Value(),
		VirtualSeconds: float64(w.eng.Now()),
		Spans:          w.spans.Spans(),
		SpanDropped:    w.spans.Dropped(),
	}
	for _, rec := range w.batches {
		for _, c := range rec.conns {
			if c.refused {
				res.Launches++
				res.Failed++
			}
		}
		switch {
		case rec.settled:
			res.SettledBatches++
		case rec.skipped:
			res.SkippedBatches++
		default:
			res.FailedSettles++
		}
	}
	res.Violations = w.checkInvariants(res.Spans, res.SpanDropped)
	return res, nil
}
