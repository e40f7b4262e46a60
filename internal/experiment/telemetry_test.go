package experiment

import (
	"testing"

	"p2panon/internal/telemetry"
)

func counterValue(snap telemetry.Snapshot, name string, labels map[string]string) int64 {
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if c.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return c.Value
		}
	}
	return 0
}

func TestRunWithTelemetry(t *testing.T) {
	s := Quick()
	s.Telemetry = telemetry.NewRegistry()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Telemetry.Snapshot()
	if got := counterValue(snap, metricSimConnections, map[string]string{"result": "ok"}); got == 0 {
		t.Fatalf("no ok connections counted (result had %d batches)", len(res.Batches))
	}
	// Even a static run joins N nodes, which are online transitions.
	if got := counterValue(snap, "overlay_churn_total", map[string]string{"state": "online"}); got < int64(s.N) {
		t.Fatalf("overlay_churn_total{state=online} = %d, want >= %d", got, s.N)
	}
	if got := counterValue(snap, "probe_ticks_total", nil); got == 0 {
		t.Fatal("probe ticks not counted")
	}
	var setSizeCount int64
	for _, h := range snap.Histograms {
		if h.Name == metricSimSetSize {
			setSizeCount = h.Count
		}
	}
	if setSizeCount != int64(len(res.Batches)) {
		t.Fatalf("sim_batch_set_size count = %d, want %d batches", setSizeCount, len(res.Batches))
	}
}

func TestRunUninstrumentedIsNoOp(t *testing.T) {
	// Telemetry nil must not change behaviour: same seed, same outcome.
	a, err := Run(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := Quick()
	s.Telemetry = telemetry.NewRegistry()
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Batches) != len(b.Batches) || a.AvgGoodPayoff().Mean != b.AvgGoodPayoff().Mean {
		t.Fatalf("instrumentation changed the run: %d/%v vs %d/%v",
			len(a.Batches), a.AvgGoodPayoff().Mean, len(b.Batches), b.AvgGoodPayoff().Mean)
	}
}

func TestRunLiveWithTelemetryAndTracer(t *testing.T) {
	s := DefaultLive()
	s.Pairs, s.Transmissions, s.MaxConnections = 4, 16, 4
	s.Removals = 1
	s.Telemetry = telemetry.NewRegistry()
	s.Spans = telemetry.NewSpanRecorder(4096)
	out, err := RunLive(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed == 0 {
		t.Fatal("live replay completed nothing")
	}
	// Windowed metrics still satisfy the per-run identities.
	if out.Metrics.Connects != int64(out.Completed) {
		t.Fatalf("windowed connects %d != completed %d", out.Metrics.Connects, out.Completed)
	}
	if out.Metrics.ConnectLatency.Count != int64(out.Completed) {
		t.Fatalf("latency observations %d != completed %d", out.Metrics.ConnectLatency.Count, out.Completed)
	}
	// The span log is the same run's lifecycle record: one deliver per
	// completed connection, at least one launch each, nothing dropped.
	var launches, delivered int
	for _, sp := range s.Spans.Spans() {
		switch sp.Kind {
		case telemetry.SpanLaunch:
			launches++
		case telemetry.SpanDeliver:
			delivered++
		}
	}
	if launches < delivered || delivered != out.Completed || s.Spans.Dropped() != 0 {
		t.Fatalf("span log holds %d launches, %d delivers (completed %d, dropped %d)",
			launches, delivered, out.Completed, s.Spans.Dropped())
	}
}
