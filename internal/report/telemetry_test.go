package report

import (
	"strings"
	"testing"

	"p2panon/internal/stats"
	"p2panon/internal/telemetry"
)

func TestHistogramEdgeCases(t *testing.T) {
	if got := Histogram("title", nil, 40); got != "title\n" {
		t.Fatalf("nil histogram = %q", got)
	}
	h := stats.NewHistogram(0, 10, 5)
	h.Add(1)
	h.Add(1)
	// Non-positive width must not panic in strings.Repeat.
	if got := Histogram("", h, 0); !strings.Contains(got, "#") {
		t.Fatalf("width 0 = %q", got)
	}
	if got := Histogram("", h, -3); got == "" {
		t.Fatal("negative width rendered nothing")
	}
}

func TestTelemetryTable(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("demo_total", telemetry.Labels{"result": "ok"}).Add(7)
	reg.Gauge("demo_depth", nil).Set(3)
	hist := reg.Histogram("demo_latency", telemetry.LinearBuckets(1, 1, 4), nil)
	hist.Observe(1)
	hist.Observe(2)

	tab := TelemetryTable("telemetry", reg.Snapshot())
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`demo_total{result="ok"}`, "demo_depth", "demo_latency", "7", "3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramChart(t *testing.T) {
	var empty telemetry.HistogramSnapshot
	if got := HistogramChart("t", empty, 30); got != "t\n" {
		t.Fatalf("empty chart = %q", got)
	}
	h := telemetry.HistogramSnapshot{
		Bounds: []float64{1, 2},
		Counts: []int64{3, 1, 0},
		Count:  4,
		Sum:    5,
	}
	out := HistogramChart("lat", h, 12)
	if !strings.Contains(out, "<=1") || !strings.Contains(out, "+Inf") {
		t.Fatalf("chart missing bucket labels:\n%s", out)
	}
	if !strings.Contains(out, "############") {
		t.Fatalf("modal bucket not full-width:\n%s", out)
	}
}
