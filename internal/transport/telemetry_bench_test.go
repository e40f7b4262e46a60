package transport

import (
	"testing"
	"time"

	"p2panon/internal/dist"
	"p2panon/internal/telemetry"
)

// benchConnect drives repeated end-to-end connects over a 12-node line
// with zero link latency, so every message pays the full hot path — send,
// queue depth note, span emission, histogram observations at completion —
// with nothing to hide behind. Comparing the three variants bounds the
// telemetry overhead quoted in DESIGN.md §3b: Bare is the default private
// registry, MetricsOnly rebinds into a shared registry (the -metrics-addr
// configuration), Traced adds the span recorder on top (the -span-out
// configuration, ~14 spans per connect here), sized so it never drops.
func benchConnect(b *testing.B, reg *telemetry.Registry, traced bool) {
	topo := lineTopology(12)
	router := NewRandomRouter(topo, dist.NewSource(7))
	net := NewNetwork(0)
	defer net.Close()
	for id := range topo {
		if err := net.Join(id, router); err != nil {
			b.Fatal(err)
		}
	}
	net.Instrument(reg)
	if traced {
		net.SetSpans(telemetry.NewSpanRecorder(32*b.N + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.ConnectDetail(0, 11, 1, i, 16, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	if d := net.Spans().Dropped(); d != 0 {
		b.Fatalf("recorder dropped %d spans; the traced variant must measure recording", d)
	}
}

func BenchmarkConnectBare(b *testing.B) { benchConnect(b, nil, false) }
func BenchmarkConnectMetricsOnly(b *testing.B) {
	benchConnect(b, telemetry.NewRegistry(), false)
}
func BenchmarkConnectTraced(b *testing.B) {
	benchConnect(b, telemetry.NewRegistry(), true)
}
