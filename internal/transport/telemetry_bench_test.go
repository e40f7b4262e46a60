package transport

import (
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
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

// BenchmarkConnectUM1 is one connection of the inproc_um1_blind workload
// without its settlement: 32 in-process peers of degree 6 sharing one
// Model-I router, hop budget 5, batches of 10 connections between a
// seeded (I, R) pair, each batch closed by SettleBatch. One op is one
// connection, so the UM-I hop — the router's history and choice, and the
// message crossing the FIFO — is what it times.
func BenchmarkConnectUM1(b *testing.B) {
	const nodes, perBatch = 32, 10
	topo := buildTopo(nodes, 6, 3)
	contract := core.Contract{Pf: 1, Pr: 10}
	router := NewUtilityRouter(topo, quality.DefaultWeights(), contract, uniformAvail(nodes))
	net := NewNetwork(0)
	defer net.Close()
	for id := range topo {
		if err := net.Join(id, router); err != nil {
			b.Fatal(err)
		}
	}
	rng := dist.NewSource(11)
	var out *BatchOutcome
	var i, r overlay.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		batch, conn := n/perBatch+1, n%perBatch+1
		if conn == 1 {
			i = overlay.NodeID(rng.Intn(nodes))
			r = (i + 1 + overlay.NodeID(rng.Intn(nodes-1))) % nodes
			out = NewBatchOutcome()
		}
		path, _, err := net.ConnectDetail(i, r, batch, conn, 5, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		out.Record(path, i)
		if conn == perBatch || n == b.N-1 {
			if _, err := net.SettleBatch(i, batch, out, contract); err != nil {
				b.Fatal(err)
			}
		}
	}
}
