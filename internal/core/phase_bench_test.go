package core

import (
	"fmt"
	"testing"

	"p2panon/internal/telemetry"
)

// BenchmarkPhaseBreakdown is the scale frontier with the phase profiler
// attached: one op = one topology invalidation, one probe round, one
// UM-II connection and one settlement, so every instrumented phase
// (solve.induction, probe.tick, overlay.candidates, route.walk,
// escrow.settle) is exercised per op. Each phase's
// accumulated wall time and allocation count are emitted as custom
// benchmark metrics (<phase>-ns/op, <phase>-allocs/op); bench.sh's
// phase tier turns the output into BENCH_PR7.json and CI gates the
// 10²–10⁴ points against the committed baseline.
func BenchmarkPhaseBreakdown(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sys, batch := scaleSystem(b, n, 11)
			batch.RunConnection() // warm caches outside the timed region
			prof := telemetry.NewPhaseProfiler()
			sys.Prof = prof
			sys.Probes.Prof = prof
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Net.Touch()
				sys.Probes.TickAll()
				batch.RunConnection()
				batch.Settle()
			}
			b.StopTimer()
			for _, st := range prof.Snapshot() {
				b.ReportMetric(float64(st.NS)/float64(b.N), st.Phase+"-ns/op")
				b.ReportMetric(float64(st.Objects)/float64(b.N), st.Phase+"-allocs/op")
			}
		})
	}
}
