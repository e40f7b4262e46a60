package telemetry

import (
	"testing"
)

// The instrument micro-benchmarks bound the per-event cost the transport
// hot path pays; DESIGN.md §3b quotes them next to the end-to-end
// instrumented-vs-bare transport benchmark.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("x_total", nil)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterAddNil(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("lat", LogBuckets(1e-6, 2, 20), nil)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-5)
			i++
		}
	})
}
