package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", nil)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", nil)
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax = %d, want 9", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	g.Add(1)
	h.Observe(1)
	r.Help("x", "y")
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if r.Counter("x", nil) != nil || r.Gauge("x", nil) != nil || r.Histogram("x", []float64{1}, nil) != nil {
		t.Fatal("nil registry returned a non-nil instrument")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", Labels{"result": "ok"})
	b := r.Counter("x_total", Labels{"result": "ok"})
	if a != b {
		t.Fatal("same (name, labels) produced distinct counters")
	}
	other := r.Counter("x_total", Labels{"result": "fail"})
	if a == other {
		t.Fatal("different labels shared one counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", Labels{"result": "ok"})
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(LogBuckets(1, 2, 4)) // bounds 1 2 4 8
	for _, v := range []float64{0.5, 1, 1.5, 3, 8, 9, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1: {0.5, 1}; le=2: {1.5}; le=4: {3}; le=8: {8}; +Inf: {9}. NaN dropped.
	want := []int64{2, 1, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if got := s.Sum; math.Abs(got-23) > 1e-9 {
		t.Fatalf("sum = %g, want 23", got)
	}
	if m := s.Mean(); math.Abs(m-23.0/6) > 1e-9 {
		t.Fatalf("mean = %g", m)
	}
	if q := s.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %g, want 2", q)
	}
	if q := s.Quantile(1); q != 8 {
		t.Fatalf("p100 = %g, want largest finite bound 8", q)
	}
}

func TestHistogramMergeDelta(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	a := h.Snapshot()
	h.Observe(50)
	b := h.Snapshot()
	d := b.Delta(a)
	if d.Count != 1 || d.Counts[2] != 1 || d.Sum != 50 {
		t.Fatalf("delta = %+v", d)
	}
	var empty HistogramSnapshot
	if got := a.Delta(empty); got.Count != a.Count {
		t.Fatal("delta against empty lost data")
	}
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty snapshot stats should be NaN")
	}
}

// TestConcurrentUpdates hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the lock-cheapness proof,
// and the final totals prove no increment is lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", nil)
	g := r.Gauge("depth", nil)
	h := r.Histogram("lat", LogBuckets(1e-6, 10, 6), nil)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(float64(i%10) * 1e-4)
			}
		}(w)
	}
	// Concurrent readers must be safe too.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = c.Value()
				_ = h.Snapshot()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker-1 {
		t.Fatalf("gauge high-water = %d, want %d", got, workers*perWorker-1)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketSum int64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

// TestPrometheusGolden locks the exposition format: counters and gauges
// as single samples, histograms as cumulative buckets with le labels
// plus _sum/_count, families sorted by name, HELP/TYPE comments.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("rpc_latency_seconds", "end-to-end connect latency")
	r.Counter("msgs_total", Labels{"kind": "sent"}).Add(12)
	r.Counter("msgs_total", Labels{"kind": "dropped"}).Add(3)
	r.Gauge("inbox_high_water", nil).Set(9)
	h := r.Histogram("rpc_latency_seconds", []float64{0.001, 0.01}, nil)
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE inbox_high_water gauge
inbox_high_water 9
# TYPE msgs_total counter
msgs_total{kind="dropped"} 3
msgs_total{kind="sent"} 12
# HELP rpc_latency_seconds end-to-end connect latency
# TYPE rpc_latency_seconds histogram
rpc_latency_seconds_bucket{le="0.001"} 1
rpc_latency_seconds_bucket{le="0.01"} 2
rpc_latency_seconds_bucket{le="+Inf"} 3
rpc_latency_seconds_sum 5.0025
rpc_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryResetAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", nil).Add(5)
	r.Histogram("b", []float64{1}, nil).Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"a_total"`) {
		t.Fatalf("JSON snapshot missing series: %s", b.String())
	}
}

func TestBucketHelpers(t *testing.T) {
	lb := LogBuckets(2, 2, 3)
	if lb[0] != 2 || lb[1] != 4 || lb[2] != 8 {
		t.Fatalf("LogBuckets = %v", lb)
	}
	lin := LinearBuckets(1, 1, 3)
	if lin[0] != 1 || lin[1] != 2 || lin[2] != 3 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
	for _, fn := range []func(){
		func() { LogBuckets(0, 2, 3) },
		func() { LogBuckets(1, 1, 3) },
		func() { LinearBuckets(0, 0, 3) },
		func() { NewSpanRecorder(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
