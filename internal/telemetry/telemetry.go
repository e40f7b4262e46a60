// Package telemetry is the unified observability layer: a registry of
// named, label-tagged instruments — atomic counters, gauges and
// lock-cheap log-scale histograms — plus a bounded causal span recorder
// (see span.go) and live exposition over HTTP (see http.go).
//
// Design rules:
//
//   - The hot path is wait-free. Components resolve their instruments
//     once at construction (Registry get-or-create takes a lock) and
//     then update them with single atomic operations.
//   - Instruments are nil-safe: updating a nil *Counter, *Gauge,
//     *Histogram or *SpanRecorder is a no-op, so optional instrumentation
//     costs one predictable branch when disabled.
//   - Snapshots are plain values and subtractable, so sequential
//     windows are ordinary arithmetic.
//
// The exposition formats are Prometheus text (WritePrometheus) and an
// expvar-style JSON snapshot (WriteJSON).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels tag an instrument with dimensions (e.g. {"result": "ok"}).
// Instruments with the same name but different labels are distinct
// series of one metric family.
type Labels map[string]string

// String renders labels canonically (sorted) in the Prometheus label
// syntax: `k1="v1",k2="v2"`. Empty labels render as "".
func (l Labels) String() string { return l.key() }

// key renders labels canonically (sorted) for registry lookup and
// Prometheus exposition: `k1="v1",k2="v2"`.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	ks := make([]string, 0, len(l))
	for k := range l {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (depth, high-water mark, size).
type Gauge struct{ v atomic.Int64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation. Nil-safe.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations in fixed buckets with precomputed upper
// bounds (log-scale by construction via LogBuckets, or any ascending
// bounds). Observation is one binary search plus two atomic adds — no
// locks — and snapshots are mergeable.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf bucket after
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one observation. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound is >= v (Prometheus `le` semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot copies the current bucket counts. The zero HistogramSnapshot
// is returned for a nil histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram: Counts[i]
// holds observations with value <= Bounds[i]; the final entry is the
// overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Delta returns this snapshot minus prev (per-window view of a
// monotonically growing histogram). An empty prev returns s unchanged.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Counts) == 0 {
		return s
	}
	if len(s.Counts) != len(prev.Counts) {
		panic(fmt.Sprintf("telemetry: delta of histograms with %d and %d buckets", len(s.Counts), len(prev.Counts)))
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return out
}

// Mean returns Sum/Count, or NaN when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) as the upper bound
// of the bucket containing that rank — the standard bucketed-histogram
// estimate. It returns NaN when empty or q is out of range; ranks that
// land in the overflow bucket return the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q < 0 || q > 1 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LogBuckets returns count upper bounds start, start·factor,
// start·factor², … — the fixed log-scale bucket layout latency and size
// histograms use. It panics on a non-positive start, factor <= 1 or
// count < 1.
func LogBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("telemetry: LogBuckets(%g, %g, %d)", start, factor, count))
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns count upper bounds start, start+width, … for
// small integral distributions (path lengths, hop counts). It panics on
// width <= 0 or count < 1.
func LinearBuckets(start, width float64, count int) []float64 {
	if width <= 0 || count < 1 {
		panic(fmt.Sprintf("telemetry: LinearBuckets(%g, %g, %d)", start, width, count))
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// instrument kinds, for exposition and kind-conflict detection.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one registered instrument: a (name, labels) pair bound to
// exactly one of the three instrument types.
type series struct {
	name     string
	labelKey string
	labels   Labels
	kind     string
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// Registry is a namespace of instruments. Get-or-create methods are safe
// for concurrent use and idempotent: the same (name, labels) always
// yields the same instrument, so independent components share series
// naturally. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	help   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		help:   make(map[string]string),
	}
}

// Help attaches a HELP string to a metric family, emitted in the
// Prometheus exposition. Nil-safe.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

func seriesKey(name, labelKey string) string { return name + "{" + labelKey + "}" }

// lookup get-or-creates the series for (name, labels, kind); mk builds a
// fresh instrument. A kind conflict (e.g. Counter then Gauge of the same
// name) panics — it is a programming error that would corrupt exposition.
func (r *Registry) lookup(name string, labels Labels, kind string, mk func(s *series)) *series {
	lk := labels.key()
	key := seriesKey(name, lk)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, s.kind, kind))
		}
		return s
	}
	s := &series{name: name, labelKey: lk, kind: kind}
	if len(labels) > 0 {
		s.labels = make(Labels, len(labels))
		for k, v := range labels {
			s.labels[k] = v
		}
	}
	mk(s)
	r.series[key] = s
	return s
}

// Counter returns the counter named name with the given labels, creating
// it on first use. Returns nil on a nil registry, so disabled telemetry
// degrades to no-ops.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge returns the gauge named name with the given labels, creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// Histogram returns the histogram named name with the given labels,
// creating it with the given bucket upper bounds on first use (later
// calls reuse the existing buckets). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram, func(s *series) { s.hist = newHistogram(bounds) }).hist
}

// sorted returns all series ordered by (name, labelKey) for stable
// exposition.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labelKey < out[j].labelKey
	})
	return out
}

// promLabel renders a label set for exposition, merging extra pairs
// (used for the histogram `le` label).
func promLabel(labelKey, extra string) string {
	switch {
	case labelKey == "" && extra == "":
		return ""
	case labelKey == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labelKey + "}"
	default:
		return "{" + labelKey + "," + extra + "}"
	}
}

// formatBound renders a bucket bound the way Prometheus does.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (type comments, cumulative histogram buckets with
// `le` labels, _sum and _count series). Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	lastName := ""
	for _, s := range r.sorted() {
		if s.name != lastName {
			if h, ok := help[s.name]; ok {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind)
			lastName = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, promLabel(s.labelKey, ""), s.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %d\n", s.name, promLabel(s.labelKey, ""), s.gauge.Value())
		case kindHistogram:
			snap := s.hist.Snapshot()
			var cum int64
			for i, bound := range snap.Bounds {
				cum += snap.Counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, promLabel(s.labelKey, fmt.Sprintf("le=%q", formatBound(bound))), cum)
			}
			cum += snap.Counts[len(snap.Counts)-1]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name, promLabel(s.labelKey, `le="+Inf"`), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, promLabel(s.labelKey, ""), strconv.FormatFloat(snap.Sum, 'g', -1, 64))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, promLabel(s.labelKey, ""), snap.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// CounterPoint is one counter series' value.
type CounterPoint struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// GaugePoint is one gauge series' value.
type GaugePoint struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// HistogramPoint is one histogram series' snapshot.
type HistogramPoint struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	HistogramSnapshot
}

// Snapshot captures every instrument. Nil-safe (returns the zero value).
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	if r == nil {
		return out
	}
	for _, s := range r.sorted() {
		switch s.kind {
		case kindCounter:
			out.Counters = append(out.Counters, CounterPoint{Name: s.name, Labels: s.labels, Value: s.counter.Value()})
		case kindGauge:
			out.Gauges = append(out.Gauges, GaugePoint{Name: s.name, Labels: s.labels, Value: s.gauge.Value()})
		case kindHistogram:
			out.Histograms = append(out.Histograms, HistogramPoint{Name: s.name, Labels: s.labels, HistogramSnapshot: s.hist.Snapshot()})
		}
	}
	return out
}

// WriteJSON renders the expvar-style JSON snapshot. Nil-safe.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
