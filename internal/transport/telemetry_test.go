package transport

import (
	"strings"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/telemetry"
)

// lineTopology builds a 0-1-2-…-(n-1) path topology.
func lineTopology(n int) Topology {
	topo := make(Topology)
	for i := 0; i < n; i++ {
		var nbs []overlay.NodeID
		if i > 0 {
			nbs = append(nbs, overlay.NodeID(i-1))
		}
		if i < n-1 {
			nbs = append(nbs, overlay.NodeID(i+1))
		}
		topo[overlay.NodeID(i)] = nbs
	}
	return topo
}

func newLineNetwork(t testing.TB, n int) *Network {
	t.Helper()
	topo := lineTopology(n)
	router := NewRandomRouter(topo, dist.NewSource(7))
	net := NewNetwork(0)
	for id := range topo {
		if err := net.Join(id, router); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestTracerRecordsConnectionLifecycle pins the one lifecycle record: a
// clean connection over a line is a single causal chain — batch root,
// launch, one hop per node that forwarded (the initiator at hop 0
// included), the responder's accept at hop len(path)-1, and the deliver —
// each span parented on its predecessor.
func TestTracerRecordsConnectionLifecycle(t *testing.T) {
	net := newLineNetwork(t, 6)
	defer net.Close()
	reg := telemetry.NewRegistry()
	net.Instrument(reg)
	if net.Telemetry() != reg {
		t.Fatal("Instrument did not rebind the registry")
	}
	rec := telemetry.NewSpanRecorder(1024)
	net.SetSpans(rec)

	path, _, err := net.ConnectDetail(0, 5, 1, 1, 8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	type step struct {
		kind      telemetry.SpanKind
		hop, node int
	}
	want := []step{{telemetry.SpanBatch, 0, 0}, {telemetry.SpanLaunch, 0, 0}}
	for i, n := range path[:len(path)-1] {
		want = append(want, step{telemetry.SpanHop, i, int(n)})
	}
	want = append(want, step{telemetry.SpanRespond, len(path) - 1, 5}, step{telemetry.SpanDeliver, 0, 0})
	children := make(map[telemetry.SpanID][]telemetry.Span)
	for _, s := range rec.Spans() {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var parent telemetry.SpanID
	for i, w := range want {
		next := children[parent]
		if len(next) != 1 || (step{next[0].Kind, next[0].Hop, next[0].Node}) != w {
			t.Fatalf("step %d of path %v: want %+v under span %s, got %+v", i, path, w, parent, next)
		}
		parent = next[0].ID
	}
	if rec.Total() != len(want) {
		t.Fatalf("%d spans recorded, want the %d of the chain: %+v", rec.Total(), len(want), rec.Spans())
	}

	m := net.Metrics()
	if m.ConnectLatency.Count != 1 {
		t.Fatalf("connect latency count = %d, want 1", m.ConnectLatency.Count)
	}
	if m.PathLength.Count != 1 || m.PathLength.Mean() != float64(len(path)) {
		t.Fatalf("path length histogram = %+v for path %v", m.PathLength, path)
	}

	// The shared registry exposes the histograms in Prometheus format —
	// the contract the acceptance criterion scrapes.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"transport_connect_latency_seconds_bucket", "transport_path_length_hops_bucket"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestMetricsResetAndDelta windows the counters the one way the runtime
// offers: a later snapshot minus an earlier one holds exactly the traffic
// between them.
func TestMetricsResetAndDelta(t *testing.T) {
	net := newLineNetwork(t, 5)
	defer net.Close()
	if _, _, err := net.ConnectDetail(0, 4, 1, 1, 8, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	first := net.Metrics()
	if first.Connects != 1 || first.Sent == 0 {
		t.Fatalf("unexpected first window: %v", first)
	}
	if _, _, err := net.ConnectDetail(0, 4, 1, 2, 8, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	window := net.Metrics().Delta(first)
	if window.Connects != 1 {
		t.Fatalf("windowed connects = %d, want 1", window.Connects)
	}
	if window.ConnectLatency.Count != 1 || window.PathLength.Count != 1 {
		t.Fatalf("windowed histograms = %+v / %+v, want one observation each",
			window.ConnectLatency, window.PathLength)
	}
	if window.Sent <= 0 || window.Sent >= net.Metrics().Sent {
		t.Fatalf("windowed sent = %d out of range (lifetime %d)", window.Sent, net.Metrics().Sent)
	}
}

func TestNackHistogramAndTrace(t *testing.T) {
	// The responder departs while the first FORWARD is in flight (node 1's
	// router triggers the removal), so every attempt dies to a NACK.
	topo := Topology{0: {1}, 1: {2}, 2: {3}, 3: {}}
	r := NewRandomRouter(topo, dist.NewSource(7))
	net := NewNetwork(0)
	defer net.Close()
	for id := range topo {
		router := Router(r)
		if id == 1 {
			router = RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
				net.RemovePeer(3)
				return r.NextHop(self, pred, initiator, responder, batch, conn, remaining)
			})
		}
		if err := net.Join(id, router); err != nil {
			t.Fatal(err)
		}
	}
	rec := telemetry.NewSpanRecorder(256)
	net.SetSpans(rec)
	_, _, err := net.ConnectDetail(0, 3, 1, 1, 8, 200*time.Millisecond)
	if err == nil {
		t.Fatal("connect to the departed responder unexpectedly succeeded")
	}
	m := net.Metrics()
	if m.Nacks == 0 || m.NackHops.Count == 0 {
		t.Fatalf("no NACKs observed: %v", m)
	}
	// Every NACK is one span carrying the reason and the hop the path had
	// reached (0-1-2, the responder would have been position 3); the
	// connection's fail span hangs off the last of them.
	nacks := make(map[telemetry.SpanID]bool)
	var fails []telemetry.Span
	for _, s := range rec.Spans() {
		switch s.Kind {
		case telemetry.SpanNack:
			if s.Detail != "next hop 3 departed" || s.Hop != 3 || s.Node != 0 {
				t.Fatalf("nack span = %+v, want reason %q at hop 3 attributed to initiator 0", s, "next hop 3 departed")
			}
			nacks[s.ID] = true
		case telemetry.SpanFail:
			fails = append(fails, s)
		}
	}
	if int64(len(nacks)) != m.Nacks {
		t.Fatalf("%d nack spans for %d counted NACKs", len(nacks), m.Nacks)
	}
	if len(fails) != 1 || !nacks[fails[0].Parent] {
		t.Fatalf("fail spans = %+v, want one parented on a nack", fails)
	}
}

// TestSPNECacheCounters reads the Model-II router's counters off the
// registry after real connections: one miss per connection, and how each
// solved its cone — the first connection of a batch cold, the nine after
// it on the kept cone, and the one after a MarkDead cold again — with the
// cells each kind computed: a cold solve the whole cone, and the nine
// refreshes fewer in all than nine cold solves.
func TestSPNECacheCounters(t *testing.T) {
	topo := lineTopology(7) // 0 … 5 carry the connections; 6 is a spare
	avail := map[overlay.NodeID]float64{}
	for id := range topo {
		avail[id] = 0.5
	}
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), avail)
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	net := NewNetwork(0)
	defer net.Close()
	for id := range topo {
		if err := net.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	var coldCells, freshCells int64
	counts := func() (misses, cold, refresh int64) {
		for _, c := range reg.Snapshot().Counters {
			switch {
			case c.Name == metricSPNECacheTotal && c.Labels["result"] == "miss":
				misses = c.Value
			case c.Name == metricSPNECone && c.Labels["kind"] == "cold":
				cold = c.Value
			case c.Name == metricSPNECone && c.Labels["kind"] == "refresh":
				refresh = c.Value
			case c.Name == metricSPNECells && c.Labels["kind"] == "cold":
				coldCells = c.Value
			case c.Name == metricSPNECells && c.Labels["kind"] == "refresh":
				freshCells = c.Value
			}
		}
		return misses, cold, refresh
	}
	cone := func() (cells int64) { // the kept cone's cells, stages 2 … budget
		for h := 2; h <= r.memoHops; h++ {
			for i := range r.nbrs {
				if _, ok := r.game.Cell(&r.memo, h, i); ok {
					cells++
				}
			}
		}
		return cells
	}
	connect := func(conn int) {
		if _, _, err := net.ConnectDetail(0, 5, 1, conn, 8, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for conn := 1; conn <= 10; conn++ {
		connect(conn)
	}
	if misses, cold, refresh := counts(); misses != 10 || cold != 1 || refresh != 9 {
		t.Fatalf("a 10-connection batch: %d misses, %d cold, %d refreshed; want 10, 1, 9", misses, cold, refresh)
	}
	size := cone()
	t.Logf("a 10-connection batch: a cone of %d cells; %d cells cold, %d refreshed", size, coldCells, freshCells)
	if coldCells != size || freshCells <= 0 || freshCells >= 9*size {
		t.Fatalf("a 10-connection batch over a cone of %d cells: %d cells cold, %d refreshed; want %d, and between 1 and %d",
			size, coldCells, freshCells, size, 9*size-1)
	}
	r.MarkDead(6)
	connect(11)
	connect(12)
	if misses, cold, refresh := counts(); misses != 12 || cold != 2 || refresh != 10 {
		t.Fatalf("after MarkDead: %d misses, %d cold, %d refreshed; want 12, 2, 10", misses, cold, refresh)
	}
	if coldCells != size+cone() {
		t.Fatalf("after MarkDead: %d cells cold, want the two cold cones' %d + %d", coldCells, size, cone())
	}
}
