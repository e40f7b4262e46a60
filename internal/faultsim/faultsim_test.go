package faultsim

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"p2panon/internal/core"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// TestBenignPlansHoldInvariants: generated noise plans (drops, delays,
// duplicates, crashes, restarts, inflated claims, double
// deposits, probe lies — everything except the planted settlement defect)
// must be absorbed without violating any invariant.
func TestBenignPlansHoldInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		res, err := Run(GeneratePlan(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			t.Errorf("seed %d: %d violation(s):", seed, len(res.Violations))
			for _, v := range res.Violations {
				t.Errorf("  %s", v)
			}
		}
		if res.Delivered == 0 {
			t.Errorf("seed %d: no connection ever delivered; the plan exercised nothing", seed)
		}
	}
}

// TestDoubleSpendCaughtAndShrunk plants the settlement double-spend in a
// noisy plan: the conservation checker must fire, and Shrink must reduce
// the schedule to a minimal reproducer (the acceptance bound is 5; the
// true minimum is the one double-spend fault).
func TestDoubleSpendCaughtAndShrunk(t *testing.T) {
	p := GeneratePlan(7)
	p.Faults = append(p.Faults, Fault{Kind: FaultDoubleSpend, Batch: 1})
	res, err := Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.OK() {
		t.Fatal("planted double-spend was not caught by any invariant")
	}
	caught := false
	for _, v := range res.Violations {
		if v.Invariant == InvConservation || v.Invariant == InvDoubleSettle {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("double-spend violated %v but never payment-conservation/double-settle", res.Violations)
	}

	min := Shrink(p)
	if len(min.Faults) > 5 {
		t.Fatalf("shrunk reproducer has %d faults, want <= 5: %+v", len(min.Faults), min.Faults)
	}
	minRes, err := Run(min)
	if err != nil {
		t.Fatalf("shrunk plan unrunnable: %v", err)
	}
	if minRes.OK() {
		t.Fatal("shrunk plan no longer fails — Shrink did not preserve the defect")
	}
	if len(min.Faults) != 1 || min.Faults[0].Kind != FaultDoubleSpend {
		t.Logf("note: minimal reproducer is %+v (expected the lone double-spend)", min.Faults)
	}
}

// TestShrinkPassesThroughCleanPlan: a passing plan shrinks to itself.
func TestShrinkPassesThroughCleanPlan(t *testing.T) {
	p := GeneratePlan(3)
	min := Shrink(p)
	if len(min.Faults) != len(p.Normalize().Faults) {
		t.Fatalf("clean plan was shrunk from %d to %d faults", len(p.Normalize().Faults), len(min.Faults))
	}
}

// TestPlanRoundTrip: SavePlan/LoadPlan preserve the schedule exactly.
func TestPlanRoundTrip(t *testing.T) {
	p := GeneratePlan(11)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SavePlan(path, p); err != nil {
		t.Fatalf("save: %v", err)
	}
	q, err := LoadPlan(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if q.Seed != p.Seed || len(q.Faults) != len(p.Faults) {
		t.Fatalf("round trip lost data: %+v vs %+v", q, p)
	}
	for i := range p.Faults {
		if q.Faults[i] != p.Faults[i] {
			t.Fatalf("fault %d changed: %+v vs %+v", i, q.Faults[i], p.Faults[i])
		}
	}
}

// TestCheckSavesReproducer: Check on a failing plan must write the shrunk
// plan JSON into FAULTSIM_ARTIFACT_DIR and fail the TB.
func TestCheckSavesReproducer(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("FAULTSIM_ARTIFACT_DIR", dir)
	p := GeneratePlan(7)
	p.Faults = append(p.Faults, Fault{Kind: FaultDoubleSpend, Batch: 1})
	rec := &recordingTB{name: "TestCheckSavesReproducer"}
	Check(rec, p)
	if !rec.fataled {
		t.Fatal("Check did not fail on a violating plan")
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "faultsim-*.json"))
	if len(matches) == 0 {
		t.Fatalf("no reproducer JSON written to %s", dir)
	}
	min, err := LoadPlan(matches[0])
	if err != nil {
		t.Fatalf("saved reproducer unloadable: %v", err)
	}
	if len(min.Faults) > 5 {
		t.Fatalf("saved reproducer has %d faults, want <= 5", len(min.Faults))
	}
}

// TestCheckPassesCleanPlan: Check must not fail a healthy plan.
func TestCheckPassesCleanPlan(t *testing.T) {
	res := Check(t, GeneratePlan(1))
	if res == nil || !res.OK() {
		t.Fatal("Check failed a clean plan")
	}
}

// TestSeededPlans is the CI sweep: FAULTSIM_SEEDS (comma-separated) picks
// the seed set, defaulting to a small smoke range for local runs.
func TestSeededPlans(t *testing.T) {
	spec := os.Getenv("FAULTSIM_SEEDS")
	if spec == "" {
		spec = "101,102,103"
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		seed, err := strconv.ParseUint(tok, 10, 64)
		if err != nil {
			t.Fatalf("FAULTSIM_SEEDS entry %q: %v", tok, err)
		}
		t.Run("seed"+tok, func(t *testing.T) {
			Check(t, GeneratePlan(seed))
		})
	}
}

// TestDeterministicTraces is the core replay guarantee: the same plan run
// twice produces a byte-identical span log and identical counters.
func TestDeterministicTraces(t *testing.T) {
	p := GeneratePlan(42)
	r1, err := Run(p)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, err := Run(p)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	t1, t2 := r1.SpanJSONL(), r2.SpanJSONL()
	if !bytes.Equal(t1, t2) {
		t.Fatalf("traces differ across identical runs: %d vs %d bytes", len(t1), len(t2))
	}
	if len(t1) == 0 {
		t.Fatal("empty trace — the world did not run")
	}
	if r1.Sends != r2.Sends || r1.Hops != r2.Hops || r1.Delivered != r2.Delivered || r1.Failed != r2.Failed ||
		r1.Nacks != r2.Nacks || r1.Timeouts != r2.Timeouts || r1.VirtualSeconds != r2.VirtualSeconds {
		t.Fatalf("counters differ across identical runs:\n%+v\n%+v", r1, r2)
	}
}

// TestSeededPlansSpanDeterminism extends the replay guarantee to the
// causal span log's contents: across seeds, the same plan run twice must
// produce byte-identical SpanJSONL output, including the virtual-clock
// timestamps. The name shares the TestSeededPlans prefix so the CI
// faultsim -race job runs it.
func TestSeededPlansSpanDeterminism(t *testing.T) {
	for _, seed := range []uint64{42, 101} {
		p := GeneratePlan(seed)
		r1, err := Run(p)
		if err != nil {
			t.Fatalf("seed %d first run: %v", seed, err)
		}
		r2, err := Run(p)
		if err != nil {
			t.Fatalf("seed %d second run: %v", seed, err)
		}
		s1, s2 := r1.SpanJSONL(), r2.SpanJSONL()
		if !bytes.Equal(s1, s2) {
			t.Fatalf("seed %d: span logs differ across identical runs: %d vs %d bytes", seed, len(s1), len(s2))
		}
		if len(r1.Spans) == 0 {
			t.Fatalf("seed %d: empty span log — no batch was traced", seed)
		}
		if r1.SpanDropped != 0 {
			t.Fatalf("seed %d: recorder dropped %d spans; raise Plan.TraceCap", seed, r1.SpanDropped)
		}
		stamped := 0
		for _, s := range r1.Spans {
			if s.TimeMicros > 0 {
				stamped++
			}
		}
		if stamped == 0 {
			t.Fatalf("seed %d: no span carries a virtual-clock timestamp", seed)
		}
	}
}

// TestSpanLogCapacity pins the span log's bound: a run that records more
// than Plan.TraceCap spans keeps TraceCap of them, counts the rest, and
// reports trace-capacity instead of judging invariants 4–6 over a
// truncated history.
func TestSpanLogCapacity(t *testing.T) {
	const limit = 8
	res, err := Run(Plan{Seed: 5, Batches: 1, TraceCap: limit})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != limit || res.SpanDropped == 0 {
		t.Fatalf("capped run kept %d spans and dropped %d, want %d kept and some dropped", len(res.Spans), res.SpanDropped, limit)
	}
	fired := false
	for _, v := range res.Violations {
		switch v.Invariant {
		case InvTraceCapacity:
			fired = true
		case InvContiguity, InvReformation, InvReconcile, InvSpanOrphan:
			t.Fatalf("span-backed invariant judged a truncated log: %v", v)
		}
	}
	if !fired {
		t.Fatalf("no %s violation: %v", InvTraceCapacity, res.Violations)
	}
}

// cleanWorld runs a fault-free plan to its end and returns the world,
// whose invariants all hold.
func cleanWorld(t *testing.T, p Plan) *world {
	t.Helper()
	w, err := newWorld(p.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	w.run()
	if v := w.checkInvariants(w.spans.Spans(), w.spans.Dropped()); len(v) != 0 {
		t.Fatalf("clean plan violates %v", v)
	}
	return w
}

// firstDelivered returns the first delivered connection's outcome.
func firstDelivered(t *testing.T, w *world) *connOutcome {
	t.Helper()
	for _, rec := range w.batches {
		for i := range rec.conns {
			if rec.conns[i].path != nil {
				return &rec.conns[i]
			}
		}
	}
	t.Fatal("no connection delivered")
	return nil
}

// requireViolation requires inv among vs.
func requireViolation(t *testing.T, vs []Violation, inv string) {
	t.Helper()
	for _, v := range vs {
		if v.Invariant == inv {
			return
		}
	}
	t.Fatalf("no %s violation: %v", inv, vs)
}

// TestContiguityCatchesUncarriedPath: invariant 4 reads delivered paths
// from the driver's completions and holds each to the stations its
// deliver span's parent chain names, so a delivered path the wire never
// carried must not pass.
func TestContiguityCatchesUncarriedPath(t *testing.T) {
	w := cleanWorld(t, Plan{Seed: 5, Batches: 2})
	c := firstDelivered(t, w)
	forged := append([]overlay.NodeID(nil), c.path...)
	forged[len(forged)/2] = overlay.NodeID(w.plan.Nodes + 1000) // no such node
	c.path = forged
	requireViolation(t, w.checkInvariants(w.spans.Spans(), 0), InvContiguity)
}

// TestReformationCountCatchesMisreport: invariant 5 holds each
// connection's reported reformations to the driver's launch and reform
// spans, so one reformation too many must not pass.
func TestReformationCountCatchesMisreport(t *testing.T) {
	w := cleanWorld(t, Plan{Seed: 5, Batches: 2})
	firstDelivered(t, w).reforms++
	requireViolation(t, w.checkInvariants(w.spans.Spans(), 0), InvReformation)
}

// TestReconcileCatchesMissingDeliverSpan: invariant 6 holds the span log
// to the driver's counters, so a log missing one deliver span must not
// pass.
func TestReconcileCatchesMissingDeliverSpan(t *testing.T) {
	w := cleanWorld(t, Plan{Seed: 5, Batches: 2})
	spans := w.spans.Spans()
	i := slices.IndexFunc(spans, func(s telemetry.Span) bool { return s.Kind == telemetry.SpanDeliver })
	if i < 0 {
		t.Fatal("no deliver span")
	}
	requireViolation(t, w.checkInvariants(slices.Delete(spans, i, i+1), 0), InvReconcile)
}

// clusterFixture runs a clean one-batch world and returns it as a cluster
// artifact would carry it: the batch with the credits each paid forwarder
// is owed, and the span log. Its plan's P_r divides evenly among the
// forwarder set, so the payment rail's integer split is the contract's
// float one and the owed lines replay bit for bit.
func clusterFixture(t *testing.T) (Plan, []ClusterBatch, []telemetry.Span) {
	t.Helper()
	w := cleanWorld(t, Plan{Seed: 7, Batches: 1, Pr: 840})
	rec := w.batches[0]
	b := ClusterBatch{Batch: rec.batch, Initiator: int(rec.initiator), Responder: int(rec.responder)}
	for _, po := range rec.payouts {
		b.Expected = append(b.Expected, ClusterCredit{
			Node: int(po.Forwarder), Forwards: po.Forwards, PayoffBits: math.Float64bits(float64(po.Amount)),
		})
	}
	if len(b.Expected) == 0 {
		t.Fatal("clean batch paid no forwarder")
	}
	spans := w.spans.Spans()
	if vs := CheckClusterArtifact(w.plan, []ClusterBatch{b}, spans, 0); len(vs) != 0 {
		t.Fatalf("clean artifact violates %v", vs)
	}
	return w.plan, []ClusterBatch{b}, spans
}

// TestClusterArtifactCatchesMissingHop: a merged log that lost a
// forwarder's hop span breaks the chain of the deliver span above it and
// orphans the span that parented on it.
func TestClusterArtifactCatchesMissingHop(t *testing.T) {
	p, batches, spans := clusterFixture(t)
	i := slices.IndexFunc(spans, func(s telemetry.Span) bool { return s.Kind == telemetry.SpanHop && s.Hop == 1 })
	if i < 0 {
		t.Fatal("no forwarder hop span")
	}
	vs := CheckClusterArtifact(p, batches, slices.Delete(spans, i, i+1), 0)
	requireViolation(t, vs, InvContiguity)
	requireViolation(t, vs, InvSpanOrphan)
}

// TestClusterArtifactCatchesCreditBugs plants one credit bug at a time in
// a clean artifact's span log — the only record of what landed where —
// and requires exactly the one violation it breaks. A planted span gets a
// fresh id and keeps its parent, so the causal checks stay quiet.
func TestClusterArtifactCatchesCreditBugs(t *testing.T) {
	p, batches, clean := clusterFixture(t)
	b := batches[0]
	owed := b.Expected[0]
	find := func(t *testing.T, spans []telemetry.Span, kind telemetry.SpanKind, node int) int {
		t.Helper()
		i := slices.IndexFunc(spans, func(s telemetry.Span) bool { return s.Kind == kind && s.Node == node })
		if i < 0 {
			t.Fatalf("no %s span at node %d", kind, node)
		}
		return i
	}
	planted := func(s telemetry.Span) telemetry.Span {
		s.ID ^= 0x5eed
		return s
	}
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, spans []telemetry.Span) []telemetry.Span
		want  string
	}{
		{"settle span for a line owed nothing", func(t *testing.T, spans []telemetry.Span) []telemetry.Span {
			s := planted(spans[find(t, spans, telemetry.SpanSettle, owed.Node)])
			s.Node = b.Responder
			return append(spans, s)
		}, InvConservation},
		{"owed line with no settle span", func(t *testing.T, spans []telemetry.Span) []telemetry.Span {
			i := find(t, spans, telemetry.SpanSettle, owed.Node)
			return slices.Delete(spans, i, i+1)
		}, InvDoubleSettle},
		{"two settle spans for one line", func(t *testing.T, spans []telemetry.Span) []telemetry.Span {
			return append(spans, planted(spans[find(t, spans, telemetry.SpanSettle, owed.Node)]))
		}, InvDoubleSettle},
		{"settled payoff bits differ", func(t *testing.T, spans []telemetry.Span) []telemetry.Span {
			spans[find(t, spans, telemetry.SpanSettle, owed.Node)].Detail = transport.SettleDetail(math.Float64frombits(owed.PayoffBits + 1))
			return spans
		}, InvDoubleSettle},
		{"hop spans differ from the owed forwards", func(t *testing.T, spans []telemetry.Span) []telemetry.Span {
			return append(spans, planted(spans[find(t, spans, telemetry.SpanHop, owed.Node)]))
		}, InvConservation},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs := CheckClusterArtifact(p, batches, tc.plant(t, slices.Clone(clean)), 0)
			if len(vs) != 1 || vs[0].Invariant != tc.want {
				t.Fatalf("violations %v, want one %s", vs, tc.want)
			}
		})
	}
}

// TestClusterArtifactReportsInLineOrder plants two owed lines without
// their settle spans and one settle span owed nothing, and requires the
// checker to report the three in ascending (batch, node) order, the same
// list on each of 20 calls.
func TestClusterArtifactReportsInLineOrder(t *testing.T) {
	p, batches, spans := clusterFixture(t)
	b := batches[0]
	if len(b.Expected) < 2 {
		t.Fatalf("clean batch owes %d lines, want two to drop", len(b.Expected))
	}
	var unowed telemetry.Span
	for _, e := range b.Expected[:2] {
		i := slices.IndexFunc(spans, func(s telemetry.Span) bool { return s.Kind == telemetry.SpanSettle && s.Node == e.Node })
		if i < 0 {
			t.Fatalf("no settle span at node %d", e.Node)
		}
		unowed = spans[i]
		spans = slices.Delete(spans, i, i+1)
	}
	unowed.ID ^= 0x5eed
	unowed.Node = b.Responder
	spans = append(spans, unowed)
	first := CheckClusterArtifact(p, batches, spans, 0)
	if len(first) != 3 {
		t.Fatalf("violations %v, want three", first)
	}
	last := -1
	for _, v := range first {
		var batch, node int
		if _, err := fmt.Sscanf(v.Detail, "batch %d node %d", &batch, &node); err != nil || batch != b.Batch || node <= last {
			t.Fatalf("violations %v: not in ascending (batch, node) order", first)
		}
		last = node
	}
	for call := 2; call <= 20; call++ {
		if vs := CheckClusterArtifact(p, batches, spans, 0); !slices.Equal(vs, first) {
			t.Fatalf("call %d reported %v, the first %v", call, vs, first)
		}
	}
}

// TestMidConnectionCrash crashes a node while a FORWARD or a CONFIRM is
// in flight to it, which no generated plan does (their crashes land
// before the first batch): the driver's offline-target handling must
// hold every invariant. A crashed forwarder costs a NACK and one
// reformation around it, and its pay for conn 1 reaches its account
// though the settle, landing only on stations still hosted, skips it. A
// crashed initiator loses its CONFIRM, times out, fails as departed, and
// the batch's later connections are refused.
func TestMidConnectionCrash(t *testing.T) {
	base := Plan{Seed: 5, Batches: 1}
	// Connection 2's launch time and path, from a clean run.
	w := cleanWorld(t, base)
	var at float64
	for _, s := range w.spans.Spans() {
		if s.Kind == telemetry.SpanLaunch && s.Conn == 2 && s.Attempt == 1 {
			at = float64(s.TimeMicros) / 1e6
		}
	}
	path := w.batches[0].conns[1].path
	if at == 0 || len(path) < 3 {
		t.Fatalf("clean run: conn 2 launched at %v over %v", at, path)
	}
	for _, tc := range []struct {
		name   string
		victim overlay.NodeID
		check  func(t *testing.T, res *Result, w *world, victim overlay.NodeID)
	}{
		{"forwarder", path[1], func(t *testing.T, res *Result, w *world, victim overlay.NodeID) {
			if res.Nacks == 0 || res.OfflineDrops == 0 || res.Reformations == 0 || res.Failed != 0 {
				t.Errorf("nacks %d, offline drops %d, reformations %d, failed %d: want a NACK, a drop and a reformation, no failure",
					res.Nacks, res.OfflineDrops, res.Reformations, res.Failed)
			}
			if !slices.Contains(w.batches[0].conns[0].path, victim) {
				t.Fatalf("conn 1 took %v, not through the victim %d", w.batches[0].conns[0].path, victim)
			}
			i := slices.IndexFunc(w.batches[0].payouts, func(po payment.Payout) bool { return po.Forwarder == payment.AccountID(victim) })
			if i < 0 {
				t.Fatalf("victim %d was not paid: %+v", victim, w.batches[0].payouts)
			}
			want := payment.Amount(res.Plan.Opening) + w.batches[0].payouts[i].Amount
			if got, err := w.bank.Balance(payment.AccountID(victim)); err != nil || got != want {
				t.Errorf("victim %d holds %d (err %v), want the opening plus its payout, %d", victim, got, err, want)
			}
			settles := 0
			for _, s := range res.Spans {
				if s.Kind != telemetry.SpanSettle {
					continue
				}
				settles++
				if s.Node == int(victim) {
					t.Errorf("the crashed victim %d has a settle span", victim)
				}
			}
			if want := len(w.batches[0].payouts) - 1; settles != want {
				t.Errorf("%d settle spans, want %d: the settle lands on every payee but the crashed victim", settles, want)
			}
		}},
		{"initiator", path[0], func(t *testing.T, res *Result, w *world, _ overlay.NodeID) {
			conns := w.batches[0].conns
			refused, failed := 0, 0
			for _, c := range conns {
				switch {
				case c.refused:
					refused++
				case c.path == nil:
					failed++
				}
			}
			if res.Delivered != 1 || failed != 1 || conns[1].path != nil || refused != res.Plan.Conns-2 || res.Timeouts == 0 {
				t.Errorf("delivered %d, failed %d, refused %d, timeouts %d; want conn 1 delivered, conn 2 failed, the rest refused",
					res.Delivered, failed, refused, res.Timeouts)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			// Half a link latency after the launch: the first FORWARD is on
			// the wire, and the victim is gone when it or its CONFIRM lands.
			p.Faults = []Fault{{Kind: FaultCrash, At: at + 0.005, Node: int(tc.victim)}}
			res := Check(t, p)
			tc.check(t, res, cleanWorld(t, p), tc.victim)
		})
	}
}

// TestSetupRefreshesNeighbors: the churn driver tops up every node's
// neighbour set once it has seeded the population, so the fault world
// routes over the overlay the simulator and the live replay use. Without
// the top-up node i's list holds only nodes that joined before it: node 0
// has no neighbour, and every walk descends ids.
func TestSetupRefreshesNeighbors(t *testing.T) {
	w, err := newWorld(Plan{Seed: 5}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	w.setup()
	if len(w.net.Node(0).Neighbors) == 0 {
		t.Fatal("node 0 has no neighbour after setup")
	}
	for _, id := range w.net.AllIDs() {
		for _, v := range w.net.Node(id).Neighbors {
			if v > id {
				return
			}
		}
	}
	t.Fatal("no edge points to a later joiner: the topology is a DAG on join order")
}

// TestLivenessMarksReachCurrentBatchOnly: every node of the world routes
// with one batch router, which passes liveness marks to the current
// batch's router alone. Marking batch 1's next hop dead after the run
// must leave batch 1's routing as it was; the same mark while a late
// batch is current must move that batch's.
func TestLivenessMarksReachCurrentBatchOnly(t *testing.T) {
	w := cleanWorld(t, Plan{Seed: 5, Batches: 30})
	nextHop := func(rec *batchRecord) (overlay.NodeID, bool) {
		next, deliver := rec.router.NextHop(rec.initiator, overlay.None, rec.initiator, rec.responder, rec.batch, 1, w.plan.Budget)
		return next, !deliver
	}
	first := w.batches[0]
	before, ok := nextHop(first)
	if !ok {
		t.Fatal("batch 1's initiator delivers straight to its responder")
	}
	w.drv.MarkDead(before)
	if after, _ := nextHop(first); after != before {
		t.Fatalf("batch 1 settled long ago, yet a liveness mark moved its next hop %d -> %d", before, after)
	}
	for i := len(w.batches) - 1; i > 0; i-- {
		rec := w.batches[i]
		if rec.skipped {
			continue
		}
		if before, ok = nextHop(rec); !ok {
			continue
		}
		w.curRec = rec
		w.drv.MarkDead(before)
		if after, _ := nextHop(rec); after == before {
			t.Fatalf("the current batch %d still routes to %d, which was marked dead", rec.batch, before)
		}
		return
	}
	t.Fatal("no later batch routes its first hop")
}

// TestLateMessageAfterSettleRefused duplicates batch 1's first FORWARD —
// the initiator's, to the first forwarder — and holds the copy back past
// the batch's settle. The settle closed the forwarder's station, as a
// live settle closes the stations it reaches, so the copy is refused and
// counted instead of routed: the link is handed exactly the FORWARDs of
// the fault-free plan, and every invariant still holds. The second batch
// only keeps the world running past the first one's settle.
func TestLateMessageAfterSettleRefused(t *testing.T) {
	p := Plan{Seed: 5, Batches: 2, Conns: 1}.Normalize()
	clean, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Faults = []Fault{{Kind: FaultDuplicate, Batch: 1, Conn: 1, Msg: 1, Delay: 2 * p.SettleDelay}}
	w := cleanWorld(t, p)
	rec := w.batches[0]
	if !rec.settled || len(rec.conns) != 1 || len(rec.conns[0].path) < 3 {
		t.Fatalf("batch 1: settled %v, connections %+v; want one settled connection with a forwarder", rec.settled, rec.conns)
	}
	if got := w.reg.Counter("transport_closed_batch_total", nil).Value(); got < 1 {
		t.Fatalf("transport_closed_batch_total = %d: the late copy was not refused", got)
	}
	if w.forwards != clean.Hops {
		t.Fatalf("link handed %d FORWARDs, the fault-free plan %d: the late copy was routed", w.forwards, clean.Hops)
	}
}

// pathTap is the fault link with a record of every CONFIRM a responder
// hands it, as sent: its Path shares the array the message carried.
type pathTap struct {
	faultLink
	confirms *[]transport.Message
}

// Send implements transport.Link.
func (l pathTap) Send(from, to overlay.NodeID, m *transport.Message) bool {
	if m.Kind == transport.MsgConfirm && from == m.Responder {
		*l.confirms = append(*l.confirms, *m)
	}
	return l.faultLink.Send(from, to, m)
}

// TestDuplicatedForwardKeepsTwoPaths: the driver appends a FORWARD's hops
// in place, into one array per attempt, so the duplicate fault must give
// its copy a path of its own. Duplicating the initiator's first FORWARD
// under the random router sends the two copies on different walks to the
// responder; once the run is over, each CONFIRM's path must still be
// exactly the one its respond span's chain names.
func TestDuplicatedForwardKeepsTwoPaths(t *testing.T) {
	p := Plan{Seed: 5, Batches: 1, Conns: 1, Router: "random"}.Normalize()
	p.Faults = []Fault{{Kind: FaultDuplicate, Batch: 1, Conn: 1, Msg: 1, Delay: p.Latency / 2}}
	w, err := newWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	var confirms []transport.Message
	w.drive(pathTap{faultLink{w.drv, w}, &confirms})
	w.run()
	spans := w.spans.Spans()
	if v := w.checkInvariants(spans, w.spans.Dropped()); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
	if len(confirms) != 2 {
		t.Fatalf("%d CONFIRMs left the responder, want one per copy", len(confirms))
	}
	if slices.Equal(confirms[0].Path, confirms[1].Path) {
		t.Fatalf("both copies walked %v; the check needs walks that part", confirms[0].Path)
	}
	byID := make(map[telemetry.SpanID]telemetry.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for i, m := range confirms {
		want, err := spanPath(byID, telemetry.Span{Trace: m.Trace, Parent: m.Span, Conn: m.Conn, Attempt: 1})
		if err != nil {
			t.Fatalf("copy %d: %v", i+1, err)
		}
		if !slices.Equal(m.Path, want) {
			t.Errorf("copy %d carries path %v, its span chain names %v", i+1, m.Path, want)
		}
	}
}

// TestValidateRejectsBadPlans spot-checks schedule validation.
func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []Plan{
		{Nodes: 2},
		{Router: "magic"},
		{Faults: []Fault{{Kind: "melt"}}},
		// A retired kind: reorder was a second name for delay.
		{Faults: []Fault{{Kind: "reorder", Batch: 1, Conn: 1, Msg: 1}}},
		{Faults: []Fault{{Kind: FaultDrop}}},          // missing batch/conn/msg
		{Faults: []Fault{{Kind: FaultCrash, At: -1}}}, // negative time
		{Faults: []Fault{{Kind: FaultDoubleSpend}}},   // missing batch
		{TraceCap: -1},
		{ProbePeriod: -5},
		{MaxAttempts: -1},
		{Budget: -3},
		{Conns: -2},
		{Batches: -1},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad plan validated: %+v", i, p)
		}
	}
	if err := GeneratePlan(1).Validate(); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
}

// TestClusterArtifactSkipsTruncatedLog: dropped spans void the span-side
// checks of a cluster artifact, so an owed credit whose settle span was
// dropped is reported as trace-capacity alone, not as a double-settle.
func TestClusterArtifactSkipsTruncatedLog(t *testing.T) {
	p := Plan{Seed: 1}.Normalize()
	credit := ClusterCredit{Node: 2, Forwards: 1,
		PayoffBits: math.Float64bits(core.Contract{Pf: float64(p.Pf), Pr: float64(p.Pr)}.Payoff(1, 1))}
	batches := []ClusterBatch{{Batch: 1, Initiator: 0, Responder: 1, Expected: []ClusterCredit{credit}}}
	vs := CheckClusterArtifact(p, batches, nil, 1)
	if len(vs) != 1 || vs[0].Invariant != InvTraceCapacity {
		t.Fatalf("violations %v, want %s alone", vs, InvTraceCapacity)
	}
}

// recordingTB captures Check's verdict without failing the real test.
type recordingTB struct {
	name    string
	fataled bool
	lastLog string
}

func (r *recordingTB) Helper() {}
func (r *recordingTB) Fatalf(format string, args ...any) {
	r.fataled = true
}
func (r *recordingTB) Logf(format string, args ...any) {}
func (r *recordingTB) Name() string                    { return r.name }
