package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/netwire"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// lineRouter forces I → I+1 → … → R so the expected tree shape is exact.
func lineRouter() transport.Router {
	return transport.RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		next := self + 1
		if next == responder {
			return responder, true
		}
		return next, false
	})
}

// TestTCPClusterSpanTree is the PR's acceptance criterion: spans captured
// from a real TCP-loopback cluster run — every hop minted in a separate
// node goroutine from carried trace context — must reassemble into the
// complete I → forwarders → R → settlement causal tree.
func TestTCPClusterSpanTree(t *testing.T) {
	c := netwire.NewCluster(netwire.Config{})
	defer c.Close()
	r := lineRouter()
	for id := 0; id < 5; id++ {
		if err := c.Join(overlay.NodeID(id), r); err != nil {
			t.Fatal(err)
		}
	}
	rec := telemetry.NewSpanRecorder(1 << 12)
	rec.SetSeed(7)
	c.SetSpans(rec)

	const (
		batch = 3
		k     = 2
	)
	out, err := c.RunBatch(0, 4, batch, k, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	contract := core.Contract{Pf: 1.5, Pr: 20}
	if _, err := c.SettleBatch(0, batch, out, contract); err != nil {
		t.Fatal(err)
	}
	// root + per conn (launch + a hop per non-responder member + respond +
	// deliver) + a settle per forwarder; settles land asynchronously.
	want := 1 + out.SetSize()
	for _, p := range out.Paths {
		want += 1 + (len(p) - 1) + 1 + 1
	}
	deadline := time.Now().Add(2 * time.Second)
	for rec.Total() < want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := rec.Total(); got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trees := buildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if tr.orphans != 0 {
		t.Fatalf("%d orphaned spans — parent links broken across the wire", tr.orphans)
	}
	if tr.root == nil || tr.root.Kind != telemetry.SpanBatch || tr.root.Node != 0 {
		t.Fatalf("bad root: %+v", tr.root)
	}

	// Root children: k launches plus one settle per forwarder.
	var launches, settles []*node
	for _, ch := range tr.root.children {
		switch ch.Kind {
		case telemetry.SpanLaunch:
			launches = append(launches, ch)
		case telemetry.SpanSettle:
			settles = append(settles, ch)
		default:
			t.Fatalf("unexpected root child kind %q", ch.Kind)
		}
	}
	if len(launches) != k {
		t.Fatalf("%d launches, want %d", len(launches), k)
	}
	if len(settles) != out.SetSize() {
		t.Fatalf("%d settle spans, want set size %d", len(settles), out.SetSize())
	}
	for _, s := range settles {
		if pay, ok := parseSettleDetail(s.Detail); !ok {
			t.Fatalf("settle span carries no payoff: %q", s.Detail)
		} else if want := out.Payoff(overlay.NodeID(s.Node), contract); pay != want {
			t.Fatalf("node %d settled %v, want %v", s.Node, pay, want)
		}
	}

	// Each launch must chain I's hop 0 → forwarder hops → respond at R →
	// deliver back at I, in strictly increasing hop order.
	for _, l := range launches {
		cur := l
		hop := 0
		for {
			if len(cur.children) != 1 {
				t.Fatalf("conn %d: span %s@node%d has %d children, want 1", l.Conn, cur.Kind, cur.Node, len(cur.children))
			}
			next := cur.children[0]
			switch next.Kind {
			case telemetry.SpanHop:
				if next.Hop != hop {
					t.Fatalf("conn %d: hop %d out of order (want %d)", l.Conn, next.Hop, hop)
				}
				if hop == 0 && next.Node != 0 {
					t.Fatalf("conn %d: hop 0 at node %d, not the initiator", l.Conn, next.Node)
				}
				hop++
				cur = next
			case telemetry.SpanRespond:
				if next.Node != 4 {
					t.Fatalf("conn %d: respond at node %d, not the responder", l.Conn, next.Node)
				}
				if len(next.children) != 1 || next.children[0].Kind != telemetry.SpanDeliver {
					t.Fatalf("conn %d: respond not followed by deliver", l.Conn)
				}
				if d := next.children[0]; d.Node != 0 {
					t.Fatalf("conn %d: deliver at node %d, not the initiator", l.Conn, d.Node)
				}
				cur = nil
			default:
				t.Fatalf("conn %d: unexpected kind %q in chain", l.Conn, next.Kind)
			}
			if cur == nil {
				break
			}
		}
		if hop == 0 {
			t.Fatalf("conn %d: no hop spans at all", l.Conn)
		}
	}

	// Critical path must run root → … → deliver, spanning the full chain.
	crit := criticalPath(tr)
	if len(crit) < 4 {
		t.Fatalf("critical path only %d spans", len(crit))
	}
	if last := crit[len(crit)-1]; last.Kind != telemetry.SpanDeliver {
		t.Fatalf("critical path ends at %q, want deliver", last.Kind)
	}

	// The rendered summary names every stage and prices the forwarders.
	var sb strings.Builder
	render(&sb, tr, contract.Pf, contract.Pr)
	text := sb.String()
	for _, needle := range []string{"batch", "launch", "hop", "respond", "deliver", "settle", "forwarders:", "income="} {
		if !strings.Contains(text, needle) {
			t.Fatalf("summary missing %q:\n%s", needle, text)
		}
	}
}

// TestAttributeFaultsimDetail pins the settle-detail form every emitter,
// the fault world included, writes (transport.SettleDetail), and the dwell
// computation on a hand-built timestamped trace.
func TestAttributeFaultsimDetail(t *testing.T) {
	root := telemetry.NewSpanID(1, telemetry.SpanBatch, 0, 0, 0, 0)
	hop := telemetry.NewSpanID(root, telemetry.SpanHop, 1, 0, 1, 2)
	resp := telemetry.NewSpanID(hop, telemetry.SpanRespond, 1, 0, 2, 4)
	settle := telemetry.NewSpanID(root, telemetry.SpanSettle, 0, 0, 0, 2)
	spans := []telemetry.Span{
		{Trace: 1, ID: root, Kind: telemetry.SpanBatch, Node: 0, TimeMicros: 10},
		{Trace: 1, ID: hop, Parent: root, Kind: telemetry.SpanHop, Conn: 1, Hop: 1, Node: 2, TimeMicros: 40},
		{Trace: 1, ID: resp, Parent: hop, Kind: telemetry.SpanRespond, Conn: 1, Hop: 2, Node: 4, TimeMicros: 90},
		{Trace: 1, ID: settle, Parent: root, Kind: telemetry.SpanSettle, Node: 2, Detail: transport.SettleDetail(23)},
	}
	trees := buildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("got %d trees", len(trees))
	}
	fwd := attribute(trees[0])
	if len(fwd) != 1 {
		t.Fatalf("got %d forwarders, want 1", len(fwd))
	}
	st := fwd[0]
	if st.node != 2 || st.m != 1 || st.dwellUS != 50 || !st.hasPay || st.settled != 23 {
		t.Fatalf("bad attribution: %+v", st)
	}
	crit := criticalPath(trees[0])
	if len(crit) != 3 || crit[len(crit)-1].ID != resp {
		t.Fatalf("bad critical path: %d spans", len(crit))
	}
	// The old decimal form is no payoff at all.
	for _, d := range []string{"payoff=23 forwards=1", "payoff=1234567890123456 forwards=1"} {
		if pay, ok := parseSettleDetail(d); ok {
			t.Errorf("parseSettleDetail(%q) = %v, want refused", d, pay)
		}
	}
}
