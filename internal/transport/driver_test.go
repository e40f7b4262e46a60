package transport

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/sim"
	"p2panon/internal/telemetry"
	"p2panon/internal/vclock"
)

// scriptClock is an engine clock that logs every AfterFunc it is asked
// for, so a test reads the driver's exact schedule: a connection's
// timers alternate attempt window, backoff pause, window, pause, …
type scriptClock struct {
	vclock.Clock
	timers []time.Duration
}

func (c *scriptClock) AfterFunc(d time.Duration, fn func()) *vclock.Timer {
	c.timers = append(c.timers, d)
	return c.Clock.AfterFunc(d, fn)
}

// split returns the logged attempt windows and backoff pauses.
func (c *scriptClock) split() (windows, pauses []time.Duration) {
	for i, d := range c.timers {
		if i%2 == 0 {
			windows = append(windows, d)
		} else {
			pauses = append(pauses, d)
		}
	}
	return windows, pauses
}

// fate is what the scripted link does with one message.
type fate int

const (
	deliver fate = iota // hand it to the target's handler, synchronously
	refuse              // synchronous drop: Send returns false
	swallow             // accept, never deliver; the attempt window runs out
	lose                // accept, then report it undeliverable
	tamper              // deliver with the contract's signature broken
)

// scriptLink is a Link with no sockets and no goroutines: every message
// meets the fate the case's script picks, and delivery is a direct call
// into the driver, so a whole connection runs on the test's goroutine.
type scriptLink struct {
	d        *Driver
	stations map[overlay.NodeID]*Station
	script   func(from, to overlay.NodeID, m Message) fate
	hideFrom int            // Local answers nil from this call on (0 = never)
	at       overlay.NodeID // the station whose handler is running
	locals   int
	sends    int
	nacks    []Message // every NACK the link was handed
	held     []held    // swallowed messages, for late replay
}

type held struct {
	to overlay.NodeID
	m  Message
}

func (l *scriptLink) Local(id overlay.NodeID) *Station {
	l.locals++
	if l.hideFrom > 0 && l.locals >= l.hideFrom {
		return nil
	}
	return l.stations[id]
}

func (l *scriptLink) Addressable(id overlay.NodeID) bool { return l.stations[id] != nil }

// Send implements Link. Like any link that keeps or re-delivers what it
// was lent, it works on its own copy of m.
func (l *scriptLink) Send(from, to overlay.NodeID, pm *Message) bool {
	m := *pm
	l.sends++
	if m.Kind == MsgNack {
		l.nacks = append(l.nacks, m)
	}
	switch l.script(from, to, m) {
	case refuse:
		return false
	case swallow:
		l.held = append(l.held, held{to, m})
	case lose:
		l.d.Undeliverable(from, to, &m)
	case tamper:
		bad := *m.Secure.Contract
		bad.Pf++
		m.Secure = &SecureLoad{Contract: &bad, Records: m.Secure.Records}
		l.handle(to, m)
	default:
		l.handle(to, m)
	}
	return true
}

// handle delivers m to station to, which is the running station meanwhile.
func (l *scriptLink) handle(to overlay.NodeID, m Message) {
	at := l.at
	l.at = to
	l.d.Handle(l.stations[to], &m)
	l.at = at
}

// backupRouter walks 0 → 1 → 2 → 4, switching node 1's successor to the
// backup relay 3 once 2 is known dead; 4 is the responder.
type backupRouter struct{ dead map[overlay.NodeID]bool }

func (r *backupRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	switch {
	case self == 0:
		return 1, false
	case self == 1 && !r.dead[2]:
		return 2, false
	case self == 1:
		return 3, false
	}
	return responder, true
}
func (r *backupRouter) MarkDead(id overlay.NodeID) { r.dead[id] = true }
func (r *backupRouter) MarkLive(id overlay.NodeID) { delete(r.dead, id) }

// spanTree renders the recorded spans as sorted
// "kind aATTEMPT hHOP nNODE <- parent" lines (sorted because forwarder-side
// spans of different attempts share every coordinate but their id).
func spanTree(rec *telemetry.SpanRecorder) []string {
	spans := rec.Spans()
	byID := make(map[telemetry.SpanID]telemetry.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	name := func(s telemetry.Span) string {
		return fmt.Sprintf("%s a%d h%d n%d", s.Kind, s.Attempt, s.Hop, s.Node)
	}
	var out []string
	for _, s := range spans {
		parent := "-"
		if s.Parent != 0 {
			parent = name(byID[s.Parent])
		}
		out = append(out, name(s)+" <- "+parent)
	}
	sort.Strings(out)
	return out
}

// TestDriverOverScriptedLink drives every outcome of the connection
// driver over a scripted link on an engine clock — the whole connection,
// timers included, runs on the test's goroutine — and pins, per outcome,
// the attempt windows, the backoff pauses, the causal span tree and that
// the pending-attempt table is empty afterwards.
func TestDriverOverScriptedLink(t *testing.T) {
	bk, err := onion.NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	contract, err := onion.NewSignedContract(1, 75, 150, bk.Public())
	if err != nil {
		t.Fatal(err)
	}
	const ms = time.Millisecond
	sendsTo := func(dead overlay.NodeID, f fate) func(from, to overlay.NodeID, m Message) fate {
		return func(from, to overlay.NodeID, m Message) fate {
			if to == dead && m.Kind == MsgForward {
				return f
			}
			return deliver
		}
	}
	firstSendTo := func(target overlay.NodeID, f fate) func(from, to overlay.NodeID, m Message) fate {
		done := false
		return func(from, to overlay.NodeID, m Message) fate {
			if to == target && !done {
				done = true
				return f
			}
			return deliver
		}
	}
	// Attempt 1 dies at node 1 (its successor 2 is gone), attempt 2 goes
	// through the backup relay 3.
	viaBackup := []string{
		"batch a0 h0 n0 <- -",
		"launch a1 h0 n0 <- batch a0 h0 n0",
		"hop a0 h0 n0 <- launch a1 h0 n0",
		"hop a0 h1 n1 <- hop a0 h0 n0",
		"nack a0 h2 n0 <- hop a0 h1 n1",
		"reform a2 h0 n0 <- nack a0 h2 n0",
		"launch a2 h0 n0 <- batch a0 h0 n0",
		"hop a0 h0 n0 <- launch a2 h0 n0",
		"hop a0 h1 n1 <- hop a0 h0 n0",
		"hop a0 h2 n3 <- hop a0 h1 n1",
		"respond a0 h3 n4 <- hop a0 h2 n3",
		"deliver a2 h0 n0 <- respond a0 h3 n4",
	}
	cases := []struct {
		name      string
		initiator overlay.NodeID
		retry     RetryPolicy
		timeout   time.Duration
		script    func(from, to overlay.NodeID, m Message) fate
		hideFrom  int
		secure    bool

		wantPath    []overlay.NodeID
		wantErr     string
		wantReforms int
		wantSends   int
		wantWindows []time.Duration
		wantPauses  []time.Duration
		wantSpans   []string
	}{
		{
			name:    "deliver",
			retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * ms, MaxBackoff: 300 * ms},
			timeout: 900 * ms,
			script:  sendsTo(overlay.None, deliver),

			wantPath:    []overlay.NodeID{0, 1, 2, 4},
			wantSends:   6, // three links out, three back: the launch crosses none
			wantWindows: []time.Duration{300 * ms},
			wantSpans: []string{
				"batch a0 h0 n0 <- -",
				"hop a0 h0 n0 <- launch a1 h0 n0",
				"hop a0 h1 n1 <- hop a0 h0 n0",
				"hop a0 h2 n2 <- hop a0 h1 n1",
				"respond a0 h3 n4 <- hop a0 h2 n2",
				"launch a1 h0 n0 <- batch a0 h0 n0",
				"deliver a1 h0 n0 <- respond a0 h3 n4",
			},
		},
		{
			name:    "nack-reform-deliver",
			retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * ms, MaxBackoff: 300 * ms},
			timeout: 900 * ms,
			script:  sendsTo(2, refuse),
			secure:  true,

			wantPath:    []overlay.NodeID{0, 1, 3, 4},
			wantReforms: 1,
			wantSends:   9, // 0→1, 1→2 refused, NACK 1→0; then 3 out, 3 back
			wantWindows: []time.Duration{300 * ms, 300 * ms},
			wantPauses:  []time.Duration{100 * ms},
			wantSpans:   viaBackup,
		},
		{
			name:    "lost-after-accept",
			retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * ms, MaxBackoff: 300 * ms},
			timeout: 900 * ms,
			script:  sendsTo(2, lose),

			wantPath:    []overlay.NodeID{0, 1, 3, 4},
			wantReforms: 1,
			wantSends:   9, // the NACK starts at node 1 itself and goes straight to 0
			wantWindows: []time.Duration{300 * ms, 300 * ms},
			wantPauses:  []time.Duration{100 * ms},
			wantSpans:   viaBackup,
		},
		{
			name:    "fatal-nack",
			retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * ms, MaxBackoff: 300 * ms},
			timeout: 900 * ms,
			script:  firstSendTo(1, tamper),
			secure:  true,

			wantErr:     "contract failed verification",
			wantSends:   2, // 0→1, fatal NACK 1→0; no retry
			wantWindows: []time.Duration{300 * ms},
			wantSpans: []string{
				"batch a0 h0 n0 <- -",
				"hop a0 h0 n0 <- launch a1 h0 n0",
				"nack a0 h2 n0 <- hop a0 h0 n0",
				"launch a1 h0 n0 <- batch a0 h0 n0",
				"fail a1 h0 n0 <- nack a0 h2 n0",
			},
		},
		{
			name:    "timeout-reform",
			retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * ms, MaxBackoff: 300 * ms},
			timeout: 900 * ms,
			script:  firstSendTo(2, swallow),

			wantPath:    []overlay.NodeID{0, 1, 2, 4},
			wantReforms: 1,
			wantSends:   8, // 0→1, 1→2 swallowed; then 3 out, 3 back
			wantWindows: []time.Duration{300 * ms, 300 * ms},
			wantPauses:  []time.Duration{100 * ms},
			wantSpans: []string{
				"batch a0 h0 n0 <- -",
				"hop a0 h0 n0 <- launch a1 h0 n0",
				"hop a0 h0 n0 <- launch a2 h0 n0",
				"hop a0 h1 n1 <- hop a0 h0 n0",
				"hop a0 h1 n1 <- hop a0 h0 n0",
				"hop a0 h2 n2 <- hop a0 h1 n1",
				"respond a0 h3 n4 <- hop a0 h2 n2",
				"launch a1 h0 n0 <- batch a0 h0 n0",
				"timeout a1 h0 n0 <- launch a1 h0 n0",
				"launch a2 h0 n0 <- batch a0 h0 n0",
				"deliver a2 h0 n0 <- respond a0 h3 n4",
				"reform a2 h0 n0 <- timeout a1 h0 n0",
			},
		},
		{
			// Every attempt dies on a synchronous NACK at the initiator, so
			// the only virtual time spent is backoff: 100 + 200 + 300 of the
			// 700 ms, which clips the last window to the 100 ms that remain.
			name:    "retries-exhausted",
			retry:   RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * ms, MaxBackoff: 300 * ms},
			timeout: 700 * ms,
			script:  sendsTo(1, refuse),

			wantErr:     "failed after 3 reformations: transport: next hop 1 departed",
			wantReforms: 3,
			wantSends:   4,
			wantWindows: []time.Duration{175 * ms, 175 * ms, 175 * ms, 100 * ms},
			wantPauses:  []time.Duration{100 * ms, 200 * ms, 300 * ms},
			wantSpans: []string{
				"batch a0 h0 n0 <- -",
				"hop a0 h0 n0 <- launch a1 h0 n0",
				"hop a0 h0 n0 <- launch a2 h0 n0",
				"hop a0 h0 n0 <- launch a3 h0 n0",
				"hop a0 h0 n0 <- launch a4 h0 n0",
				"nack a0 h1 n0 <- hop a0 h0 n0",
				"nack a0 h1 n0 <- hop a0 h0 n0",
				"nack a0 h1 n0 <- hop a0 h0 n0",
				"nack a0 h1 n0 <- hop a0 h0 n0",
				"launch a1 h0 n0 <- batch a0 h0 n0",
				"launch a2 h0 n0 <- batch a0 h0 n0",
				"reform a2 h0 n0 <- nack a0 h1 n0",
				"launch a3 h0 n0 <- batch a0 h0 n0",
				"reform a3 h0 n0 <- nack a0 h1 n0",
				"launch a4 h0 n0 <- batch a0 h0 n0",
				"reform a4 h0 n0 <- nack a0 h1 n0",
				"fail a4 h0 n0 <- nack a0 h1 n0",
			},
		},
		{
			name:      "initiator-not-hosted",
			initiator: 9,
			retry:     DefaultRetryPolicy(),
			timeout:   900 * ms,
			script:    sendsTo(overlay.None, deliver),

			wantErr: "unknown initiator 9",
		},
		{
			name:     "initiator-departs-before-launch",
			retry:    DefaultRetryPolicy(),
			timeout:  900 * ms,
			script:   sendsTo(overlay.None, deliver),
			hideFrom: 2, // hosted when validated, gone when launched

			wantErr: "initiator 0 departed",
			wantSpans: []string{
				"batch a0 h0 n0 <- -",
				"launch a1 h0 n0 <- batch a0 h0 n0",
				"fail a1 h0 n0 <- launch a1 h0 n0",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			clk := &scriptClock{Clock: vclock.Engine(eng)}
			r := &backupRouter{dead: make(map[overlay.NodeID]bool)}
			l := &scriptLink{stations: make(map[overlay.NodeID]*Station), script: tc.script, hideFrom: tc.hideFrom}
			d := NewDriver(l, "transport")
			l.d = d
			d.SetClock(clk)
			d.SetRetry(tc.retry)
			rec := telemetry.NewSpanRecorder(256)
			d.SetSpans(rec)
			for id := overlay.NodeID(0); id <= 4; id++ {
				l.stations[id] = NewStation(id, r)
				d.Joined(id, r)
			}
			var c *onion.SignedContract
			if tc.secure {
				c = contract
			}
			var res Outcome
			finished := false
			err := d.start(&connRec{done: func(o Outcome) { res, finished = o, true }}, tc.initiator, 4, 1, 1, 8, tc.timeout, c)
			eng.Run()
			if err == nil {
				if !finished {
					t.Fatal("the engine ran dry before the connection finished")
				}
				err = res.Err
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
			if !reflect.DeepEqual(res.Path, tc.wantPath) {
				t.Errorf("path %v, want %v", res.Path, tc.wantPath)
			}
			if res.Reformations != tc.wantReforms {
				t.Errorf("reformations %d, want %d", res.Reformations, tc.wantReforms)
			}
			if l.sends != tc.wantSends {
				t.Errorf("link saw %d sends, want %d", l.sends, tc.wantSends)
			}
			windows, pauses := clk.split()
			if !reflect.DeepEqual(windows, tc.wantWindows) {
				t.Errorf("attempt windows %v, want %v", windows, tc.wantWindows)
			}
			if !reflect.DeepEqual(pauses, tc.wantPauses) {
				t.Errorf("backoff pauses %v, want %v", pauses, tc.wantPauses)
			}
			sort.Strings(tc.wantSpans)
			if got := spanTree(rec); !reflect.DeepEqual(got, tc.wantSpans) {
				t.Errorf("span tree:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(tc.wantSpans, "\n  "))
			}
			if tc.secure && tc.wantErr == "" && len(res.Records) != len(res.Path)-2 {
				t.Errorf("%d sealed records for path %v", len(res.Records), res.Path)
			}
			// A NACK carries neither the signed contract nor the records
			// sealed so far: no reverse-path node reads them.
			for _, n := range l.nacks {
				if n.Secure != nil {
					t.Errorf("NACK carries a secure load: %+v", *n.Secure)
				}
			}
			if tc.secure && len(l.nacks) == 0 {
				t.Error("secure case put no NACK on the link")
			}
			if len(d.pending) != 0 {
				t.Errorf("%d attempts still pending after the outcome", len(d.pending))
			}
			if got := d.inst.malformed.Value(); got != 0 {
				t.Errorf("%d honest replies counted malformed", got)
			}
			// A message of an abandoned attempt that surfaces late runs its
			// course — the CONFIRM reaches the initiator — resolves nothing
			// and is counted stale.
			for _, h := range l.held {
				before, stale := rec.Total(), d.inst.staleReplies.Value()
				d.Handle(l.stations[h.to], &h.m)
				if rec.Total() == before {
					t.Error("late message was not handled")
				}
				if got := d.inst.staleReplies.Value(); got != stale+1 {
					t.Errorf("stale replies %d after a late CONFIRM, want %d", got, stale+1)
				}
				if len(d.pending) != 0 {
					t.Errorf("late message left %d attempts pending", len(d.pending))
				}
			}
		})
	}
}

// TestClosedBatchRefused settles a batch over the scripted link — each
// member's credited landing counted once and spanned once, the
// initiator's close neither — then replays a duplicate of a FORWARD it
// carried: the station that closed the batch refuses it — nothing sent,
// no routing, no history re-created — and counts it, as it
// counts a second settle, which emits no span. The record of closed
// batches has closedCap slots.
func TestClosedBatchRefused(t *testing.T) {
	topo := Topology{0: {1}, 1: {0, 2}, 2: {1, 4}, 4: {2}}
	r := NewUtilityRouter(topo, quality.DefaultWeights(), core.Contract{Pf: 1, Pr: 10}, nil)
	var dup Message
	l := &scriptLink{stations: make(map[overlay.NodeID]*Station), script: func(from, to overlay.NodeID, m Message) fate {
		if to == 1 && m.Kind == MsgForward {
			dup = m
		}
		return deliver
	}}
	d := NewDriver(l, "transport")
	l.d = d
	for id := range topo {
		l.stations[id] = NewStation(id, r)
	}
	const batch = 5
	out, err := d.RunBatch(0, 4, batch, 3, 8, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	relay := l.stations[1]
	if out.Forwards[1] != 3 || r.OpenBatches() != 1 {
		t.Fatalf("before settle: relay forwards %d, router histories %d; want 3 and 1", out.Forwards[1], r.OpenBatches())
	}

	// The settle lands on the initiator, crediting nothing, then on each
	// member: one count and one settle span per credit, under the root.
	rec := telemetry.NewSpanRecorder(16)
	d.SetSpans(rec)
	trace, root, err := d.SettleInitiator(0, batch, out)
	if err != nil {
		t.Fatal(err)
	}
	contract := core.Contract{Pf: 1, Pr: 10}
	for id := range out.Forwards {
		d.Settled(l.stations[id], batch, &Credit{Payoff: out.Payoff(id, contract), Trace: trace, Root: root})
	}
	settlements := d.Telemetry().Counter("transport_settlements_total", nil)
	if got := settlements.Value(); got != int64(len(out.Forwards)) {
		t.Errorf("settlements_total %d after settling %d members, want one per member", got, len(out.Forwards))
	}
	settleSpans := func() map[int]string {
		got := make(map[int]string)
		for _, s := range rec.Spans() {
			if s.Kind == telemetry.SpanSettle && s.Parent == root {
				got[s.Node] = s.Detail
			}
		}
		return got
	}
	want := make(map[int]string)
	for id := range out.Forwards {
		want[int(id)] = SettleDetail(out.Payoff(id, contract))
	}
	if got := settleSpans(); !reflect.DeepEqual(got, want) || rec.Total() != 1+len(want) {
		t.Errorf("settle spans %v of %d spans, want %v and the root", got, rec.Total(), want)
	}
	closed := d.Telemetry().Counter("transport_closed_batch_total", nil)
	sends := l.sends
	d.Handle(relay, &dup)
	if got := closed.Value(); got != 1 {
		t.Errorf("closed_batch_total %d after a duplicate FORWARD, want 1", got)
	}
	if l.sends != sends {
		t.Errorf("the duplicate FORWARD was routed: %d sends", l.sends-sends)
	}
	if _, held := r.batches[batch]; held {
		t.Error("closed batch re-created its router history")
	}
	spans := rec.Total()
	if ok := d.Settled(relay, batch, &Credit{Payoff: 99, Trace: trace, Root: root}); ok || closed.Value() != 2 {
		t.Errorf("second settle accepted=%v, closed_batch_total %d; want refused and 2", ok, closed.Value())
	}
	if rec.Total() != spans || settlements.Value() != int64(len(out.Forwards)) {
		t.Errorf("a refused settle left %d new spans and settlements_total %d", rec.Total()-spans, settlements.Value())
	}

	// The record is closedCap slots: closing a batch congruent to this one
	// mod closedCap evicts it, and its messages are no longer recognised.
	relay.CloseBatch(batch + closedCap)
	if relay.isClosed(batch) || !relay.isClosed(batch+closedCap) {
		t.Errorf("after closing %d: batch %d remembered %v, batch %d remembered %v",
			batch+closedCap, batch, relay.isClosed(batch), batch+closedCap, relay.isClosed(batch+closedCap))
	}
}

// TestForgedReplyRefused sends hand-made replies through Network.Send on
// a line of five in-process nodes while node 0's attempt to node 4 is
// pending: node 3's router sends the forged reply itself, so it is handled
// before the honest FORWARD to node 4. The forgeries are a Hop past the
// end of the path, a Hop below its start, a one-node path at the
// initiator, and a path that starts at node 2 and so ends its walk there.
// Each is refused and counted malformed — no node panics and the attempt
// stays pending, so no honest reply comes up stale — and the attempt
// completes over the honest path.
func TestForgedReplyRefused(t *testing.T) {
	cases := []struct {
		name string
		at   overlay.NodeID
		m    Message
	}{
		{"hop-past-path", 1, Message{Kind: MsgConfirm, Path: []overlay.NodeID{0}, Hop: 5}},
		{"hop-below-path", 2, Message{Kind: MsgConfirm, Path: []overlay.NodeID{0, 3, 4}, Hop: -1}},
		{"one-node-path", 0, Message{Kind: MsgConfirm, Path: []overlay.NodeID{0}, Hop: 0}},
		{"not-the-initiator", 2, Message{Kind: MsgConfirm, Path: []overlay.NodeID{2, 4}, Hop: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(0)
			t.Cleanup(net.Close)
			line := RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
				if self == 3 {
					net.pendMu.Lock()
					if len(net.pending) != 1 {
						t.Errorf("%d attempts pending, want 1", len(net.pending))
					}
					m := tc.m
					for aid := range net.pending {
						m.Attempt = aid
					}
					net.pendMu.Unlock()
					m.Batch, m.Conn, m.Initiator, m.Responder = 1, 1, 0, 4
					if !net.Send(3, tc.at, &m) {
						t.Errorf("node %d refused the reply", tc.at)
					}
				}
				return self + 1, false
			})
			for id := overlay.NodeID(0); id < 5; id++ {
				if err := net.Join(id, line); err != nil {
					t.Fatal(err)
				}
			}
			out, err := net.RunBatch(0, 4, 1, 1, 8, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if want := [][]overlay.NodeID{{0, 1, 2, 3, 4}}; !reflect.DeepEqual(out.Paths, want) {
				t.Errorf("paths %v, want %v", out.Paths, want)
			}
			malformed := net.Telemetry().Counter("transport_malformed_total", nil)
			stale := net.Telemetry().Counter("transport_stale_replies_total", nil)
			if malformed.Value() != 1 || stale.Value() != 0 {
				t.Errorf("malformed %d, stale %d; want 1 and 0", malformed.Value(), stale.Value())
			}
		})
	}
}

// FuzzDriverHandle throws arbitrary FORWARDs, CONFIRMs and NACKs — any
// batch, conn, attempt, Hop, Remaining and responder, a path of up to 16
// ids, hosted or not — at a station of a driver over the scripted link
// while one attempt from 0 to 4 is pending, its FORWARD swallowed on the
// way to 4. The stations route with a UtilityIIRouter over the line
// 0–1–2–3–4, so an admitted FORWARD sizes and fills its memo. Each send
// the message makes meets a fate the input picks. Whatever arrives,
// nothing panics, a FORWARD whose Remaining lies outside [0, MaxBudget] is
// refused and counted (malformed, or first as one for a closed batch)
// without a send, and the attempt resolves only at
// its initiator, and as a delivery only over a path from 0 to 4.
func FuzzDriverHandle(f *testing.F) {
	// The four forged replies of TestForgedReplyRefused, an honest
	// CONFIRM arriving at node 1 and an honest NACK from node 2; then
	// FORWARDs: the hostile budget of TestHostileBudgetRefused, a
	// negative one, an honest one that completes the pending attempt, and
	// one to a responder hosted nowhere. Path bytes b name node b%7−1 (−1
	// and 5 are hosted nowhere); kind is forward, confirm, nack mod 3.
	f.Add(uint8(1), uint8(1), 1, 1, 1, 5, 0, int8(4), []byte{1}, []byte{0})
	f.Add(uint8(2), uint8(1), 1, 1, 1, -1, 0, int8(4), []byte{1, 4, 5}, []byte{0})
	f.Add(uint8(0), uint8(1), 1, 1, 1, 0, 0, int8(4), []byte{1}, []byte{0})
	f.Add(uint8(2), uint8(1), 1, 1, 1, 0, 0, int8(4), []byte{3, 5}, []byte{0})
	f.Add(uint8(1), uint8(1), 1, 1, 1, 1, 0, int8(4), []byte{1, 2, 3, 5}, []byte{0, 1, 3})
	f.Add(uint8(2), uint8(2), 1, 1, 1, 2, 0, int8(4), []byte{1, 2, 3}, []byte{1, 0})
	f.Add(uint8(1), uint8(0), 1, 1, 1, 0, 1<<40, int8(4), []byte{1}, []byte{})
	f.Add(uint8(1), uint8(0), 1, 1, 1, 0, -1, int8(4), []byte{1}, []byte{})
	f.Add(uint8(1), uint8(0), 1, 1, 1, 0, 7, int8(4), []byte{1}, []byte{})
	f.Add(uint8(2), uint8(0), 1, 1, 1, 0, 3, int8(9), []byte{1, 2}, []byte{0, 3})
	f.Fuzz(func(t *testing.T, at, kind uint8, batch, conn, attempt, hop, remaining int, responder int8, path, fates []byte) {
		l := &scriptLink{stations: make(map[overlay.NodeID]*Station), script: func(from, to overlay.NodeID, m Message) fate {
			if to == 4 && m.Kind == MsgForward {
				return swallow
			}
			return deliver
		}}
		d := NewDriver(l, "transport")
		l.d = d
		d.SetClock(vclock.Engine(sim.NewEngine()))
		d.SetRetry(RetryPolicy{MaxAttempts: 1})
		line := Topology{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
		r := NewUtilityIIRouter(line, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(5))
		for id := overlay.NodeID(0); id <= 4; id++ {
			l.stations[id] = NewStation(id, r)
			d.Joined(id, r)
		}
		var res *Outcome
		var resolvedAt overlay.NodeID
		if err := d.start(&connRec{done: func(o Outcome) { res, resolvedAt = &o, l.at }}, 0, 4, 1, 1, 8, time.Second, nil); err != nil {
			t.Fatal(err)
		}
		if len(d.pending) != 1 || res != nil {
			t.Fatalf("%d attempts pending before the message, outcome %v", len(d.pending), res)
		}

		sends := 0
		l.script = func(from, to overlay.NodeID, m Message) fate {
			switch {
			case l.stations[to] == nil:
				return refuse // no link reaches a node hosted nowhere
			case len(fates) == 0:
				return deliver
			}
			sends++
			return [...]fate{deliver, refuse, swallow, lose}[fates[(sends-1)%len(fates)]%4]
		}
		m := Message{Kind: [...]MsgKind{MsgForward, MsgConfirm, MsgNack}[kind%3], Batch: batch, Conn: conn,
			Attempt: attempt, Hop: hop, Remaining: remaining, Responder: overlay.NodeID(responder), From: overlay.None}
		for _, b := range path[:min(len(path), 16)] {
			m.Path = append(m.Path, overlay.NodeID(int(b%7)-1))
			m.From = m.Path[len(m.Path)-1]
		}
		l.at = overlay.NodeID(at % 5)
		refused, linkSends := d.inst.malformed.Value()+d.inst.closedBatch.Value(), l.sends
		forward := m.Kind == MsgForward
		d.Handle(l.stations[l.at], &m)

		if now := d.inst.malformed.Value() + d.inst.closedBatch.Value(); forward &&
			(remaining < 0 || remaining > MaxBudget) && (now != refused+1 || l.sends != linkSends) {
			t.Fatalf("a FORWARD with Remaining %d: %d refusals counted, %d sends", remaining, now-refused, l.sends-linkSends)
		}
		if res == nil {
			if len(d.pending) != 1 {
				t.Fatalf("no outcome, yet %d attempts pending", len(d.pending))
			}
			return
		}
		if resolvedAt != 0 {
			t.Fatalf("the attempt resolved at node %d, not its initiator 0", resolvedAt)
		}
		if p := res.Path; res.Err == nil && (len(p) < 2 || p[0] != 0 || p[len(p)-1] != 4) {
			t.Fatalf("the attempt delivered over %v, not a path from 0 to 4", p)
		}
	})
}

// TestHostileBudgetRefused sends a UM-II station FORWARDs whose Remaining
// lies outside [0, MaxBudget]: 1<<40, which would size the router's memo
// at (2^40+1)×3 cells, and −1. Each is refused and counted malformed
// before it reaches the router, whose memo stays within MaxBudget, and
// the station keeps serving an honest connection. A connection asking
// for a budget past MaxBudget is refused up front.
func TestHostileBudgetRefused(t *testing.T) {
	topo := Topology{0: {1}, 1: {0, 2}, 2: {1}}
	r := NewUtilityIIRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(3))
	net := NewNetwork(0)
	t.Cleanup(net.Close)
	for id := overlay.NodeID(0); id < 3; id++ {
		if err := net.Join(id, r); err != nil {
			t.Fatal(err)
		}
	}
	malformed := net.Telemetry().Counter("transport_malformed_total", nil)
	for n, remaining := range []int{1 << 40, -1, MaxBudget + 1} {
		m := Message{Kind: MsgForward, Batch: 1, Conn: 1, Attempt: 1, From: 0, Initiator: 0, Responder: 2,
			Remaining: remaining, Path: []overlay.NodeID{0}}
		if !net.Send(0, 1, &m) {
			t.Fatal("node 1 refused the FORWARD")
		}
		if malformed.Value() != int64(n+1) {
			t.Fatalf("the FORWARD with Remaining %d was not counted malformed (%d)", remaining, malformed.Value())
		}
	}
	if _, _, err := net.ConnectDetail(0, 2, 2, 1, MaxBudget+1, 5*time.Second); err == nil {
		t.Fatalf("a budget of %d was accepted", MaxBudget+1)
	}
	out, err := net.RunBatch(0, 2, 3, 2, 4, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]overlay.NodeID{{0, 1, 2}, {0, 1, 2}}; !reflect.DeepEqual(out.Paths, want) {
		t.Errorf("paths %v, want %v", out.Paths, want)
	}
	r.cacheMu.Lock()
	hops := r.memoHops
	r.cacheMu.Unlock()
	if got := malformed.Value(); got != 3 || hops > MaxBudget {
		t.Errorf("malformed %d, memo sized for %d hops; want 3 and at most %d", got, hops, MaxBudget)
	}
}

// TestNegativeBatchRefused: a batch id is never negative, and a negative
// one must not read as a closed batch (a station's empty closed slot holds
// 0, which is −1's mark). A connection for batch −1 is refused up front,
// with an error and no message sent; a FORWARD or a settle for it is
// counted malformed, not as a closed batch, and the settle evicts no
// closed batch from the slot −1 maps to.
func TestNegativeBatchRefused(t *testing.T) {
	topo := Topology{0: {1}, 1: {0, 2}, 2: {1}}
	n := startNetwork(t, topo, RouterFunc(func(self, _, _, _ overlay.NodeID, _, _, _ int) (overlay.NodeID, bool) {
		return self + 1, false
	}))
	if _, _, err := n.ConnectDetail(0, 2, -1, 1, 4, time.Second); err == nil || n.Metrics().Sent != 0 {
		t.Fatalf("batch −1: err %v after %d sends, want an error and none", err, n.Metrics().Sent)
	}
	malformed := n.Telemetry().Counter("transport_malformed_total", nil)
	closed := n.Telemetry().Counter("transport_closed_batch_total", nil)
	m := Message{Kind: MsgForward, Batch: -1, Conn: 1, Attempt: 1, From: 0, Initiator: 0, Responder: 2,
		Remaining: 2, Path: []overlay.NodeID{0}}
	n.Handle(n.Local(1), &m)
	st := n.Local(1)
	st.CloseBatch(closedCap - 1)
	if n.Settled(st, -1, nil) || !st.isClosed(closedCap-1) {
		t.Fatal("a settle for batch −1 was accepted or evicted a closed batch")
	}
	if malformed.Value() != 2 || closed.Value() != 0 || n.Metrics().Sent != 0 {
		t.Fatalf("malformed %d, closed_batch %d, sends %d; want 2, 0 and 0", malformed.Value(), closed.Value(), n.Metrics().Sent)
	}
}

// Spans returns the attached span recorder, or nil.
func (d *Driver) Spans() *telemetry.SpanRecorder { return d.spans }
