// Package conformance pins the behavioral contract shared by the
// forwarding backends: the in-process transport.Network, on the real
// clock and on the engine clock the fault world runs it on, the TCP
// loopback netwire.Cluster, and netwire runtimes partitioned as the
// process cluster's workers are. One table of behavioral cases — delivery,
// NACK-driven path reformation, churn mid-batch, the bounded-retry
// schedule, per-message deadline expiry, and split-payment settlement
// totals — is executed against every backend through the shared
// transport.Conductor surface, and each deterministic case additionally
// emits a canonical transcript that must be byte-identical across
// backends. The protocol itself runs once, in transport.Driver, and so
// does the landing of a settlement (Driver.Settled closes, counts and
// spans it wherever it arrives); what can still drift is what each
// backend's links answer (when a send is refused, when a message
// expires, which members a settle reaches), and a change that makes them
// drift fails here before it can mislead an experiment.
//
// No binary runs the suite, so it lives in test files: conformance is a
// test-only package. A backend registers itself with one Backend literal
// in Backends and inherits the whole table.
package conformance

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/trace"
	"p2panon/internal/transport"
)

// Backend names one forwarding backend and knows how to build a fresh,
// empty conductor with the given per-link latency. The constructor must
// arrange teardown itself (t.Cleanup) so a failing case never leaks
// goroutines into the next one.
type Backend struct {
	Name string
	New  func(t testing.TB, latency time.Duration) transport.Conductor
}

// tcase is one row of the conformance table. run drives a fresh conductor
// and returns the case's canonical transcript; a nil transcript marks a
// case whose counters are legitimately timing-dependent (only its
// per-backend invariants are asserted, not cross-backend equality).
type tcase struct {
	name string
	run  func(t *testing.T, b Backend) []string
}

// Run executes the full conformance table against every backend and
// asserts the deterministic cases' transcripts are byte-identical across
// backends.
func Run(t *testing.T, backends []Backend) {
	if len(backends) == 0 {
		t.Fatal("conformance: no backends")
	}
	for _, c := range cases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			type outcome struct {
				backend    string
				transcript []string
			}
			var got []outcome
			for _, b := range backends {
				b := b
				t.Run(b.Name, func(t *testing.T) {
					tr := c.run(t, b)
					if tr != nil {
						got = append(got, outcome{b.Name, tr})
					}
				})
			}
			for i := 1; i < len(got); i++ {
				if diff := transcriptDiff(got[0].transcript, got[i].transcript); diff != "" {
					t.Errorf("backends %s and %s drifted on %s:\n%s",
						got[0].backend, got[i].backend, c.name, diff)
				}
			}
		})
	}
}

// transcriptDiff reports the first divergence between two transcripts.
func transcriptDiff(a, b []string) string {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var la, lb string
		if i < len(a) {
			la = a[i]
		}
		if i < len(b) {
			lb = b[i]
		}
		if la != lb {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i, la, lb)
		}
	}
	return ""
}

// outcomeLines renders the protocol-outcome counters every backend must
// agree on for a deterministic schedule. The link-model counters (Sent,
// Dropped, Expired high-water marks) are deliberately excluded here: a
// socket cannot know at enqueue time whether its dial will succeed, so
// their exact values are backend-specific and asserted per-case instead.
func outcomeLines(m transport.MetricsSnapshot) []string {
	return []string{
		fmt.Sprintf("connects=%d failures=%d", m.Connects, m.Failures),
		fmt.Sprintf("nacks=%d contract-rejects=%d timeouts=%d reformations=%d",
			m.Nacks, m.ContractRejects, m.Timeouts, m.Reformations),
	}
}

// pathLine renders a realised path canonically.
func pathLine(path []overlay.NodeID) string {
	return fmt.Sprintf("path=%v", path)
}

// attachSpans gives cd a recorder in the canonical, byte-comparable
// configuration: fixed seed, no clock.
func attachSpans(cd transport.Conductor) *telemetry.SpanRecorder {
	rec := telemetry.NewSpanRecorder(1 << 12)
	rec.SetSeed(42)
	cd.SetSpans(rec)
	return rec
}

// spanLines renders the recorded span log canonically, one transcript
// line per span. Span ids are chain hashes of causal coordinates carried
// in the trace context, so every backend must mint the same log —
// failure paths (nack, reform, timeout, fail) included.
func spanLines(t *testing.T, rec *telemetry.SpanRecorder) []string {
	t.Helper()
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d spans", rec.Dropped())
	}
	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
}

// settlementLines renders a batch's split-payment settlement canonically:
// per-forwarder instance counts and exact payoff bits (m·P_f + P_r/‖π‖),
// sorted by node ID, plus the realised paths. Byte equality across
// backends is the acceptance bar: the same workload must owe every
// forwarder the bit-identical amount no matter which wire carried it.
func settlementLines(out *transport.BatchOutcome, c core.Contract) []string {
	lines := []string{fmt.Sprintf("set-size=%d reformations=%d", out.SetSize(), out.Reformations)}
	ids := make([]overlay.NodeID, 0, len(out.Forwards))
	for id := range out.Forwards {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: tiny sets
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		lines = append(lines, fmt.Sprintf("settle node=%d forwards=%d payoff-bits=%016x",
			id, out.Forwards[id], math.Float64bits(out.Payoff(id, c))))
	}
	for _, p := range out.Paths {
		lines = append(lines, pathLine(p))
	}
	return lines
}

// lineRouter forces the deterministic path I → I+1 → … → R over a line
// topology, making paths, forwarder sets and settlement totals exactly
// comparable across backends.
func lineRouter() transport.Router {
	return transport.RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		next := self + 1
		if next == responder {
			return responder, true
		}
		return next, false
	})
}

// joinLine adds nodes 0..n-1 with the line router and returns the
// conductor.
func joinLine(t testing.TB, b Backend, n int, latency time.Duration) transport.Conductor {
	t.Helper()
	cd := b.New(t, latency)
	r := lineRouter()
	for id := 0; id < n; id++ {
		if err := cd.Join(overlay.NodeID(id), r); err != nil {
			t.Fatal(err)
		}
	}
	return cd
}

// pickRouter routes the initiator through a preferred relay until that
// relay is learned dead (MarkDead — the live failure-detection signal),
// then through the backup; relays deliver directly. It is the minimal
// deterministic router that exercises NACK-driven reformation.
type pickRouter struct {
	primary, backup overlay.NodeID

	mu   sync.Mutex
	dead map[overlay.NodeID]bool
}

func newPickRouter(primary, backup overlay.NodeID) *pickRouter {
	return &pickRouter{primary: primary, backup: backup, dead: make(map[overlay.NodeID]bool)}
}

func (r *pickRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	if self == r.primary || self == r.backup {
		return responder, true
	}
	r.mu.Lock()
	deadPrimary := r.dead[r.primary]
	r.mu.Unlock()
	if deadPrimary {
		return r.backup, false
	}
	return r.primary, false
}

func (r *pickRouter) MarkDead(id overlay.NodeID) {
	r.mu.Lock()
	r.dead[id] = true
	r.mu.Unlock()
}

func (r *pickRouter) MarkLive(id overlay.NodeID) {
	r.mu.Lock()
	delete(r.dead, id)
	r.mu.Unlock()
}

// fastRetry is a tight deterministic schedule for the failure cases.
var fastRetry = transport.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}

func cases() []tcase {
	return []tcase{
		{name: "delivery", run: caseDelivery},
		{name: "nack-reformation", run: caseNackReformation},
		{name: "retry-schedule", run: caseRetrySchedule},
		{name: "churn-mid-batch", run: caseChurnMidBatch},
		{name: "timeout-deadline", run: caseTimeoutDeadline},
		{name: "settlement-totals", run: caseSettlementTotals},
		{name: "secure-batch", run: caseSecureBatch},
		{name: "span-transcript", run: caseSpanTranscript},
		{name: "settle-after-departure", run: caseSettleAfterDeparture},
	}
}

// caseDelivery: a forced 5-node line must realise exactly [0 1 2 3 4]
// with no failures, no NACKs and no reformations.
func caseDelivery(t *testing.T, b Backend) []string {
	cd := joinLine(t, b, 5, 0)
	path, reforms, err := cd.ConnectDetail(0, 4, 1, 1, 8, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reforms != 0 {
		t.Fatalf("reformations = %d on an undisturbed line", reforms)
	}
	want := []overlay.NodeID{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	m := cd.Metrics()
	if m.Connects != 1 || m.Failures != 0 || m.Nacks != 0 || m.Timeouts != 0 {
		t.Fatalf("counters after clean delivery: %+v", m)
	}
	if m.Sent == 0 {
		t.Fatal("no messages counted as sent")
	}
	return append([]string{pathLine(path), fmt.Sprintf("reformations=%d", reforms)}, outcomeLines(m)...)
}

// caseNackReformation: the initiator's preferred relay is dead before the
// connection launches. Attempt 1 must fail with exactly one NACK, the
// router must learn the corpse from MarkDead, and attempt 2 must deliver
// via the backup — one reformation, identical on both backends.
func caseNackReformation(t *testing.T, b Backend) []string {
	cd := b.New(t, 0)
	r := newPickRouter(1, 2)
	for id := 0; id < 4; id++ {
		if err := cd.Join(overlay.NodeID(id), r); err != nil {
			t.Fatal(err)
		}
	}
	cd.SetRetry(fastRetry)
	rec := attachSpans(cd)
	cd.RemovePeer(1)
	path, reforms, err := cd.ConnectDetail(0, 3, 1, 1, 4, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reforms != 1 {
		t.Fatalf("reformations = %d, want exactly 1", reforms)
	}
	if len(path) != 3 || path[0] != 0 || path[1] != 2 || path[2] != 3 {
		t.Fatalf("reformed path %v, want [0 2 3]", path)
	}
	m := cd.Metrics()
	if m.Nacks != 1 || m.Connects != 1 || m.Failures != 0 {
		t.Fatalf("counters after one reformation: %+v", m)
	}
	lines := append([]string{pathLine(path), fmt.Sprintf("reformations=%d", reforms)}, outcomeLines(m)...)
	return append(lines, spanLines(t, rec)...)
}

// caseRetrySchedule: a router pinned through a permanently dead relay
// must spend the exact bounded-retry budget — MaxAttempts attempts, each
// ending in one synchronous NACK (the dial/delivery is refused before any
// bytes flow), MaxAttempts−1 reformations — and then fail terminally.
func caseRetrySchedule(t *testing.T, b Backend) []string {
	pinned := transport.RouterFunc(func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
		return 1, false // always via the corpse
	})
	cd := b.New(t, 0)
	for id := 0; id < 3; id++ {
		if err := cd.Join(overlay.NodeID(id), pinned); err != nil {
			t.Fatal(err)
		}
	}
	cd.SetRetry(fastRetry)
	rec := attachSpans(cd)
	cd.RemovePeer(1)
	_, reforms, err := cd.ConnectDetail(0, 2, 1, 1, 10, 5*time.Second)
	if err == nil {
		t.Fatal("connection through a permanently dead relay succeeded")
	}
	if reforms != fastRetry.MaxAttempts-1 {
		t.Fatalf("reformations = %d, want MaxAttempts-1 = %d", reforms, fastRetry.MaxAttempts-1)
	}
	m := cd.Metrics()
	if m.Failures != 1 || m.Connects != 0 {
		t.Fatalf("failures = %d connects = %d, want 1 and 0", m.Failures, m.Connects)
	}
	if m.Nacks != int64(fastRetry.MaxAttempts) {
		t.Fatalf("nacks = %d, want one per attempt = %d", m.Nacks, fastRetry.MaxAttempts)
	}
	if m.Dropped != int64(fastRetry.MaxAttempts) {
		t.Fatalf("dropped = %d, want one refused delivery per attempt = %d", m.Dropped, fastRetry.MaxAttempts)
	}
	lines := append([]string{
		"terminal=failed",
		fmt.Sprintf("reformations=%d dropped=%d", reforms, m.Dropped),
	}, outcomeLines(m)...)
	return append(lines, spanLines(t, rec)...)
}

// caseChurnMidBatch: the preferred relay is abruptly killed halfway
// through a 6-connection batch. Every connection must still complete
// (reformation routes around the corpse within the retry budget), the
// failure must surface in the counters, and post-churn paths must use the
// backup relay. The exact NACK/timeout split is backend-specific — TCP
// may lose a frame into a dying socket and only learn on the next write,
// where the in-process runtime fails synchronously — so this case asserts
// invariants per backend instead of a shared transcript.
func caseChurnMidBatch(t *testing.T, b Backend) []string {
	cd := b.New(t, 0)
	r := newPickRouter(1, 2)
	for id := 0; id < 4; id++ {
		if err := cd.Join(overlay.NodeID(id), r); err != nil {
			t.Fatal(err)
		}
	}
	cd.SetRetry(transport.RetryPolicy{MaxAttempts: 4, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond})
	const k = 6
	pairs := []trace.Pair{{Index: 0, Initiator: 0, Responder: 3, Connections: k}}
	res := transport.RunTrace(cd.ConnectDetail, pairs, transport.TraceOptions{
		Budget:  4,
		Timeout: 8 * time.Second,
		Before: func(i int, sofar *transport.TraceResult) {
			if i == k/2 {
				cd.RemovePeer(1)
			}
		},
	})
	if res.Completed != k || res.Failed != 0 {
		t.Fatalf("completed %d failed %d of %d despite the reformation budget", res.Completed, res.Failed, k)
	}
	if res.Reformations == 0 {
		t.Fatal("killed relay forced no reformation")
	}
	out := res.Outcomes[0]
	if len(out.Paths) != k {
		t.Fatalf("recorded %d paths, want %d", len(out.Paths), k)
	}
	for i, p := range out.Paths {
		if len(p) != 3 || p[0] != 0 || p[len(p)-1] != 3 {
			t.Fatalf("path %d = %v, want endpoints 0..3 via one relay", i, p)
		}
	}
	// The last connection launches well after the kill: the router has
	// learned the corpse by then and must route via the backup.
	if last := out.Paths[k-1]; last[1] != 2 {
		t.Fatalf("post-churn path %v still uses the killed relay", last)
	}
	m := cd.Metrics()
	if m.Nacks == 0 && m.Timeouts == 0 && m.Dropped == 0 {
		t.Fatalf("the kill never surfaced in metrics: %+v", m)
	}
	return nil // timing-dependent counters: per-backend invariants only
}

// caseTimeoutDeadline: with link latency greater than the attempt window,
// the connection must time out AND the in-flight message must die in the
// network — the per-message deadline both backends now carry (transport's
// expired counter, netwire's op=expired deadline hit). One conformance
// case asserts the same timeout discipline on both.
func caseTimeoutDeadline(t *testing.T, b Backend) []string {
	const latency = 60 * time.Millisecond
	const window = 25 * time.Millisecond
	cd := joinLine(t, b, 3, latency)
	cd.SetRetry(transport.RetryPolicy{MaxAttempts: 1})
	rec := attachSpans(cd)
	_, _, err := cd.ConnectDetail(0, 2, 1, 1, 6, window)
	if err == nil {
		t.Fatal("connection outran a latency larger than its window")
	}
	// The attempt timer has fired; the stale message dies asynchronously
	// when the link finally delivers it. Poll briefly for the expiry count.
	deadline := time.Now().Add(2 * time.Second)
	var m transport.MetricsSnapshot
	for {
		m = cd.Metrics()
		if m.Expired >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.Timeouts != 1 || m.Failures != 1 || m.Connects != 0 {
		t.Fatalf("timeouts=%d failures=%d connects=%d, want 1/1/0", m.Timeouts, m.Failures, m.Connects)
	}
	if m.Expired != 1 {
		t.Fatalf("expired = %d, want exactly the one in-flight message", m.Expired)
	}
	lines := append([]string{
		"terminal=timeout",
		fmt.Sprintf("expired=%d", m.Expired),
	}, outcomeLines(m)...)
	return append(lines, spanLines(t, rec)...)
}

// caseSettlementTotals is the acceptance bar: one 5-connection batch over
// a forced line, settled under the paper's split payment, must owe every
// forwarder the bit-identical amount on both backends.
func caseSettlementTotals(t *testing.T, b Backend) []string {
	cd := joinLine(t, b, 5, 0)
	out, err := cd.RunBatch(0, 4, 9, 5, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.SetSize() != 3 {
		t.Fatalf("forwarder set %d, want {1,2,3}", out.SetSize())
	}
	contract := core.Contract{Pf: 1.5, Pr: 20}
	for _, id := range []overlay.NodeID{1, 2, 3} {
		want := float64(out.Forwards[id])*contract.Pf + contract.Pr/float64(out.SetSize())
		if got := out.Payoff(id, contract); got != want || out.Forwards[id] != 5 {
			t.Fatalf("node %d: payoff %v forwards %d, want %v and 5", id, got, out.Forwards[id], want)
		}
	}
	return settlementLines(out, contract)
}

// caseSpanTranscript is the causal-tracing acceptance bar: the same
// seeded workload — a 2-connection batch over a forced line, settled
// under the paper's split payment — must produce a byte-identical span
// log on every backend. Span ids are chain hashes of causal coordinates
// carried in the trace context, so the TCP backend's remote nodes mint
// exactly the ids the in-process backend derives locally, no matter how
// the sockets interleave.
func caseSpanTranscript(t *testing.T, b Backend) []string {
	cd := joinLine(t, b, 5, 0)
	rec := attachSpans(cd)

	const k = 2
	out, err := cd.RunBatch(0, 4, 3, k, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	contract := core.Contract{Pf: 1.5, Pr: 20}
	if _, err := cd.SettleBatch(0, 3, out, contract); err != nil {
		t.Fatal(err)
	}
	// Per connection: launch, one hop span per non-responder path member,
	// respond, deliver; one deduplicated batch root; one settle span per
	// forwarder. Settle frames land asynchronously on the TCP backend, so
	// poll for the full count before dumping.
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
	return spanLines(t, rec)
}

// caseSettleAfterDeparture pins where a settlement lands: forwarder 2 of
// a 2-connection batch over a forced 5-line departs before the settle, so
// the settle reaches the initiator and members 1 and 3 only — one credit
// and one settle span each, none for the departed node — and settling the
// batch again is refused everywhere it lands, crediting and spanning
// nothing. Settle frames land asynchronously on the socket backends, so
// the case polls the recorder and the counters before each reading.
func caseSettleAfterDeparture(t *testing.T, b Backend) []string {
	// Instrumented before the first node starts, as Instrument requires.
	cd := b.New(t, 0)
	reg := telemetry.NewRegistry()
	cd.Instrument(reg)
	for id := 0; id < 5; id++ {
		if err := cd.Join(overlay.NodeID(id), lineRouter()); err != nil {
			t.Fatal(err)
		}
	}
	rec := attachSpans(cd)
	// The protocol families are named from the backend's prefix.
	counter := func(suffix string) int64 {
		return reg.Counter("transport"+suffix, nil).Value() + reg.Counter("netwire"+suffix, nil).Value()
	}
	waitFor := func(what string, want int64, got func() int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for got() < want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if n := got(); n != want {
			t.Fatalf("%s = %d, want %d", what, n, want)
		}
	}

	out, err := cd.RunBatch(0, 4, 3, 2, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cd.RemovePeer(2)
	contract := core.Contract{Pf: 1.5, Pr: 20}
	if _, err := cd.SettleBatch(0, 3, out, contract); err != nil {
		t.Fatal(err)
	}
	// Per connection: launch, a hop span per non-responder path member,
	// respond, deliver; the batch root; a settle span per member reached.
	want := int64(1 + 2)
	for _, p := range out.Paths {
		want += 1 + int64(len(p)-1) + 1 + 1
	}
	waitFor("spans", want, func() int64 { return int64(rec.Total()) })
	waitFor("settlements", 2, func() int64 { return counter("_settlements_total") })

	if _, err := cd.SettleBatch(0, 3, out, contract); err != nil {
		t.Fatal(err)
	}
	// Refused at the initiator and at members 1 and 3.
	waitFor("closed-batch refusals", 3, func() int64 { return counter("_closed_batch_total") })
	waitFor("spans after the repeat", want, func() int64 { return int64(rec.Total()) })
	lines := []string{fmt.Sprintf("settlements=%d closed-batch=%d",
		counter("_settlements_total"), counter("_closed_batch_total"))}
	return append(lines, spanLines(t, rec)...)
}

// caseSecureBatch runs the §5 protocol over both backends: contract
// verification at every forwarder, sealed per-hop records travelling back
// in the confirms, initiator-side path validation with the batch key —
// and a tampered contract must be refused before any traffic.
func caseSecureBatch(t *testing.T, b Backend) []string {
	bk, err := onion.NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	contract, err := onion.NewSignedContract(7, 1.5, 20, bk.Public())
	if err != nil {
		t.Fatal(err)
	}
	cd := joinLine(t, b, 5, 0)
	out, err := cd.RunSecureBatch(0, 4, contract, bk, 3, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.SetSize() != 3 {
		t.Fatalf("validated forwarder set %d, want 3", out.SetSize())
	}
	m := cd.Metrics()
	if m.Connects != 3 || m.Failures != 0 || m.ContractRejects != 0 {
		t.Fatalf("counters after a clean secure batch: %+v", m)
	}

	tampered := *contract
	tampered.Sig = append([]byte(nil), contract.Sig...)
	tampered.Sig[0] ^= 0xff
	if _, err := cd.RunSecureBatch(0, 4, &tampered, bk, 1, 8, 5*time.Second); err == nil {
		t.Fatal("tampered contract accepted")
	}

	lines := settlementLines(out, core.Contract{Pf: contract.Pf, Pr: contract.Pr})
	lines = append(lines, "tampered=rejected")
	return append(lines, outcomeLines(m)...)
}
