package faultsim

import (
	"fmt"
	"sort"

	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/telemetry"
)

// Invariant names, as reported in Violation.Invariant.
const (
	InvSettlement    = "settlement"           // every non-skipped batch settles without error
	InvConservation  = "payment-conservation" // credits are conserved and land where the rules say
	InvDoubleSettle  = "double-settle"        // no forwarder is paid twice in one batch
	InvContiguity    = "path-contiguity"      // delivered paths arrived as a CONFIRM over logged hop-forwards
	InvReformation   = "reformation-count"    // per connection, launches, reform spans and reported reformations agree
	InvReconcile     = "telemetry-reconcile"  // counters agree with the trace and the mirrored expectations
	InvTraceCapacity = "trace-capacity"       // neither the event log nor the span log overflowed
)

// Violation is one invariant failure found after a run.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// checkInvariants runs every post-run checker and returns the violations.
func (w *world) checkInvariants() []Violation {
	var out []Violation
	add := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	// (1) Settlement: any batch that tried to settle and errored.
	for _, rec := range w.batches {
		if rec.settleErr != nil {
			add(InvSettlement, "batch %d: %v", rec.batch, rec.settleErr)
		}
	}

	// (2a) Global conservation: money never appears or disappears.
	if got := w.bank.TotalBalance() + w.bank.Float(); got != w.openingTotal {
		add(InvConservation, "total balance + float = %d, want opening total %d", got, w.openingTotal)
	}

	// (2b) Per-account conservation: replay the payout rule over the
	// *legitimately minted* receipts and demand the bank agrees. A
	// double-paid claim moves real money and is caught exactly here.
	// Settlement errors leave partial payouts behind, so the per-account
	// ledger is only predictable on clean runs.
	if !w.anySettleErr {
		expected := make(map[payment.AccountID]payment.Amount, len(w.accounts))
		for id := range w.accounts {
			expected[payment.AccountID(id)] = payment.Amount(w.plan.Opening)
		}
		for _, rec := range w.batches {
			if rec.skipped || !rec.settled {
				continue
			}
			init := payment.AccountID(rec.initiator)
			expected[init] -= rec.lock
			var paid payment.Amount
			fwds := sortedForwarders(rec)
			if n := len(fwds); n > 0 {
				share := payment.Amount(w.plan.Pr) / payment.Amount(n)
				for _, f := range fwds {
					pay := payment.Amount(len(rec.receipts[f]))*payment.Amount(w.plan.Pf) + share
					expected[payment.AccountID(f)] += pay
					paid += pay
				}
			}
			expected[init] += rec.lock - paid
		}
		for _, id := range w.bank.Accounts() {
			if id == payment.AccountID(-1) {
				continue // escrow holding account, checked below
			}
			got, err := w.bank.Balance(id)
			if err != nil {
				add(InvConservation, "account %d: %v", id, err)
				continue
			}
			if want, ok := expected[id]; !ok {
				add(InvConservation, "account %d exists but was never opened by the harness", id)
			} else if got != want {
				add(InvConservation, "account %d holds %d, expected %d (delta %+d)", id, got, want, got-want)
			}
		}
		if bal, err := w.bank.Balance(payment.AccountID(-1)); err == nil && bal != 0 {
			add(InvConservation, "escrow holding account retains %d after all batches closed", bal)
		}
	}

	// (3) Double-settle: the bank's actual payout list pays one forwarder
	// at most once per batch.
	for _, rec := range w.batches {
		seen := make(map[payment.AccountID]int)
		for _, p := range rec.payouts {
			seen[p.Forwarder]++
		}
		for f, n := range seen {
			if n > 1 {
				add(InvDoubleSettle, "batch %d: forwarder %d settled %d times", rec.batch, f, n)
			}
		}
	}

	// (7) Trace capacity first: the log- and span-backed checkers below
	// are only meaningful over complete histories.
	if dropped := w.spans.Dropped(); w.eventsDropped > 0 || dropped > 0 {
		add(InvTraceCapacity, "event log dropped %d events, span log %d spans (cap %d); trace-backed invariants skipped",
			w.eventsDropped, dropped, w.plan.TraceCap)
		return out
	}
	type connKey struct{ batch, conn int }
	type logKey struct {
		connKey
		kind      EventKind
		hop, node int
		detail    string
	}
	logged := make(map[logKey]bool)
	kindCount := make(map[EventKind]int64)
	for _, ev := range w.events {
		kindCount[ev.Kind]++
		switch ev.Kind {
		case KindHopForward:
			logged[logKey{connKey{ev.Batch, ev.Conn}, ev.Kind, ev.Hop, ev.Node, ev.Detail}] = true
		case KindConfirm:
			logged[logKey{connKey{ev.Batch, ev.Conn}, ev.Kind, 0, 0, ev.Detail}] = true
		}
	}

	// (4) Path contiguity: every delivered path arrived at its initiator as
	// the CONFIRM of the delivering attempt, and the link carried that
	// attempt's FORWARD from each position but the responder's. "At least
	// one": a duplicated message can legitimately be logged twice.
	var refused int64
	for _, rec := range w.batches {
		for i, c := range rec.conns {
			k := connKey{rec.batch, i + 1}
			if c.refused {
				refused++
			}
			if c.path == nil {
				continue
			}
			if !logged[logKey{k, KindConfirm, 0, 0, pathDetail(c.attempt, c.path)}] {
				add(InvContiguity, "batch %d conn %d: delivered path %v (attempt %d) never reached the initiator as a CONFIRM",
					k.batch, k.conn, c.path, c.attempt)
			}
			for h := 0; h+1 < len(c.path); h++ {
				if !logged[logKey{k, KindHopForward, h, int(c.path[h]), attemptDetail(c.attempt)}] {
					add(InvContiguity, "batch %d conn %d: delivered path %v has no hop-forward at position %d (node %d, attempt %d)",
						k.batch, k.conn, c.path, h, c.path[h], c.attempt)
				}
			}
		}
	}

	// (5) Reformation accounting, per connection over the driver's spans:
	// every launch but the first follows a reform span, every reform is one
	// the driver reported, and the connection ends in exactly one deliver
	// or fail. A refused connection has no spans at all.
	type tally struct{ launch, reform, terminal int }
	spans := make(map[connKey]tally)
	for _, s := range w.spans.Spans() {
		k := connKey{s.Batch, s.Conn}
		t := spans[k]
		switch s.Kind {
		case telemetry.SpanLaunch:
			t.launch++
		case telemetry.SpanReform:
			t.reform++
		case telemetry.SpanDeliver, telemetry.SpanFail:
			t.terminal++
		}
		spans[k] = t
	}
	for _, rec := range w.batches {
		for i, c := range rec.conns {
			t := spans[connKey{rec.batch, i + 1}]
			launched := 1
			if c.refused {
				launched = 0
			}
			if t.launch != t.reform+launched || t.reform != c.reforms || t.terminal != launched {
				add(InvReformation, "batch %d conn %d: %d launch, %d reform and %d deliver/fail spans for %d reported reformations",
					rec.batch, i+1, t.launch, t.reform, t.terminal, c.reforms)
			}
		}
	}

	// (6) Reconciliation: the event log and the driver's instruments are
	// two independent records of the same run; they must agree with each
	// other and with the expectations mirrored during injection.
	ok := w.reg.Counter(metricConns, telemetry.Labels{"result": "ok"}).Value()
	fail := w.reg.Counter(metricConns, telemetry.Labels{"result": "fail"}).Value()
	for _, rc := range []struct {
		what      string
		got, want int64
	}{
		{"launch events vs connections ok+fail+refused", kindCount[KindLaunch], ok + fail + refused},
		{"delivered events vs " + metricConns + "{result=ok}", kindCount[KindDelivered], ok},
		{"failed events vs " + metricConns + "{result=fail}+refused", kindCount[KindFailed], fail + refused},
		{"reformation events vs " + metricReforms, kindCount[KindReformation], w.reg.Counter(metricReforms, nil).Value()},
		{"fault events vs " + metricFaults, kindCount[KindFault], w.cFaults.Value()},
		{metricMalformed + " (the world drops, delays and copies, never forges)", w.reg.Counter(metricMalformed, nil).Value(), 0},
	} {
		if rc.got != rc.want {
			add(InvReconcile, "%s: %d != %d", rc.what, rc.got, rc.want)
		}
	}
	var settledBatches, payouts, wantRejected int64
	for _, rec := range w.batches {
		if rec.settled {
			settledBatches++
			payouts += int64(len(rec.payouts))
			wantRejected += int64(rec.expectRejected)
		}
	}
	if got := w.reg.Counter("payment_settlements_total", nil).Value(); got != settledBatches {
		add(InvReconcile, "payment_settlements_total = %d, want %d settled batches", got, settledBatches)
	}
	if got := w.reg.Counter(metricSettlements, nil).Value(); got != payouts {
		add(InvReconcile, "%s = %d, want the settled batches' %d payouts", metricSettlements, got, payouts)
	}
	if got, want := kindCount[KindSettled], settledBatches; got != want {
		add(InvReconcile, "trace holds %d settled events, want %d", got, want)
	}
	dsCounter := w.reg.Counter("payment_cheats_detected_total", telemetry.Labels{"kind": "double_spend"})
	if got := dsCounter.Value(); got != int64(w.expectCheatsDS) {
		add(InvReconcile, "payment_cheats_detected_total{kind=double_spend} = %d, want %d replayed serials", got, w.expectCheatsDS)
	}
	rrCounter := w.reg.Counter("payment_cheats_detected_total", telemetry.Labels{"kind": "rejected_receipt"})
	if got := rrCounter.Value(); got != wantRejected {
		add(InvReconcile, "payment_cheats_detected_total{kind=rejected_receipt} = %d, want %d mirrored rejections", got, wantRejected)
	}
	return out
}

// sortedForwarders returns the batch's legitimately receipted forwarders
// in ascending order.
func sortedForwarders(rec *batchRecord) []overlay.NodeID {
	fwds := make([]overlay.NodeID, 0, len(rec.receipts))
	for f, rs := range rec.receipts {
		if len(rs) > 0 {
			fwds = append(fwds, f)
		}
	}
	sort.Slice(fwds, func(i, j int) bool { return fwds[i] < fwds[j] })
	return fwds
}
