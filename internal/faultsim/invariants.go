package faultsim

import (
	"fmt"
	"sort"
	"strings"

	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/telemetry"
)

// Invariant names, as reported in Violation.Invariant.
const (
	InvSettlement    = "settlement"           // every non-skipped batch settles without error
	InvConservation  = "payment-conservation" // credits are conserved and land where the rules say
	InvDoubleSettle  = "double-settle"        // no forwarder is paid twice in one batch
	InvContiguity    = "path-contiguity"      // delivered paths are backed by contiguous hop traces
	InvReformation   = "reformation-count"    // NACKs+timeouts balance reformations+failures
	InvReconcile     = "telemetry-reconcile"  // counters agree with the trace and the mirrored expectations
	InvTraceCapacity = "trace-capacity"       // the event log never overflowed
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

	// (7) Trace capacity first: the trace-backed checkers below are only
	// meaningful over a complete event history.
	if w.eventsDropped > 0 {
		add(InvTraceCapacity, "event log dropped %d events (cap %d); trace-backed invariants skipped", w.eventsDropped, w.plan.TraceCap)
		return out
	}
	events := w.events

	// (4) Path contiguity: every delivered connection's path must be backed
	// by a hop-forward trace at every position, in the delivering attempt.
	// "At least one" rather than "exactly one": a duplicated message can
	// legitimately re-trace a hop.
	type hopKey struct {
		batch, conn, hop, node int
		attempt                string
	}
	hops := make(map[hopKey]int)
	for _, ev := range events {
		if ev.Kind == KindHopForward {
			hops[hopKey{ev.Batch, ev.Conn, ev.Hop, ev.Node, ev.Detail}]++
		}
	}
	for _, rec := range w.batches {
		for conn, d := range rec.delivered {
			att := fmt.Sprintf("attempt %d", d.attempt)
			for i := 0; i+1 < len(d.path); i++ {
				if hops[hopKey{rec.batch, conn, i, int(d.path[i]), att}] == 0 {
					add(InvContiguity, "batch %d conn %d: delivered path %v has no hop-forward trace at position %d (node %d, %s)",
						rec.batch, conn, d.path, i, d.path[i], att)
				}
			}
		}
	}

	// (5) Reformation accounting: every NACK or timeout terminates exactly
	// one attempt, which either reforms or fails the connection. Failures
	// caused by an offline initiator at (re)launch consume no attempt.
	kindCount := make(map[EventKind]int64)
	var failedNonOffline int64
	for _, ev := range events {
		kindCount[ev.Kind]++
		if ev.Kind == KindFailed && !strings.HasPrefix(ev.Detail, "cause=offline") {
			failedNonOffline++
		}
	}
	lhs := kindCount[KindNack] + kindCount[KindTimeout]
	rhs := kindCount[KindReformation] + failedNonOffline
	if lhs != rhs {
		add(InvReformation, "%d NACKs + %d timeouts != %d reformations + %d non-offline failures",
			kindCount[KindNack], kindCount[KindTimeout],
			kindCount[KindReformation], failedNonOffline)
	}

	// (6) Reconciliation: the labelled counters and the structured trace
	// are two independent records of the same run; they must agree with
	// each other and with the expectations mirrored during injection.
	recon := []struct {
		metric string
		kind   EventKind
	}{
		{metricLaunches, KindLaunch},
		{metricHops, KindHopForward},
		{metricNacks, KindNack},
		{metricTimeouts, KindTimeout},
		{metricReforms, KindReformation},
		{metricDelivered, KindDelivered},
		{metricFailed, KindFailed},
		{metricFaults, KindFault},
	}
	for _, rc := range recon {
		if got, want := w.reg.Counter(rc.metric, nil).Value(), kindCount[rc.kind]; got != want {
			add(InvReconcile, "%s = %d but the trace holds %d %q events", rc.metric, got, want, rc.kind)
		}
	}
	var settledBatches int64
	var wantRejected int64
	for _, rec := range w.batches {
		if rec.settled {
			settledBatches++
			wantRejected += int64(rec.expectRejected)
		}
	}
	if got := w.reg.Counter("payment_settlements_total", nil).Value(); got != settledBatches {
		add(InvReconcile, "payment_settlements_total = %d, want %d settled batches", got, settledBatches)
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
