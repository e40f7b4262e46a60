package faultsim

import (
	"fmt"
	"slices"
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
	InvContiguity    = "path-contiguity"      // each deliver span's parent chain names exactly its path
	InvReformation   = "reformation-count"    // per connection, launches, reform spans and reported reformations agree
	InvReconcile     = "telemetry-reconcile"  // counters agree with the span log and the mirrored expectations
	InvTraceCapacity = "trace-capacity"       // the span log did not overflow
)

// Violation is one invariant failure found after a run.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// violations collects what a checker finds.
type violations []Violation

func (vs *violations) add(inv, format string, args ...any) {
	*vs = append(*vs, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// connKey names one connection of a run.
type connKey struct{ batch, conn int }

// checkInvariants runs every post-run checker over the world's state and
// its span log: spans, short of the dropped ones the recorder refused.
func (w *world) checkInvariants(spans []telemetry.Span, dropped uint64) []Violation {
	var out violations
	add := out.add

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
	// at most once per batch. Reported by ascending forwarder.
	for _, rec := range w.batches {
		seen := make(map[payment.AccountID]int)
		for _, p := range rec.payouts {
			seen[p.Forwarder]++
		}
		var twice []payment.AccountID
		for f, n := range seen {
			if n > 1 {
				twice = append(twice, f)
			}
		}
		slices.Sort(twice)
		for _, f := range twice {
			add(InvDoubleSettle, "batch %d: forwarder %d settled %d times", rec.batch, f, seen[f])
		}
	}

	// (7) Trace capacity first, then the span log's own checks; (4)–(6)
	// below are only meaningful over a complete log.
	paths, complete := checkSpanLog(&out, spans, dropped)
	if !complete {
		return out
	}

	// (4) Path contiguity: every delivered path is exactly the one its
	// deliver span's parent chain names.
	for _, rec := range w.batches {
		for i, c := range rec.conns {
			if c.path == nil {
				continue
			}
			if got, ok := paths[connKey{rec.batch, i + 1}]; !ok || !slices.Equal(got, c.path) {
				add(InvContiguity, "batch %d conn %d: delivered path %v, deliver span chain names %v",
					rec.batch, i+1, c.path, got)
			}
		}
	}

	// (5) Reformation accounting, per connection over the driver's spans:
	// every launch but the first follows a reform span, every reform is one
	// the driver reported, and the connection ends in exactly one deliver
	// or fail. A refused connection has no spans at all.
	type tally struct{ launch, reform, terminal int }
	tallies := make(map[connKey]tally)
	kinds := make(map[telemetry.SpanKind]int64)
	for _, s := range spans {
		kinds[s.Kind]++
		k := connKey{s.Batch, s.Conn}
		t := tallies[k]
		switch s.Kind {
		case telemetry.SpanLaunch:
			t.launch++
		case telemetry.SpanReform:
			t.reform++
		case telemetry.SpanDeliver, telemetry.SpanFail:
			t.terminal++
		}
		tallies[k] = t
	}
	for _, rec := range w.batches {
		for i, c := range rec.conns {
			t := tallies[connKey{rec.batch, i + 1}]
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

	// (6) Reconciliation: the span log and the driver's instruments must
	// agree with each other and with the expectations mirrored during
	// injection.
	ok := w.reg.Counter(metricConns, telemetry.Labels{"result": "ok"}).Value()
	fail := w.reg.Counter(metricConns, telemetry.Labels{"result": "fail"}).Value()
	for _, rc := range []struct {
		what      string
		got, want int64
	}{
		{"deliver spans vs " + metricConns + "{result=ok}", kinds[telemetry.SpanDeliver], ok},
		{"fail spans vs " + metricConns + "{result=fail}", kinds[telemetry.SpanFail], fail},
		{"reform spans vs " + metricReforms, kinds[telemetry.SpanReform], w.reg.Counter(metricReforms, nil).Value()},
		{"fault spans vs " + metricFaults, kinds[telemetry.SpanFault], w.cFaults.Value()},
		{"settle spans vs " + metricSettlements, kinds[telemetry.SpanSettle], w.reg.Counter(metricSettlements, nil).Value()},
		{metricMalformed + " (the world drops, delays and copies, never forges)", w.reg.Counter(metricMalformed, nil).Value(), 0},
	} {
		if rc.got != rc.want {
			add(InvReconcile, "%s: %d != %d", rc.what, rc.got, rc.want)
		}
	}
	var settledBatches, landed, wantRejected int64
	for _, rec := range w.batches {
		if rec.settled {
			settledBatches++
			landed += int64(rec.landed)
			wantRejected += int64(rec.expectRejected)
		}
	}
	if got := w.reg.Counter("payment_settlements_total", nil).Value(); got != settledBatches {
		add(InvReconcile, "payment_settlements_total = %d, want %d settled batches", got, settledBatches)
	}
	if got := w.reg.Counter(metricSettlements, nil).Value(); got != landed {
		add(InvReconcile, "%s = %d, want the settled batches' %d payees online at settle", metricSettlements, got, landed)
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
