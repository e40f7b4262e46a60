package payment

import (
	"errors"

	"p2panon/internal/telemetry"
)

// Payment metric names as exposed on the Prometheus endpoint.
const (
	metricDepositsTotal    = "payment_deposits_total"        // label result: ok|double_spend|bad_signature|unknown_account
	metricSettlementsTotal = "payment_settlements_total"     // batches settled (blind or escrow path)
	metricPayoutsTotal     = "payment_payouts_total"         // forwarders paid
	metricSettledCredits   = "payment_settled_credits_total" // credits moved to forwarders
	metricCheatsTotal      = "payment_cheats_detected_total" // label kind: double_spend|rejected_receipt
)

// bankInstruments is the bank's counter set; all fields are nil (no-op)
// until Bank.Instrument binds them. Settlement and Escrow paths share it
// through their *Bank, so one registry sees the whole payment layer.
type bankInstruments struct {
	depositOK          *telemetry.Counter
	depositDoubleSpend *telemetry.Counter
	depositBadSig      *telemetry.Counter
	depositUnknown     *telemetry.Counter
	settlements        *telemetry.Counter
	payouts            *telemetry.Counter
	settledCredits     *telemetry.Counter
	cheatDoubleSpend   *telemetry.Counter
	cheatRejected      *telemetry.Counter
}

// Instrument binds the bank's payment counters into reg. Safe to call
// before traffic; Deposit, Settlement.Run and Escrow.SettleFromEscrow
// update the counters lock-free from any goroutine.
func (b *Bank) Instrument(reg *telemetry.Registry) {
	reg.Help(metricDepositsTotal, "token deposits by outcome")
	reg.Help(metricSettlementsTotal, "batch settlements executed (blind-token and escrow paths)")
	reg.Help(metricCheatsTotal, "cheating attempts detected: replayed serials and rejected (forged/duplicate/misattributed) receipts")
	b.tele = bankInstruments{
		depositOK:          reg.Counter(metricDepositsTotal, telemetry.Labels{"result": "ok"}),
		depositDoubleSpend: reg.Counter(metricDepositsTotal, telemetry.Labels{"result": "double_spend"}),
		depositBadSig:      reg.Counter(metricDepositsTotal, telemetry.Labels{"result": "bad_signature"}),
		depositUnknown:     reg.Counter(metricDepositsTotal, telemetry.Labels{"result": "unknown_account"}),
		settlements:        reg.Counter(metricSettlementsTotal, nil),
		payouts:            reg.Counter(metricPayoutsTotal, nil),
		settledCredits:     reg.Counter(metricSettledCredits, nil),
		cheatDoubleSpend:   reg.Counter(metricCheatsTotal, telemetry.Labels{"kind": "double_spend"}),
		cheatRejected:      reg.Counter(metricCheatsTotal, telemetry.Labels{"kind": "rejected_receipt"}),
	}
}

// noteDeposit classifies a Deposit outcome into the result counters.
func (b *Bank) noteDeposit(err error) {
	switch {
	case err == nil:
		b.tele.depositOK.Inc()
	case errors.Is(err, ErrDoubleSpend):
		b.tele.depositDoubleSpend.Inc()
		b.tele.cheatDoubleSpend.Inc()
	case errors.Is(err, ErrBadSignature):
		b.tele.depositBadSig.Inc()
	case errors.Is(err, ErrUnknownAccount):
		b.tele.depositUnknown.Inc()
	}
}

// noteSettlement records one executed settlement: the accepted payouts and
// how many submitted receipts were rejected as invalid, duplicate or
// misattributed (the §5 cheating signal).
func (b *Bank) noteSettlement(payouts []Payout, rejectedReceipts int) {
	b.tele.settlements.Inc()
	b.tele.payouts.Add(int64(len(payouts)))
	var credits int64
	for _, p := range payouts {
		credits += int64(p.Amount)
	}
	b.tele.settledCredits.Add(credits)
	b.tele.cheatRejected.Add(int64(rejectedReceipts))
}
