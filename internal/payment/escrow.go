package payment

import (
	"errors"
	"fmt"
	"sync"
)

// Escrow realises the paper's commitment semantics (§2.2): when an
// initiator opens a batch it *commits* to pay P_f per forwarding instance
// and P_r in total — the commitment is what lets rational forwarders do
// work before payment. The bank locks an upper-bound amount from the
// initiator's account at batch start; settlement draws from the lock and
// any unused remainder is refunded on close. Forwarders can check
// Committed() before forwarding, so a broke initiator cannot obtain free
// service.
type Escrow struct {
	mu        sync.Mutex
	bank      *Bank
	initiator AccountID
	locked    Amount
	spent     Amount
	closed    bool
}

// escrowAccount is the internal holding account for all escrow locks.
const escrowAccount = AccountID(-1)

// OpenEscrow locks `amount` from the initiator into the bank's escrow
// holding account. amount should upper-bound the batch's worst-case
// payout, e.g. maxConns·maxHops·P_f + P_r.
func (b *Bank) OpenEscrow(initiator AccountID, amount Amount) (*Escrow, error) {
	if amount <= 0 {
		return nil, ErrBadAmount
	}
	b.ensureAccount(escrowAccount)
	if err := b.Transfer(initiator, escrowAccount, amount); err != nil {
		return nil, fmt.Errorf("payment: opening escrow: %w", err)
	}
	return &Escrow{bank: b, initiator: initiator, locked: amount}, nil
}

// Pay releases amt from the escrow to a forwarder. It fails if the escrow
// is closed or underfunded — the commitment can never be exceeded.
func (e *Escrow) Pay(to AccountID, amt Amount) error {
	if amt <= 0 {
		return ErrBadAmount
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errors.New("payment: escrow closed")
	}
	if e.spent+amt > e.locked {
		return fmt.Errorf("payment: escrow exhausted (%d of %d spent, %d requested)",
			e.spent, e.locked, amt)
	}
	if err := e.bank.Transfer(escrowAccount, to, amt); err != nil {
		return err
	}
	e.spent += amt
	return nil
}

// Close refunds the unspent remainder to the initiator and seals the
// escrow. Closing twice is an error.
func (e *Escrow) Close() (refund Amount, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, errors.New("payment: escrow already closed")
	}
	e.closed = true
	refund = e.locked - e.spent
	if refund > 0 {
		if err := e.bank.Transfer(escrowAccount, e.initiator, refund); err != nil {
			return 0, err
		}
	}
	return refund, nil
}

// SettleFromEscrow runs the payout rule against an escrow instead of
// direct withdrawals: each valid claim is paid from the locked commitment
// and the remainder is refunded. It returns the payouts and the refund.
// Unlike Settlement.Run's blind-token path, escrow settlement is
// account-visible; deployments wanting unlinkability run the blind path —
// this variant exists for the commitment accounting and for tests of the
// §2.2 "commitment" flow.
func (e *Escrow) SettleFromEscrow(minter *ReceiptMinter, pf, pr Amount, claims []Claim) ([]Payout, Amount, error) {
	if minter == nil {
		return nil, 0, errors.New("payment: nil minter")
	}
	accepted, rejected := minter.verifyClaims(claims)
	return e.settle(pf, pr, accepted, rejected)
}

// SettleAggregated is SettleFromEscrow over rolled-up chain claims: one
// AggregateClaim per forwarder replaces its m individual receipts, and
// verification is one O(m) chain re-derivation per claim instead of m
// independent MAC checks with a dedup map. A claim whose chain does not
// verify is rejected whole (all-or-nothing — see VerifyAggregate), and
// its entries count as rejected receipts for the §5 cheating signal.
func (e *Escrow) SettleAggregated(minter *ReceiptMinter, pf, pr Amount, claims []AggregateClaim) ([]Payout, Amount, error) {
	if minter == nil {
		return nil, 0, errors.New("payment: nil minter")
	}
	accepted, rejected := minter.verifyAggregates(claims)
	return e.settle(pf, pr, accepted, rejected)
}

// settle is the escrow payer under Bank.settle: every payout is drawn
// from the lock, then the escrow closes and refunds the rest.
func (e *Escrow) settle(pf, pr Amount, accepted []Payout, rejected int) ([]Payout, Amount, error) {
	var refund Amount
	payouts, err := e.bank.settle(pf, pr, accepted, rejected, func(ps []Payout) ([]Payout, error) {
		for i, p := range ps {
			if err := e.Pay(p.Forwarder, p.Amount); err != nil {
				return ps[:i], err
			}
		}
		var err error
		refund, err = e.Close()
		return ps, err
	})
	return payouts, refund, err
}
