package payment

import (
	"errors"
	"testing"
)

func escrowBank(t *testing.T) *Bank {
	t.Helper()
	b := freshBank(t)
	b.OpenAccount(1, 1000)
	b.OpenAccount(10, 0)
	b.OpenAccount(11, 0)
	return b
}

func TestEscrowLifecycle(t *testing.T) {
	b := escrowBank(t)
	e, err := b.OpenEscrow(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if bal, _ := b.Balance(1); bal != 700 {
		t.Fatalf("initiator balance %d after lock", bal)
	}
	if e.Committed() != 300 {
		t.Fatalf("committed %d", e.Committed())
	}
	if err := e.Pay(10, 120); err != nil {
		t.Fatal(err)
	}
	if e.Committed() != 180 {
		t.Fatalf("committed %d", e.Committed())
	}
	refund, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if refund != 180 {
		t.Fatalf("refund %d", refund)
	}
	if bal, _ := b.Balance(1); bal != 880 {
		t.Fatalf("initiator balance %d after refund", bal)
	}
	if bal, _ := b.Balance(10); bal != 120 {
		t.Fatalf("forwarder balance %d", bal)
	}
}

func TestEscrowCannotExceedCommitment(t *testing.T) {
	b := escrowBank(t)
	e, _ := b.OpenEscrow(1, 100)
	if err := e.Pay(10, 80); err != nil {
		t.Fatal(err)
	}
	if err := e.Pay(11, 30); err == nil {
		t.Fatal("overdraw allowed")
	}
	if e.Committed() != 20 {
		t.Fatalf("committed %d after failed pay", e.Committed())
	}
}

func TestEscrowClosedRejectsPayments(t *testing.T) {
	b := escrowBank(t)
	e, _ := b.OpenEscrow(1, 100)
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Pay(10, 1); err == nil {
		t.Fatal("payment after close")
	}
	if _, err := e.Close(); err == nil {
		t.Fatal("double close")
	}
}

func TestEscrowValidation(t *testing.T) {
	b := escrowBank(t)
	if _, err := b.OpenEscrow(1, 0); !errors.Is(err, ErrBadAmount) {
		t.Fatal("zero escrow accepted")
	}
	if _, err := b.OpenEscrow(1, 5000); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatal("underfunded escrow accepted")
	}
	if _, err := b.OpenEscrow(99, 10); !errors.Is(err, ErrUnknownAccount) {
		t.Fatal("unknown initiator accepted")
	}
	e, _ := b.OpenEscrow(1, 50)
	if err := e.Pay(10, 0); !errors.Is(err, ErrBadAmount) {
		t.Fatal("zero payment accepted")
	}
}

func TestEscrowConservation(t *testing.T) {
	b := escrowBank(t)
	before := b.TotalBalance() + b.Float()
	e, _ := b.OpenEscrow(1, 400)
	e.Pay(10, 100)
	e.Pay(11, 50)
	e.Close()
	after := b.TotalBalance() + b.Float()
	if before != after {
		t.Fatalf("conservation broken: %d -> %d", before, after)
	}
	if err := b.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSettleFromEscrow(t *testing.T) {
	b := escrowBank(t)
	m := minter(t)
	e, err := b.OpenEscrow(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	claims := []Claim{
		{Forwarder: 10, Receipts: []Receipt{m.Mint(1, 1, 10), m.Mint(2, 1, 10)}},
		{Forwarder: 11, Receipts: []Receipt{m.Mint(1, 2, 11)}},
	}
	payouts, refund, err := e.SettleFromEscrow(m, 50, 100, claims)
	if err != nil {
		t.Fatal(err)
	}
	// ‖π‖=2, share=50: 10 gets 150, 11 gets 100; refund 500-250=250.
	if len(payouts) != 2 || payouts[0].Amount != 150 || payouts[1].Amount != 100 {
		t.Fatalf("payouts %v", payouts)
	}
	if refund != 250 {
		t.Fatalf("refund %d", refund)
	}
	if bal, _ := b.Balance(1); bal != 1000-250 {
		t.Fatalf("initiator net outlay wrong: %d", bal)
	}
}

func TestSettleFromEscrowNoClaims(t *testing.T) {
	b := escrowBank(t)
	m := minter(t)
	e, _ := b.OpenEscrow(1, 100)
	payouts, refund, err := e.SettleFromEscrow(m, 10, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts) != 0 || refund != 100 {
		t.Fatalf("payouts %v refund %d", payouts, refund)
	}
	if bal, _ := b.Balance(1); bal != 1000 {
		t.Fatal("money lost on empty settlement")
	}
}

func TestSettleFromEscrowUnderfundedCommitment(t *testing.T) {
	b := escrowBank(t)
	m := minter(t)
	e, _ := b.OpenEscrow(1, 100) // too small for the claims below
	claims := []Claim{
		{Forwarder: 10, Receipts: []Receipt{m.Mint(1, 1, 10), m.Mint(2, 1, 10)}},
	}
	// m=2, ‖π‖=1: payout 2*50+100 = 200 > 100 locked.
	if _, _, err := e.SettleFromEscrow(m, 50, 100, claims); err == nil {
		t.Fatal("underfunded settlement succeeded")
	}
}

// TestEscrowHoldsFundsUntilSettled: between opening and settlement — the
// window a crashed or slow settler leaves open — every escrowed credit
// sits locked in the holding account, nothing is lost, and settling the
// escrows later (they outlive their initiator's attention) restores the
// flow.
func TestEscrowHoldsFundsUntilSettled(t *testing.T) {
	b := escrowBank(t)
	m := minter(t)
	total := b.TotalBalance()
	var escrows []*Escrow
	for i := 0; i < 2; i++ {
		e, err := b.OpenEscrow(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		escrows = append(escrows, e)
	}
	if got := b.TotalBalance(); got != total {
		t.Fatalf("total balance %d while escrowed, want %d", got, total)
	}
	if bal, _ := b.Balance(escrowAccount); bal != 200 {
		t.Fatalf("escrow account holds %d, want the two 100-locks", bal)
	}
	if err := b.VerifyConservation(); err != nil {
		t.Fatal(err)
	}

	for i, e := range escrows {
		claims := []Claim{{Forwarder: 10, Receipts: []Receipt{m.Mint(i+1, 1, 10)}}}
		payouts, refund, err := e.SettleFromEscrow(m, 10, 50, claims)
		if err != nil {
			t.Fatal(err)
		}
		if len(payouts) != 1 || payouts[0].Amount != 60 || refund != 40 {
			t.Fatalf("escrow %d: payouts %v refund %d", i, payouts, refund)
		}
	}
	if bal, _ := b.Balance(escrowAccount); bal != 0 {
		t.Fatalf("escrow account retains %d after settlement", bal)
	}
	if got := b.TotalBalance(); got != total {
		t.Fatalf("total balance %d after settlement, want %d", got, total)
	}
	if err := b.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// Committed returns the amount still locked and payable.
func (e *Escrow) Committed() Amount {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.locked - e.spent
}
