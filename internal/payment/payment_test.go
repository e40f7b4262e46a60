package payment

import (
	"errors"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// testBank caches one bank per test binary run: RSA keygen dominates test
// time otherwise.
var (
	bankOnce sync.Once
	shared   *Bank
)

func freshBank(t *testing.T) *Bank {
	t.Helper()
	b, err := NewBank(1024)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sharedBank(t *testing.T) *Bank {
	t.Helper()
	bankOnce.Do(func() {
		b, err := NewBank(1024)
		if err != nil {
			t.Fatal(err)
		}
		shared = b
	})
	return shared
}

func withdrawToken(t *testing.T, b *Bank, from AccountID, denom Amount) Token {
	t.Helper()
	req, err := NewWithdrawalRequest(b.PublicKey(), denom, nil)
	if err != nil {
		t.Fatal(err)
	}
	blindSig, err := b.Withdraw(from, req)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := req.Unblind(blindSig)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestWithdrawDepositRoundTrip(t *testing.T) {
	b := freshBank(t)
	if err := b.OpenAccount(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenAccount(2, 0); err != nil {
		t.Fatal(err)
	}
	tok := withdrawToken(t, b, 1, 30)
	if bal, _ := b.Balance(1); bal != 70 {
		t.Fatalf("payer balance %d", bal)
	}
	if f := b.Float(); f != 30 {
		t.Fatalf("float %d", f)
	}
	if err := b.Deposit(2, tok); err != nil {
		t.Fatal(err)
	}
	if bal, _ := b.Balance(2); bal != 30 {
		t.Fatalf("payee balance %d", bal)
	}
	if f := b.Float(); f != 0 {
		t.Fatalf("float after redeem %d", f)
	}
}

func TestConservationInvariant(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 500)
	b.OpenAccount(2, 100)
	b.OpenAccount(3, 0)
	initial := b.TotalBalance() + b.Float()
	tok1 := withdrawToken(t, b, 1, 50)
	tok2 := withdrawToken(t, b, 2, 25)
	if got := b.TotalBalance() + b.Float(); got != initial {
		t.Fatalf("conservation broken after withdraw: %d != %d", got, initial)
	}
	b.Deposit(3, tok1)
	b.Deposit(3, tok2)
	b.Transfer(3, 1, 10)
	if got := b.TotalBalance() + b.Float(); got != initial {
		t.Fatalf("conservation broken after deposits: %d != %d", got, initial)
	}
}

func TestDoubleSpendDetected(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100)
	b.OpenAccount(2, 0)
	b.OpenAccount(3, 0)
	tok := withdrawToken(t, b, 1, 10)
	if err := b.Deposit(2, tok); err != nil {
		t.Fatal(err)
	}
	err := b.Deposit(3, tok)
	if !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("err = %v, want double spend", err)
	}
	if bal, _ := b.Balance(3); bal != 0 {
		t.Fatal("double spender was credited")
	}
	if b.SpentCount() != 1 {
		t.Fatalf("spent count %d", b.SpentCount())
	}
}

func TestForgedTokenRejected(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 0)
	tok := Token{Denom: 50, Sig: big.NewInt(12345)}
	if err := b.Deposit(1, tok); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
	if tok := (Token{Denom: 50, Sig: nil}); VerifyToken(b.PublicKey(), tok) {
		t.Fatal("nil signature verified")
	}
}

func TestDenominationTamperRejected(t *testing.T) {
	// A valid 10-credit token re-labelled as 100 credits must fail: the
	// denomination is inside the signed digest.
	b := freshBank(t)
	b.OpenAccount(1, 100)
	b.OpenAccount(2, 0)
	tok := withdrawToken(t, b, 1, 10)
	tok.Denom = 100
	if err := b.Deposit(2, tok); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsufficientFunds(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 5)
	req, err := NewWithdrawalRequest(b.PublicKey(), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Withdraw(1, req); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v", err)
	}
	if bal, _ := b.Balance(1); bal != 5 {
		t.Fatal("failed withdrawal changed balance")
	}
}

func TestUnknownAccountErrors(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100)
	if _, err := b.Balance(9); !errors.Is(err, ErrUnknownAccount) {
		t.Fatal("Balance on unknown account")
	}
	req, _ := NewWithdrawalRequest(b.PublicKey(), 10, nil)
	if _, err := b.Withdraw(9, req); !errors.Is(err, ErrUnknownAccount) {
		t.Fatal("Withdraw on unknown account")
	}
	tok := withdrawToken(t, b, 1, 10)
	if err := b.Deposit(9, tok); !errors.Is(err, ErrUnknownAccount) {
		t.Fatal("Deposit on unknown account")
	}
	if err := b.Transfer(1, 9, 5); !errors.Is(err, ErrUnknownAccount) {
		t.Fatal("Transfer to unknown account")
	}
}

func TestOpenAccountValidation(t *testing.T) {
	b := freshBank(t)
	if err := b.OpenAccount(1, -5); !errors.Is(err, ErrBadAmount) {
		t.Fatal("negative opening accepted")
	}
	if err := b.OpenAccount(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenAccount(1, 10); err == nil {
		t.Fatal("duplicate account accepted")
	}
}

func TestTransfer(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 50)
	b.OpenAccount(2, 0)
	if err := b.Transfer(1, 2, 20); err != nil {
		t.Fatal(err)
	}
	b1, _ := b.Balance(1)
	b2, _ := b.Balance(2)
	if b1 != 30 || b2 != 20 {
		t.Fatalf("balances %d/%d", b1, b2)
	}
	if err := b.Transfer(1, 2, 100); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatal("overdraft allowed")
	}
	if err := b.Transfer(1, 2, 0); !errors.Is(err, ErrBadAmount) {
		t.Fatal("zero transfer allowed")
	}
}

func TestBlindingUnlinkability(t *testing.T) {
	// Two withdrawals of the same denomination produce blinded values that
	// differ (the bank's view), yet both unblind to valid tokens with
	// different serials. The bank cannot equate what it signed with what
	// is later deposited.
	b := sharedBank(t)
	pub := b.PublicKey()
	r1, err := NewWithdrawalRequest(pub, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewWithdrawalRequest(pub, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Blinded().Cmp(r2.Blinded()) == 0 {
		t.Fatal("two blinded withdrawals identical")
	}
	if r1.serial == r2.serial {
		t.Fatal("serial collision")
	}
	// The blinded value must not equal the raw digest (i.e. blinding did
	// something).
	h := tokenDigest(new(big.Int), 10, r1.serial, pub.N)
	if r1.Blinded().Cmp(h) == 0 {
		t.Fatal("blinding is the identity")
	}
}

func TestWithdrawalRequestValidation(t *testing.T) {
	b := sharedBank(t)
	if _, err := NewWithdrawalRequest(b.PublicKey(), 0, nil); err == nil {
		t.Fatal("zero denomination accepted")
	}
	if _, err := NewWithdrawalRequest(b.PublicKey(), -3, nil); err == nil {
		t.Fatal("negative denomination accepted")
	}
}

func TestAccountsSorted(t *testing.T) {
	b := freshBank(t)
	for _, id := range []AccountID{5, 1, 3} {
		b.OpenAccount(id, 0)
	}
	ids := b.Accounts()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("accounts = %v", ids)
	}
}

// Property: VerifyToken rejects any perturbation of a valid token.
func TestQuickTokenTamperRejected(t *testing.T) {
	b := sharedBank(t)
	b.OpenAccount(7777, 1<<40)
	tok := withdrawToken(t, b, 7777, 10)
	f := func(delta uint8, field uint8) bool {
		mut := tok
		switch field % 3 {
		case 0:
			if delta == 0 {
				return true
			}
			mut.Denom += Amount(delta)
		case 1:
			if delta == 0 {
				return true
			}
			mut.Serial[int(delta)%32] ^= delta
		case 2:
			mut.Sig = new(big.Int).Add(tok.Sig, big.NewInt(int64(delta)+1))
		}
		return !VerifyToken(b.PublicKey(), mut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDeposits(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(0, 10000)
	const workers = 8
	toks := make([]Token, workers)
	for i := range toks {
		b.OpenAccount(AccountID(i+1), 0)
		toks[i] = withdrawToken(t, b, 0, 7)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := b.Deposit(AccountID(i+1), toks[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := b.TotalBalance() + b.Float(); got != 10000 {
		t.Fatalf("conservation under concurrency: %d", got)
	}
}
