package payment

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// The bank under a seeded hostile operation stream — overdrawn
// withdrawals, double spends, tampered signatures, overdrawn and self
// transfers, unknown accounts — against a plain model of balances and
// spent tokens: every operation fails with the model's sentinel (or
// succeeds when the model says it must), balances track the model, and
// conservation holds after every step.

func tryWithdraw(b *Bank, from AccountID, denom Amount) (Token, error) {
	req, err := NewWithdrawalRequest(b.PublicKey(), denom, nil)
	if err != nil {
		return Token{}, err
	}
	blindSig, err := b.Withdraw(from, req)
	if err != nil {
		return Token{}, err
	}
	return req.Unblind(blindSig)
}

// tamper flips the token's signature so VerifyToken must reject it.
func tamper(tok Token) Token {
	tok.Sig = new(big.Int).Add(tok.Sig, big.NewInt(1))
	return tok
}

func TestBankHostileStreamProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			b := freshBank(t)
			rng := rand.New(rand.NewSource(seed))
			const nAcc, opening = 12, 1000
			bal := make(map[AccountID]Amount)
			for id := AccountID(1); id <= nAcc; id++ {
				if err := b.OpenAccount(id, opening); err != nil {
					t.Fatal(err)
				}
				bal[id] = opening
			}
			var held []Token
			deposited := make(map[int]bool) // index into held
			want := func(step int, op string, got, sentinel error) {
				t.Helper()
				if (sentinel == nil) != (got == nil) || (sentinel != nil && !errors.Is(got, sentinel)) {
					t.Fatalf("step %d %s: err %v, want %v", step, op, got, sentinel)
				}
			}
			steps := 150
			if testing.Short() {
				steps = 40
			}
			for step := 0; step < steps; step++ {
				from := AccountID(1 + rng.Intn(nAcc))
				to := AccountID(1 + rng.Intn(nAcc))
				switch op := rng.Intn(10); {
				case op < 3: // withdraw (sometimes more than the balance holds)
					denom := Amount(1 + rng.Intn(1500))
					tok, err := tryWithdraw(b, from, denom)
					if denom > bal[from] {
						want(step, "withdraw", err, ErrInsufficientFunds)
						break
					}
					want(step, "withdraw", err, nil)
					bal[from] -= denom
					held = append(held, tok)
				case op < 6 && len(held) > 0: // deposit a held token
					// Left in place: redepositing it later is the
					// double-spend injection.
					i := rng.Intn(len(held))
					err := b.Deposit(to, held[i])
					if deposited[i] {
						want(step, "deposit", err, ErrDoubleSpend)
						break
					}
					want(step, "deposit", err, nil)
					deposited[i] = true
					bal[to] += held[i].Denom
				case op < 7 && len(held) > 0: // tampered signature
					want(step, "tampered deposit", b.Deposit(to, tamper(held[rng.Intn(len(held))])), ErrBadSignature)
				case op < 9: // transfer (sometimes overdrawn, sometimes self)
					amt := Amount(1 + rng.Intn(1500))
					err := b.Transfer(from, to, amt)
					if amt > bal[from] {
						want(step, "transfer", err, ErrInsufficientFunds)
						break
					}
					want(step, "transfer", err, nil)
					bal[from] -= amt
					bal[to] += amt
				default: // unknown-account traffic
					want(step, "unknown deposit", b.Deposit(AccountID(9999), Token{}), ErrUnknownAccount)
				}
				for id, w := range bal {
					if got, _ := b.Balance(id); got != w {
						t.Fatalf("step %d: balance of %d is %d, model %d", step, id, got, w)
					}
				}
				if got := b.TotalBalance() + b.Float(); got != nAcc*opening {
					t.Fatalf("step %d: TotalBalance + Float = %d, want %d", step, got, nAcc*opening)
				}
				if got := b.SpentCount(); got != len(deposited) {
					t.Fatalf("step %d: %d serials spent, model %d", step, got, len(deposited))
				}
				if err := b.VerifyConservation(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestSettleFromEscrowHostileReceipts runs an escrow settlement whose
// claims carry a duplicated and a forged receipt: each is paid for the
// receipts that verify, once, and the rest of the lock is refunded.
func TestSettleFromEscrowHostileReceipts(t *testing.T) {
	b := freshBank(t)
	m := minter(t)
	for id := AccountID(1); id <= 8; id++ {
		if err := b.OpenAccount(id, 10_000); err != nil {
			t.Fatal(err)
		}
	}
	claims := []Claim{
		{Forwarder: 2, Receipts: []Receipt{m.Mint(1, 1, 2), m.Mint(2, 1, 2)}},
		{Forwarder: 3, Receipts: []Receipt{m.Mint(1, 2, 3), m.Mint(1, 2, 3)}}, // duplicate
		{Forwarder: 4, Receipts: []Receipt{{Conn: 9, Hop: 9, Forwarder: 4}}},  // forged
	}
	esc, err := b.OpenEscrow(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	payouts, refund, err := esc.SettleFromEscrow(m, 10, 90, claims)
	if err != nil {
		t.Fatal(err)
	}
	// ‖π‖ = 2, share 45: forwarder 2 gets 2·10+45, forwarder 3 1·10+45.
	want := []Payout{{Forwarder: 2, Forwards: 2, Amount: 65}, {Forwarder: 3, Forwards: 1, Amount: 55}}
	if !slices.Equal(payouts, want) || refund != 1000-120 {
		t.Fatalf("payouts %v refund %d, want %v refund %d", payouts, refund, want, 1000-120)
	}
	if got := b.TotalBalance() + b.Float(); got != 80_000 {
		t.Fatalf("TotalBalance + Float = %d, want 80000", got)
	}
	if err := b.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestDepositBatchMatchesSerialDeposits pins the batch path's error
// attribution: DepositBatch over a stream with good, tampered, replayed
// and unknown-account deposits returns exactly the errors a serial
// Deposit loop produces, in the same positions.
func TestDepositBatchMatchesSerialDeposits(t *testing.T) {
	loop, batch := freshBank(t), freshBank(t)
	mkReqs := func(b *Bank) []DepositRequest {
		t.Helper()
		if err := b.OpenAccount(1, 1000); err != nil {
			t.Fatal(err)
		}
		if err := b.OpenAccount(2, 0); err != nil {
			t.Fatal(err)
		}
		good := withdrawToken(t, b, 1, 10)
		replayed := withdrawToken(t, b, 1, 20)
		bad := tamper(withdrawToken(t, b, 1, 30))
		return []DepositRequest{
			{Account: 2, Token: good},
			{Account: 2, Token: replayed},
			{Account: 2, Token: replayed},         // double spend
			{Account: 2, Token: bad},              // bad signature
			{Account: 99, Token: good},            // unknown account
			{Account: 2, Token: Token{Denom: 10}}, // no signature at all
		}
	}
	loopReqs, batchReqs := mkReqs(loop), mkReqs(batch)
	var loopErrs []error
	for _, r := range loopReqs {
		loopErrs = append(loopErrs, loop.Deposit(r.Account, r.Token))
	}
	batchErrs := batch.DepositBatch(batchReqs)
	if len(loopErrs) != len(batchErrs) {
		t.Fatalf("%d vs %d errors", len(loopErrs), len(batchErrs))
	}
	for i := range loopErrs {
		if (loopErrs[i] == nil) != (batchErrs[i] == nil) {
			t.Fatalf("request %d: loop %v, batch %v", i, loopErrs[i], batchErrs[i])
		}
	}
	if l, b := loop.TotalBalance(), batch.TotalBalance(); l != b {
		t.Fatalf("total balance %d vs %d", l, b)
	}
	if l, b := loop.Float(), batch.Float(); l != b {
		t.Fatalf("float %d vs %d", l, b)
	}
}

// TestAccountsSnapshotAllocs pins the cached path: once the sorted list is
// warm, Accounts is one copy of it.
func TestAccountsSnapshotAllocs(t *testing.T) {
	b := sharedBank(t)
	for id := AccountID(100); id < 180; id++ {
		b.OpenAccount(id, 1)
	}
	b.Accounts() // warm the sorted cache
	allocs := testing.AllocsPerRun(50, func() {
		if got := b.Accounts(); len(got) == 0 {
			t.Fatal("no accounts")
		}
	})
	if allocs > 1 {
		t.Fatalf("Accounts allocates %.1f times per call, want <= 1", allocs)
	}
}
