package payment

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
)

// Blind-token settlement at CRT speed (DESIGN.md §3o): the signing path,
// the scratch power behind every public-exponent operation, the
// allocation pins that keep the diet honest, and the epoch fan-out.

// fixtureBank loads the benchmark's 2048-bit snapshot: the key size the
// allocation pin is stated for, without a keygen in the test.
func fixtureBank(t *testing.T) *Bank {
	t.Helper()
	raw, err := os.ReadFile("../../benchmark/testdata/bank2048.gob")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBank(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSignMatchesPlainExp(t *testing.T) {
	b := sharedBank(t)
	n, d := b.key.N, b.key.D
	one := big.NewInt(1)
	cases := []*big.Int{
		new(big.Int), one, new(big.Int).Sub(n, one), new(big.Int).Set(n), new(big.Int).Add(n, one),
	}
	for i := 0; i < 1000; i++ {
		c, err := rand.Int(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for i, c := range cases {
		in := new(big.Int).Set(c)
		got, want := b.sign(c), new(big.Int).Exp(c, d, n)
		if got.Cmp(want) != 0 {
			t.Fatalf("case %d: sign(%x) = %x, want %x", i, c, got, want)
		}
		if c.Cmp(in) != 0 {
			t.Fatalf("case %d: sign modified its input", i)
		}
	}
}

// A fault in one CRT half must not leave the bank: the self-check catches
// it and the plain power signs instead. With D corrupted as well the
// fallback's wrong answer comes out, which shows it was the fallback that
// ran and not a CRT result that happened to pass.
func TestSignSelfCheckFallsBack(t *testing.T) {
	good := sharedBank(t)
	c, err := rand.Int(rand.Reader, good.key.N)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(c, good.key.D, good.key.N)

	key := *good.key
	key.Precomputed.Dp = new(big.Int).Add(key.Precomputed.Dp, big.NewInt(2))
	if got := newBank(&key).sign(c); got.Cmp(want) != 0 {
		t.Fatalf("corrupted Dp: sign = %x, want %x", got, want)
	}
	key.D = new(big.Int).Add(key.D, big.NewInt(2))
	if got := newBank(&key).sign(c); got.Cmp(want) == 0 {
		t.Fatal("corrupted Dp and D still signed correctly: the self-check did not run")
	}
}

func TestScratchPowMatchesExp(t *testing.T) {
	n := sharedBank(t).key.N
	rng := mrand.New(mrand.NewSource(7))
	wide := new(big.Int).Lsh(n, 70)
	var s powScratch
	for i := 0; i < 300; i++ {
		x := new(big.Int).Rand(rng, n)
		switch i % 4 {
		case 1:
			x.Rand(rng, wide) // mostly ≥ n
		case 2:
			x.Neg(x)
		case 3:
			x.Add(n, big.NewInt(int64(i-150))) // around n, n itself included
		}
		for _, e := range []int{1, 2, 3, 17, 65537} {
			in := new(big.Int).Set(x)
			want := new(big.Int).Exp(x, big.NewInt(int64(e)), n)
			if got := s.pow(x, e, n); got.Cmp(want) != 0 {
				t.Fatalf("pow(%x, %d) = %x, want %x", x, e, got, want)
			}
			if x.Cmp(in) != 0 {
				t.Fatal("pow modified its input")
			}
		}
	}
}

func TestVerifyTokenWarmAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	b := fixtureBank(t)
	b.OpenAccount(1, 100)
	tok := withdrawToken(t, b, 1, 8)
	pub := b.PublicKey()
	bad := tamper(tok)
	if !VerifyToken(pub, tok) || VerifyToken(pub, bad) {
		t.Fatal("verdicts wrong before counting")
	}
	if got := testing.AllocsPerRun(50, func() {
		if !VerifyToken(pub, tok) || VerifyToken(pub, bad) {
			t.Error("verdict changed")
		}
	}); got != 0 {
		t.Fatalf("warm VerifyToken allocates %v times, want 0", got)
	}
}

// TestTokenCycleAllocs pins one request → withdraw → unblind → deposit
// cycle on a 2048-bit key at the count measured before the bank signed
// through CRT (go1.24: 101 then, 87 now). Two Montgomery tables instead
// of one cost 25 allocations; the scratch power and the single inversion
// pay for them, and this keeps it that way.
func TestTokenCycleAllocs(t *testing.T) {
	const parent = 101
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	b := fixtureBank(t)
	b.OpenAccount(1, 1<<30)
	b.OpenAccount(2, 0)
	cycle := func() {
		req, err := NewWithdrawalRequest(b.PublicKey(), 4, nil)
		if err != nil {
			t.Error(err)
			return
		}
		blindSig, err := b.Withdraw(1, req)
		if err != nil {
			t.Error(err)
			return
		}
		tok, err := req.Unblind(blindSig)
		if err != nil {
			t.Error(err)
			return
		}
		if err := b.Deposit(2, tok); err != nil {
			t.Error(err)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(20, cycle); got > parent {
		t.Fatalf("token cycle allocates %v times, want ≤ %d", got, parent)
	}
}

// TestLoadBankSignsThroughCRT round-trips the benchmark fixture through
// Save/LoadBank and shows the restored bank signs without touching D.
func TestLoadBankSignsThroughCRT(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureBank(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBank(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pre := b.key.Precomputed
	if pre.Dp == nil || pre.Dq == nil || pre.Qinv == nil {
		t.Fatal("restored key has no CRT values")
	}
	c := big.NewInt(0xC0FFEE)
	want := new(big.Int).Exp(c, b.key.D, b.key.N)
	key := *b.key
	key.D = big.NewInt(3) // only the fallback reads D
	if got := newBank(&key).sign(c); got.Cmp(want) != 0 {
		t.Fatal("restored bank did not sign through its CRT values")
	}
}

func TestLoadBankRejectsMultiPrimeKey(t *testing.T) {
	key, err := rsa.GenerateMultiPrimeKey(rand.Reader, 3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := newBank(key).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBank(&buf); err == nil {
		t.Fatal("three-prime key accepted: it would sign without CRT")
	}
}

// epochFixture is one settlement epoch over forwarders 10..13 paid by
// initiator 1; forwarder 13 submits nothing valid.
func epochFixture(t *testing.T, b *Bank, funds Amount) (*Settlement, []Claim) {
	t.Helper()
	b.EnableAudit()
	if err := b.OpenAccount(1, funds); err != nil {
		t.Fatal(err)
	}
	for id := AccountID(10); id <= 13; id++ {
		if err := b.OpenAccount(id, 7); err != nil {
			t.Fatal(err)
		}
	}
	m := minter(t)
	claims := []Claim{
		{Forwarder: 10, Receipts: []Receipt{m.Mint(1, 1, 10), m.Mint(2, 1, 10), m.Mint(3, 1, 10)}},
		{Forwarder: 11, Receipts: []Receipt{m.Mint(1, 2, 11)}},
		{Forwarder: 12, Receipts: []Receipt{m.Mint(2, 2, 12), m.Mint(3, 2, 12)}},
		{Forwarder: 13},
	}
	return &Settlement{Bank: b, Minter: m, Initiator: 1, Pf: 35, Pr: 100}, claims
}

var epochAccounts = []AccountID{1, 10, 11, 12, 13}

// TestSettlementPoolWidthInvariant: the fan-out changes which goroutine
// signs a token, nothing the bank records.
func TestSettlementPoolWidthInvariant(t *testing.T) {
	type outcome struct {
		payouts    []Payout
		balances   map[AccountID]Amount
		float      Amount
		statements map[AccountID][]LedgerEntry
	}
	run := func(width int) outcome {
		t.Helper()
		b := newBank(sharedBank(t).key)
		b.setPoolWidth(width)
		s, claims := epochFixture(t, b, 100000)
		payouts, err := s.Run(claims)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.VerifyConservation(); err != nil {
			t.Fatal(err)
		}
		o := outcome{payouts, map[AccountID]Amount{}, b.Float(), map[AccountID][]LedgerEntry{}}
		for _, id := range epochAccounts {
			o.balances[id], _ = b.Balance(id)
			o.statements[id] = b.Statement(id)
		}
		return o
	}
	serial := run(1)
	if want := []Payout{{10, 3, 138}, {11, 1, 68}, {12, 2, 103}}; !reflect.DeepEqual(serial.payouts, want) {
		t.Fatalf("payouts = %v, want %v", serial.payouts, want)
	}
	if serial.float != 0 || serial.balances[1] != 100000-309 {
		t.Fatalf("float %d, initiator %d", serial.float, serial.balances[1])
	}
	for _, width := range []int{0, 5} { // GOMAXPROCS, and wider than the box
		if got := run(width); !reflect.DeepEqual(got, serial) {
			t.Fatalf("width %d diverges from width 1:\n%+v\n%+v", width, got, serial)
		}
	}
}

func TestSettlementUnderfundedDebitsNothing(t *testing.T) {
	b := newBank(sharedBank(t).key)
	// 138 + 68 + 103 = 309 owed; 250 covers the first two forwarders.
	s, claims := epochFixture(t, b, 250)
	payouts, err := s.Run(claims)
	if !errors.Is(err, ErrInsufficientFunds) || payouts != nil {
		t.Fatalf("payouts %v, err %v", payouts, err)
	}
	want := map[AccountID]Amount{1: 250, 10: 7, 11: 7, 12: 7, 13: 7}
	for id, w := range want {
		if bal, _ := b.Balance(id); bal != w {
			t.Fatalf("account %d holds %d, want %d", id, bal, w)
		}
	}
	if b.Float() != 0 {
		t.Fatalf("float %d: withdrawn tokens were dropped", b.Float())
	}
	if err := b.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	if st := b.Statement(1); len(st) != 1 {
		t.Fatalf("initiator statement %v, want the opening line only", st)
	}
	if b.SpentCount() != 0 {
		t.Fatalf("%d serials spent", b.SpentCount())
	}
}

// serialEpoch is the token-by-token loop payBlind replaces — every
// withdrawal of the epoch, then every deposit — kept as the oracle for
// which forwarder a failure names.
func serialEpoch(b *Bank, initiator AccountID, payouts []Payout) error {
	var reqs []DepositRequest
	for _, p := range payouts {
		tokens, err := b.WithdrawAmount(initiator, p.Amount, nil)
		if err != nil {
			return fmt.Errorf("payment: paying forwarder %d: %w", p.Forwarder, err)
		}
		for _, tok := range tokens {
			reqs = append(reqs, DepositRequest{Account: p.Forwarder, Token: tok})
		}
	}
	for _, r := range reqs {
		if err := b.Deposit(r.Account, r.Token); err != nil {
			return fmt.Errorf("payment: paying forwarder %d: %w", r.Account, err)
		}
	}
	return nil
}

func TestSettlementErrorAttributionMatchesSerialLoop(t *testing.T) {
	m := minter(t)
	claims := []Claim{
		{Forwarder: 10, Receipts: []Receipt{m.Mint(1, 1, 10)}},
		{Forwarder: 20, Receipts: []Receipt{m.Mint(1, 2, 20), m.Mint(2, 2, 20)}}, // no account
		{Forwarder: 11, Receipts: []Receipt{m.Mint(2, 1, 11)}},
		{Forwarder: 21, Receipts: []Receipt{m.Mint(3, 1, 21)}}, // no account
	}
	// The bank pays in forwarder order, whatever order the claims came in.
	payouts := []Payout{{10, 1, 60}, {11, 1, 60}, {20, 2, 95}, {21, 1, 60}}
	for _, tc := range []struct {
		name     string
		funds    Amount
		sentinel error
		left     Amount // initiator's balance afterwards
	}{
		{"unknown payee", 1000, ErrUnknownAccount, 1000 - 120},
		{"short by the third forwarder", 200, ErrInsufficientFunds, 200},
		{"short by one credit", 274, ErrInsufficientFunds, 274},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Bank {
				b := newBank(sharedBank(t).key)
				b.OpenAccount(1, tc.funds)
				b.OpenAccount(10, 0)
				b.OpenAccount(11, 0)
				return b
			}
			want := serialEpoch(mk(), 1, payouts)
			b := mk()
			got, err := (&Settlement{Bank: b, Minter: m, Initiator: 1, Pf: 35, Pr: 100}).Run(claims)
			if got != nil || err == nil || !errors.Is(err, tc.sentinel) || err.Error() != want.Error() {
				t.Fatalf("payouts %v, err %q, serial loop says %q", got, err, want)
			}
			// Whatever failed, nothing is left in flight: the failed tokens'
			// value is back with the initiator, the rest was deposited.
			if bal, _ := b.Balance(1); bal != tc.left || b.Float() != 0 {
				t.Fatalf("initiator %d (want %d), float %d", bal, tc.left, b.Float())
			}
			if err := b.VerifyConservation(); err != nil {
				t.Fatal(err)
			}
			if got := b.TotalBalance(); got != tc.funds {
				t.Fatalf("total %d, opened with %d", got, tc.funds)
			}
		})
	}
}

// TestConcurrentSettlementsConserve settles several initiators' epochs at
// once on one bank: CI runs it under -race, and the arithmetic shows no
// token was credited twice or lost between the shared pool's workers.
func TestConcurrentSettlementsConserve(t *testing.T) {
	const initiators, rounds, forwarders = 4, 3, 5
	b := newBank(sharedBank(t).key)
	b.setPoolWidth(3)
	m := minter(t)
	for i := 0; i < initiators; i++ {
		b.OpenAccount(AccountID(1+i), 10_000)
	}
	var claims []Claim
	for f := 0; f < forwarders; f++ {
		id := AccountID(100 + f)
		b.OpenAccount(id, 0)
		c := Claim{Forwarder: id}
		for k := 0; k <= f; k++ {
			c.Receipts = append(c.Receipts, m.Mint(k, f, id))
		}
		claims = append(claims, c)
	}
	opened := b.TotalBalance()
	var wg sync.WaitGroup
	for i := 0; i < initiators; i++ {
		wg.Add(1)
		go func(initiator AccountID) {
			defer wg.Done()
			s := &Settlement{Bank: b, Minter: m, Initiator: initiator, Pf: 13, Pr: 101}
			for r := 0; r < rounds; r++ {
				if _, err := s.Run(claims); err != nil {
					t.Error(err)
				}
			}
		}(AccountID(1 + i))
	}
	wg.Wait()
	var paid Amount
	for f := 0; f < forwarders; f++ {
		want := Amount(initiators * rounds * ((f+1)*13 + 101/forwarders))
		if bal, _ := b.Balance(AccountID(100 + f)); bal != want {
			t.Fatalf("forwarder %d holds %d, want %d", 100+f, bal, want)
		}
		paid += want
	}
	for i := 0; i < initiators; i++ {
		if bal, _ := b.Balance(AccountID(1 + i)); bal != 10_000-paid/initiators {
			t.Fatalf("initiator %d holds %d, want %d", 1+i, bal, 10_000-paid/initiators)
		}
	}
	if b.Float() != 0 || b.TotalBalance() != opened {
		t.Fatalf("float %d, total %d of %d", b.Float(), b.TotalBalance(), opened)
	}
	if err := b.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}
