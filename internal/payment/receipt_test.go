package payment

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func minter(t *testing.T) *ReceiptMinter {
	t.Helper()
	m, err := NewReceiptMinter([]byte("batch-secret-0123456789abcdef!!"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReceiptRoundTrip(t *testing.T) {
	m := minter(t)
	r := m.Mint(3, 1, 42)
	if !m.Verify(r) {
		t.Fatal("own receipt does not verify")
	}
	if r.Conn != 3 || r.Hop != 1 || r.Forwarder != 42 {
		t.Fatalf("fields %+v", r)
	}
}

func TestReceiptForgedFieldsRejected(t *testing.T) {
	m := minter(t)
	r := m.Mint(3, 1, 42)
	for _, mut := range []Receipt{
		{Conn: 4, Hop: r.Hop, Forwarder: r.Forwarder, MAC: r.MAC},
		{Conn: r.Conn, Hop: 2, Forwarder: r.Forwarder, MAC: r.MAC},
		{Conn: r.Conn, Hop: r.Hop, Forwarder: 43, MAC: r.MAC},
	} {
		if m.Verify(mut) {
			t.Fatalf("tampered receipt verified: %+v", mut)
		}
	}
}

func TestReceiptWrongKeyRejected(t *testing.T) {
	m1 := minter(t)
	m2, err := NewReceiptMinter([]byte("different-secret"))
	if err != nil {
		t.Fatal(err)
	}
	r := m1.Mint(1, 1, 5)
	if m2.Verify(r) {
		t.Fatal("receipt verified under wrong key")
	}
}

func TestEmptySecretRejected(t *testing.T) {
	if _, err := NewReceiptMinter(nil); err == nil {
		t.Fatal("nil secret accepted")
	}
}

func TestMinterCopiesSecret(t *testing.T) {
	secret := []byte("mutable-secret-material")
	m, err := NewReceiptMinter(secret)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Mint(1, 1, 5)
	secret[0] ^= 0xff // caller mutates their buffer
	if !m.Verify(r) {
		t.Fatal("minter aliased caller's secret")
	}
}

// TestMintMatchesReferenceMAC holds Mint's mid-state arithmetic to the
// crypto/hmac reference over random keys of every interesting length —
// one byte, around the SHA-256 block size, and past it, where RFC 2104
// hashes the key first — and random coordinates, negative ones included.
// It also covers the fallback: a minter without mid-states mints the same
// receipts.
func TestMintMatchesReferenceMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 16, 32, 63, 64, 65, 100, 200} {
		for trial := 0; trial < 20; trial++ {
			key := make([]byte, n)
			rng.Read(key)
			m, err := NewReceiptMinter(key)
			if err != nil {
				t.Fatal(err)
			}
			if !m.fast {
				t.Fatalf("%d-byte key: mid-state self-check failed, Mint would take the slow path", n)
			}
			slow := &ReceiptMinter{key: m.key}
			for i := 0; i < 10; i++ {
				conn, hop, f := int(rng.Int63())-1<<62, int(rng.Int63())-1<<62, AccountID(rng.Int63()-1<<62)
				r := m.Mint(conn, hop, f)
				if want := receiptMAC(key, conn, hop, f); r.MAC != want {
					t.Fatalf("%d-byte key, (%d, %d, %d): Mint %x, reference %x", n, conn, hop, f, r.MAC, want)
				}
				if r != slow.Mint(conn, hop, f) || !m.Verify(r) {
					t.Fatalf("%d-byte key: fallback mint differs or receipt does not verify", n)
				}
			}
		}
	}
}

// TestMintAllocsZero pins what the mid-states buy: a receipt costs no
// allocation (crypto/hmac's instance per MAC was five).
func TestMintAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates inside the digest")
	}
	m := minter(t)
	var r Receipt
	if got := testing.AllocsPerRun(200, func() { r = m.Mint(3, 1, 42) }); got != 0 {
		t.Fatalf("Mint allocates %v times, want 0", got)
	}
	if !m.Verify(r) {
		t.Fatal("receipt does not verify")
	}
}

// TestNewReceiptMinterAllocs pins a minter's setup, paid once per batch:
// the minter, its key copy, its verifier's digest (which also derives
// the pad mid-states) and its fold digest. The format self-check runs
// once per process, not per minter.
func TestNewReceiptMinterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates inside the digest")
	}
	secret := []byte("batch-secret-0123456789abcdef!!")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewReceiptMinter(secret); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("NewReceiptMinter allocates %v times, want <= 4", allocs)
	}
}

// TestMintConcurrent shares one minter between goroutines, as Mint's
// callers always could.
func TestMintConcurrent(t *testing.T) {
	m := minter(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if r := m.Mint(i, g, AccountID(g)); r.MAC != receiptMAC(m.key, i, g, AccountID(g)) {
					t.Errorf("goroutine %d, receipt %d: wrong MAC", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCountValidDeduplicatesAndFilters(t *testing.T) {
	m := minter(t)
	r1 := m.Mint(1, 1, 42)
	r2 := m.Mint(2, 1, 42)
	other := m.Mint(3, 1, 99)                         // names someone else
	forged := Receipt{Conn: 4, Hop: 1, Forwarder: 42} // zero MAC
	claims := []Receipt{r1, r1, r2, other, forged}
	if got := m.CountValid(42, claims); got != 2 {
		t.Fatalf("CountValid = %d, want 2", got)
	}
	if got := m.CountValid(99, claims); got != 1 {
		t.Fatalf("CountValid(99) = %d, want 1", got)
	}
}

func TestSettlementPaysPayoutRule(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100000) // initiator
	b.OpenAccount(10, 0)
	b.OpenAccount(11, 0)
	m := minter(t)
	// Forwarder 10 forwarded 3 times; 11 twice.
	claims := []Claim{
		{Forwarder: 10, Receipts: []Receipt{m.Mint(1, 1, 10), m.Mint(2, 1, 10), m.Mint(3, 1, 10)}},
		{Forwarder: 11, Receipts: []Receipt{m.Mint(1, 2, 11), m.Mint(2, 2, 11)}},
	}
	s := &Settlement{Bank: b, Minter: m, Initiator: 1, Pf: 50, Pr: 100}
	payouts, err := s.Run(claims)
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts) != 2 {
		t.Fatalf("payouts = %v", payouts)
	}
	// ‖π‖ = 2, share = 50. 10: 3*50+50 = 200. 11: 2*50+50 = 150.
	if payouts[0].Amount != 200 || payouts[1].Amount != 150 {
		t.Fatalf("payouts = %v", payouts)
	}
	b10, _ := b.Balance(10)
	b11, _ := b.Balance(11)
	if b10 != 200 || b11 != 150 {
		t.Fatalf("balances %d/%d", b10, b11)
	}
	bi, _ := b.Balance(1)
	if bi != 100000-350 {
		t.Fatalf("initiator balance %d", bi)
	}
}

func TestSettlementRejectsInflatedClaims(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100000)
	b.OpenAccount(10, 0)
	m := minter(t)
	real := m.Mint(1, 1, 10)
	// Cheater pads its claim with duplicates and forgeries.
	claims := []Claim{{Forwarder: 10, Receipts: []Receipt{
		real, real, real,
		{Conn: 9, Hop: 9, Forwarder: 10},
	}}}
	s := &Settlement{Bank: b, Minter: m, Initiator: 1, Pf: 50, Pr: 100}
	payouts, err := s.Run(claims)
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts) != 1 || payouts[0].Forwards != 1 {
		t.Fatalf("payouts = %v", payouts)
	}
	// m = 1, ‖π‖ = 1: 50 + 100.
	if payouts[0].Amount != 150 {
		t.Fatalf("amount = %d", payouts[0].Amount)
	}
}

func TestSettlementIgnoresUnentitledClaims(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 1000)
	b.OpenAccount(10, 0)
	b.OpenAccount(11, 0)
	m := minter(t)
	claims := []Claim{
		{Forwarder: 10, Receipts: []Receipt{m.Mint(1, 1, 10)}},
		{Forwarder: 11, Receipts: nil}, // never forwarded
	}
	s := &Settlement{Bank: b, Minter: m, Initiator: 1, Pf: 10, Pr: 100}
	payouts, err := s.Run(claims)
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts) != 1 || payouts[0].Forwarder != 10 {
		t.Fatalf("payouts = %v", payouts)
	}
	// ‖π‖ = 1, so the sole forwarder takes the whole routing benefit.
	if payouts[0].Amount != 110 {
		t.Fatalf("amount = %d", payouts[0].Amount)
	}
}

func TestSettlementEmptyClaims(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 1000)
	m := minter(t)
	s := &Settlement{Bank: b, Minter: m, Initiator: 1, Pf: 10, Pr: 100}
	payouts, err := s.Run(nil)
	if err != nil || payouts != nil {
		t.Fatalf("payouts=%v err=%v", payouts, err)
	}
	if bal, _ := b.Balance(1); bal != 1000 {
		t.Fatal("empty settlement moved money")
	}
}

func TestSettlementConservation(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100000)
	b.OpenAccount(10, 0)
	b.OpenAccount(11, 0)
	b.OpenAccount(12, 0)
	m := minter(t)
	claims := []Claim{
		{Forwarder: 10, Receipts: []Receipt{m.Mint(1, 1, 10), m.Mint(2, 1, 10)}},
		{Forwarder: 11, Receipts: []Receipt{m.Mint(1, 2, 11)}},
		{Forwarder: 12, Receipts: []Receipt{m.Mint(2, 2, 12)}},
	}
	before := b.TotalBalance() + b.Float()
	s := &Settlement{Bank: b, Minter: m, Initiator: 1, Pf: 7, Pr: 100}
	if _, err := s.Run(claims); err != nil {
		t.Fatal(err)
	}
	after := b.TotalBalance() + b.Float()
	if before != after {
		t.Fatalf("settlement broke conservation: %d -> %d", before, after)
	}
}

func TestSettlementValidation(t *testing.T) {
	m := minter(t)
	s := &Settlement{Minter: m}
	if _, err := s.Run(nil); err == nil {
		t.Fatal("nil bank accepted")
	}
	b := freshBank(t)
	s = &Settlement{Bank: b, Minter: m, Pf: -1}
	if _, err := s.Run(nil); err == nil {
		t.Fatal("negative Pf accepted")
	}
}

// Property: CountValid never exceeds the number of submitted receipts and
// is monotone under receipt addition.
func TestQuickCountValidBounds(t *testing.T) {
	m := minter(t)
	f := func(spec []uint8) bool {
		var rs []Receipt
		for i, s := range spec {
			if s%2 == 0 {
				rs = append(rs, m.Mint(int(s%5), i%3, 42))
			} else {
				rs = append(rs, Receipt{Conn: int(s), Hop: i, Forwarder: 42}) // forged
			}
		}
		n := m.CountValid(42, rs)
		if n > len(rs) {
			return false
		}
		n2 := m.CountValid(42, append(rs, m.Mint(1000, 1000, 42)))
		return n2 >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSettlementBatchVsSerialBalances pins Settlement.Run's batched
// deposit path against the serial oracle: the same payouts moved on an
// identically configured bank by one WithdrawAmount + DepositAll per
// forwarder leave identical per-account balances.
func TestSettlementBatchVsSerialBalances(t *testing.T) {
	setup := func() (*Bank, *ReceiptMinter) {
		t.Helper()
		b := freshBank(t)
		b.OpenAccount(1, 100000)
		for id := AccountID(10); id <= 13; id++ {
			b.OpenAccount(id, 7)
		}
		return b, minter(t)
	}
	balances := func(b *Bank) map[AccountID]Amount {
		t.Helper()
		bal := make(map[AccountID]Amount)
		for _, id := range []AccountID{1, 10, 11, 12, 13} {
			v, err := b.Balance(id)
			if err != nil {
				t.Fatal(err)
			}
			bal[id] = v
		}
		return bal
	}

	b, m := setup()
	claims := []Claim{
		{Forwarder: 10, Receipts: []Receipt{m.Mint(1, 1, 10), m.Mint(2, 1, 10), m.Mint(3, 1, 10)}},
		{Forwarder: 11, Receipts: []Receipt{m.Mint(1, 2, 11)}},
		{Forwarder: 12, Receipts: []Receipt{m.Mint(2, 2, 12), m.Mint(3, 2, 12)}},
		{Forwarder: 13}, // nothing valid: unpaid, not in ‖π‖
	}
	payouts, err := (&Settlement{Bank: b, Minter: m, Initiator: 1, Pf: 35, Pr: 100}).Run(claims)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Payout{{10, 3, 138}, {11, 1, 68}, {12, 2, 103}}; !reflect.DeepEqual(payouts, want) {
		t.Fatalf("payouts = %v, want %v (m·35 + 100/3)", payouts, want)
	}

	serial, _ := setup()
	for _, p := range payouts {
		tokens, err := serial.WithdrawAmount(1, p.Amount, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serial.DepositAll(p.Forwarder, tokens); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := balances(b), balances(serial); !reflect.DeepEqual(got, want) {
		t.Fatalf("balances diverge: batch %v, serial %v", got, want)
	}
}

// countValidRef is the reference count: Verify per receipt, a map of the
// (conn, hop) coordinates already counted.
func countValidRef(m *ReceiptMinter, f AccountID, rs []Receipt) int {
	seen := make(map[[2]int]bool)
	for _, r := range rs {
		if r.Forwarder == f && m.Verify(r) {
			seen[[2]int{r.Conn, r.Hop}] = true
		}
	}
	return len(seen)
}

// randomClaims draws claims over forwarders 1–4 mixing genuine receipts
// with forged ones (a flipped MAC bit), exact duplicates, receipts minted
// for another forwarder and random bytes, in random order.
func randomClaims(m *ReceiptMinter, rng *rand.Rand) []Claim {
	claims := make([]Claim, 1+rng.Intn(6))
	for i := range claims {
		f := AccountID(1 + rng.Intn(4))
		claims[i].Forwarder = f
		for j := rng.Intn(24); j > 0; j-- {
			r := m.Mint(rng.Intn(6)-1, rng.Intn(5), f)
			switch rng.Intn(5) {
			case 1: // forged
				r.MAC[rng.Intn(len(r.MAC))] ^= 1 << rng.Intn(8)
			case 2: // duplicated
				claims[i].Receipts = append(claims[i].Receipts, r)
			case 3: // minted for another forwarder
				r = m.Mint(r.Conn, r.Hop, f+1)
			case 4: // random bytes
				rng.Read(r.MAC[:])
			}
			claims[i].Receipts = append(claims[i].Receipts, r)
		}
		rng.Shuffle(len(claims[i].Receipts), func(a, b int) {
			claims[i].Receipts[a], claims[i].Receipts[b] = claims[i].Receipts[b], claims[i].Receipts[a]
		})
	}
	return claims
}

// TestCountValidMatchesVerify holds CountValid and verifyClaims to
// Verify's verdicts on random claims, with the pad mid-states and with
// the fallback a minter takes when they fail their self-check.
func TestCountValidMatchesVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fast := minter(t)
	slow := minter(t)
	slow.fast = false
	for _, m := range []*ReceiptMinter{fast, slow} {
		for round := 0; round < 200; round++ {
			claims := randomClaims(m, rng)
			accepted, rejected := m.verifyClaims(claims)
			var want []Payout
			wantRejected := 0
			for _, c := range claims {
				n := countValidRef(m, c.Forwarder, c.Receipts)
				if got := m.CountValid(c.Forwarder, c.Receipts); got != n {
					t.Fatalf("round %d: CountValid = %d, Verify counts %d", round, got, n)
				}
				if n > 0 {
					want = append(want, Payout{Forwarder: c.Forwarder, Forwards: n})
				}
				wantRejected += len(c.Receipts) - n
			}
			if !reflect.DeepEqual(accepted, append(make([]Payout, 0), want...)) || rejected != wantRejected {
				t.Fatalf("round %d: verifyClaims = %v, %d; want %v, %d", round, accepted, rejected, want, wantRejected)
			}
		}
	}
}

// TestVerifyClaimsAllocs pins the per-receipt settlement's verification:
// eight claims of 32 receipts cost a fixed handful of allocations — the
// accepted slice, the counter's verifier and digest, and its coordinate
// buffer — not an HMAC instance per receipt (1 849 in all when each
// receipt built one).
func TestVerifyClaimsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates inside the digest")
	}
	m := minter(t)
	claims := make([]Claim, 8)
	for i := range claims {
		claims[i].Forwarder = AccountID(i + 1)
		for j := 0; j < 32; j++ {
			claims[i].Receipts = append(claims[i].Receipts, m.Mint(j/4, j%4, claims[i].Forwarder))
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { m.verifyClaims(claims) }); allocs > 4 {
		t.Fatalf("verifyClaims over %d receipts: %v allocs, want <= 4", 8*32, allocs)
	}
}
