package payment

import (
	"testing"
)

func mintChain(t *testing.T, m *ReceiptMinter, f AccountID, coords ...[2]int) ([]Receipt, AggregateClaim) {
	t.Helper()
	c := NewClaimChain(f)
	rs := make([]Receipt, 0, len(coords))
	for _, co := range coords {
		r := m.Mint(co[0], co[1], f)
		rs = append(rs, r)
		if err := c.Add(r); err != nil {
			t.Fatalf("adding %v: %v", co, err)
		}
	}
	return rs, c.Claim()
}

func TestClaimChainAcceptsCanonicalOrder(t *testing.T) {
	m := minter(t)
	_, claim := mintChain(t, m, 7, [2]int{1, 1}, [2]int{1, 2}, [2]int{2, 1}, [2]int{5, 0})
	if got := m.VerifyAggregate(&claim); got != 4 {
		t.Fatalf("accepted %d of 4", got)
	}
}

func TestClaimChainRejectsDisorder(t *testing.T) {
	m := minter(t)
	c := NewClaimChain(7)
	if err := c.Add(m.Mint(2, 1, 7)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(m.Mint(2, 1, 7)); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := c.Add(m.Mint(1, 9, 7)); err == nil {
		t.Fatal("regressing conn accepted")
	}
	if err := c.Add(m.Mint(2, 0, 7)); err == nil {
		t.Fatal("regressing hop accepted")
	}
	if err := c.Add(m.Mint(9, 9, 8)); err == nil {
		t.Fatal("foreign forwarder accepted")
	}
	if c.Len() != 1 {
		t.Fatalf("len %d after rejections", c.Len())
	}
	c.Claim()
	if err := c.Add(m.Mint(3, 1, 7)); err == nil {
		t.Fatal("add after seal accepted")
	}
}

func TestVerifyAggregateAllOrNothing(t *testing.T) {
	m := minter(t)
	_, claim := mintChain(t, m, 7, [2]int{1, 1}, [2]int{2, 1}, [2]int{3, 1})

	forged := claim
	forged.Chain[0] ^= 1
	if m.VerifyAggregate(&forged) != 0 {
		t.Fatal("forged chain accepted")
	}

	truncated := claim
	truncated.Entries = claim.Entries[:2] // replayed prefix: chain no longer matches
	if m.VerifyAggregate(&truncated) != 0 {
		t.Fatal("truncated entry list accepted")
	}

	extended := claim
	extended.Entries = append(append([]AggEntry(nil), claim.Entries...), AggEntry{Conn: 9, Hop: 9})
	if m.VerifyAggregate(&extended) != 0 {
		t.Fatal("extended entry list accepted")
	}

	disordered := claim
	disordered.Entries = []AggEntry{claim.Entries[1], claim.Entries[0], claim.Entries[2]}
	if m.VerifyAggregate(&disordered) != 0 {
		t.Fatal("disordered entry list accepted")
	}

	empty := AggregateClaim{Forwarder: 7}
	if m.VerifyAggregate(&empty) != 0 {
		t.Fatal("empty claim accepted")
	}

	wrongKey, err := NewReceiptMinter([]byte("some-other-batch-secret"))
	if err != nil {
		t.Fatal(err)
	}
	if wrongKey.VerifyAggregate(&claim) != 0 {
		t.Fatal("claim accepted under wrong batch secret")
	}

	if m.VerifyAggregate(&claim) != 3 {
		t.Fatal("genuine claim no longer accepted")
	}
}

// TestVerifyAggregateFastMatchesSlow pins the mid-state verifier against
// the crypto/hmac reference implementation on genuine, forged and
// long-key claims.
func TestVerifyAggregateFastMatchesSlow(t *testing.T) {
	secrets := [][]byte{
		[]byte("short"),
		[]byte("batch-secret-0123456789abcdef!!"),
		[]byte("a key much longer than the sha256 block size forces the hashed-key path of rfc 2104"),
	}
	for _, secret := range secrets {
		m, err := NewReceiptMinter(secret)
		if err != nil {
			t.Fatal(err)
		}
		_, claim := mintChain(t, m, 7, [2]int{1, 1}, [2]int{2, 3}, [2]int{4, 0})
		forged := claim
		forged.Chain[5] ^= 0x80
		for _, c := range []*AggregateClaim{&claim, &forged} {
			if fast, slow := m.VerifyAggregate(c), m.verifyAggregateSlow(c); fast != slow {
				t.Fatalf("key %q: fast %d, slow %d", secret, fast, slow)
			}
		}
		if m.VerifyAggregate(&claim) != 3 {
			t.Fatalf("key %q: genuine claim rejected", secret)
		}
	}
}

func TestBuildAggregateSortsDedupsAndFilters(t *testing.T) {
	m := minter(t)
	rs := []Receipt{
		m.Mint(3, 1, 7),
		m.Mint(1, 2, 7),
		m.Mint(1, 2, 7), // duplicate
		m.Mint(2, 2, 8), // other forwarder
		m.Mint(1, 1, 7),
	}
	claim := BuildAggregate(7, rs)
	if len(claim.Entries) != 3 {
		t.Fatalf("entries %v", claim.Entries)
	}
	want := []AggEntry{{1, 1}, {1, 2}, {3, 1}}
	for i, e := range claim.Entries {
		if e != want[i] {
			t.Fatalf("entry %d: %v, want %v", i, e, want[i])
		}
	}
	// The aggregate accepts exactly what CountValid counts for the same pile.
	if got, want := m.VerifyAggregate(&claim), m.CountValid(7, rs); got != want {
		t.Fatalf("aggregate %d vs CountValid %d", got, want)
	}
}

// TestAggregatedSettlementMatchesPerReceipt is the equivalence pin: for
// clean claims, the aggregated escrow settlement pays exactly what the
// per-receipt settlement pays.
func TestAggregatedSettlementMatchesPerReceipt(t *testing.T) {
	m := minter(t)
	run := func(aggregated bool) ([]Payout, Amount, *Bank) {
		t.Helper()
		b := freshBank(t)
		for id := AccountID(1); id <= 4; id++ {
			if err := b.OpenAccount(id, 10_000); err != nil {
				t.Fatal(err)
			}
		}
		esc, err := b.OpenEscrow(1, 1000)
		if err != nil {
			t.Fatal(err)
		}
		r2 := []Receipt{m.Mint(1, 1, 2), m.Mint(2, 1, 2), m.Mint(3, 1, 2)}
		r3 := []Receipt{m.Mint(1, 2, 3)}
		var payouts []Payout
		var refund Amount
		if aggregated {
			claims := []AggregateClaim{BuildAggregate(2, r2), BuildAggregate(3, r3)}
			payouts, refund, err = esc.SettleAggregated(m, 10, 90, claims)
		} else {
			claims := []Claim{{Forwarder: 2, Receipts: r2}, {Forwarder: 3, Receipts: r3}}
			payouts, refund, err = esc.SettleFromEscrow(m, 10, 90, claims)
		}
		if err != nil {
			t.Fatal(err)
		}
		return payouts, refund, b
	}
	poA, rA, bA := run(true)
	poS, rS, bS := run(false)
	if rA != rS {
		t.Fatalf("refund %d vs %d", rA, rS)
	}
	if len(poA) != len(poS) {
		t.Fatalf("payouts %v vs %v", poA, poS)
	}
	for i := range poA {
		if poA[i] != poS[i] {
			t.Fatalf("payout %d: %+v vs %+v", i, poA[i], poS[i])
		}
	}
	for id := AccountID(1); id <= 4; id++ {
		ba, _ := bA.Balance(id)
		bs, _ := bS.Balance(id)
		if ba != bs {
			t.Fatalf("account %d: %d vs %d", id, ba, bs)
		}
	}
}

// TestSettleAggregatedRejectsForgeries: a forged chain settles nothing —
// the forwarder gets no payout, the initiator gets the full refund, and
// the rejected entries surface in the cheating counter path (conservation
// still holds).
func TestSettleAggregatedRejectsForgeries(t *testing.T) {
	m := minter(t)
	b := freshBank(t)
	for id := AccountID(1); id <= 3; id++ {
		if err := b.OpenAccount(id, 1000); err != nil {
			t.Fatal(err)
		}
	}
	esc, err := b.OpenEscrow(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	_, genuine := mintChain(t, m, 2, [2]int{1, 1}, [2]int{2, 1})
	forged := genuine
	forged.Forwarder = 3 // claim someone else's chain
	payouts, refund, err := esc.SettleAggregated(m, 10, 100, []AggregateClaim{forged})
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts) != 0 {
		t.Fatalf("forged claim paid: %v", payouts)
	}
	if refund != 500 {
		t.Fatalf("refund %d, want the full lock", refund)
	}
	if bal, _ := b.Balance(3); bal != 1000 {
		t.Fatalf("forger's balance moved to %d", bal)
	}
	if err := b.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateClaimWireRoundTrip(t *testing.T) {
	m := minter(t)
	_, claim := mintChain(t, m, 42, [2]int{1, 1}, [2]int{1, 2}, [2]int{7, 3})
	enc, err := EncodeAggregateClaim(claim)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != AggClaimWireSize(3) {
		t.Fatalf("encoded %d bytes, want %d", len(enc), AggClaimWireSize(3))
	}
	dec, err := DecodeAggregateClaim(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Forwarder != claim.Forwarder || dec.Chain != claim.Chain || len(dec.Entries) != 3 {
		t.Fatalf("round trip changed claim: %+v", dec)
	}
	// The decoded claim still verifies — the wire carries authenticity.
	if m.VerifyAggregate(&dec) != 3 {
		t.Fatal("decoded claim does not verify")
	}
}

// TestSettleAggregatedEpochAllocs pins the aggregated settlement's
// allocation count: one epoch of 10⁴ receipts, 32 per forwarder, decoded
// from their wire forms, escrowed, verified and paid, allocates about 4
// times per claim and none per receipt (1 255 in all), plus a few when a
// GC empties the verifier's pool mid-run.
func TestSettleAggregatedEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates inside the digest")
	}
	const n, perClaim = 10_000, 32
	m := minter(t)
	b := newBank(sharedBank(t).key)
	if err := b.OpenAccount(1, 1<<40); err != nil {
		t.Fatal(err)
	}
	forwarders := n / perClaim
	limit := 4*forwarders + 16
	wire := make([][]byte, forwarders)
	for f := range wire {
		fid := AccountID(100 + f)
		if err := b.OpenAccount(fid, 0); err != nil {
			t.Fatal(err)
		}
		count := perClaim
		if f == forwarders-1 {
			count = n - perClaim*(forwarders-1)
		}
		chain := NewClaimChain(fid)
		for i := 0; i < count; i++ {
			if err := chain.Add(m.Mint(i, 1, fid)); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := EncodeAggregateClaim(chain.Claim())
		if err != nil {
			t.Fatal(err)
		}
		wire[f] = enc
	}
	allocs := testing.AllocsPerRun(5, func() {
		esc, err := b.OpenEscrow(1, n*10+1000)
		if err != nil {
			t.Fatal(err)
		}
		claims := make([]AggregateClaim, forwarders)
		for f, enc := range wire {
			if claims[f], err = DecodeAggregateClaim(enc); err != nil {
				t.Fatal(err)
			}
		}
		payouts, _, err := esc.SettleAggregated(m, 10, 1000, claims)
		if err != nil || len(payouts) != forwarders {
			t.Fatalf("%d of %d claims paid, err %v", len(payouts), forwarders, err)
		}
	})
	t.Logf("%.0f allocations per epoch of %d receipts", allocs, n)
	if allocs > float64(limit) {
		t.Fatalf("an epoch allocates %.0f times, want <= %d", allocs, limit)
	}
}
