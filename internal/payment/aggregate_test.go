package payment

import (
	"math/rand"
	"reflect"
	"testing"

	"p2panon/internal/telemetry"
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

// TestPadDerivationMatchesReference holds the minter's pad mid-states,
// derived with one digest into its own arrays, to crypto/hmac for keys
// below, at and past the block (past 64 bytes RFC 2104 hashes the key
// first): Mint against receiptMAC, CountValid against Verify's count, and
// SettleAggregated's payouts and per-claim verdicts against
// verifyAggregateSlow's — for the minter and for one forced onto the slow
// path.
func TestPadDerivationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{1, 32, 64, 65, 200} {
		key := make([]byte, n)
		rng.Read(key)
		fast, err := NewReceiptMinter(key)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.fast {
			t.Fatalf("%d-byte key: the mid-state path does not serve", n)
		}
		slow, err := NewReceiptMinter(key)
		if err != nil {
			t.Fatal(err)
		}
		slow.fast = false
		for _, m := range []*ReceiptMinter{fast, slow} {
			for i := 0; i < 20; i++ {
				conn, hop, f := rng.Intn(1<<20), rng.Intn(8), AccountID(rng.Intn(1<<20))
				if got, want := m.Mint(conn, hop, f).MAC, receiptMAC(key, conn, hop, f); got != want {
					t.Fatalf("%d-byte key, fast %v: Mint %x, receiptMAC %x", n, m.fast, got, want)
				}
			}
			for round := 0; round < 20; round++ {
				for _, c := range randomClaims(m, rng) {
					if got, want := m.CountValid(c.Forwarder, c.Receipts), countValidRef(m, c.Forwarder, c.Receipts); got != want {
						t.Fatalf("%d-byte key, fast %v: CountValid %d, Verify counts %d", n, m.fast, got, want)
					}
				}
			}
		}
		// Forwarders 2–6 claim receipts at hops 1 and 2 of their own
		// connections; 4's claim carries one flipped MAC bit, so its chain
		// fails whole.
		var claims []Claim
		for f := AccountID(2); f <= 6; f++ {
			c := Claim{Forwarder: f}
			for conn := 0; conn < int(f); conn++ {
				c.Receipts = append(c.Receipts, fast.Mint(conn, 1, f), fast.Mint(conn, 2, f))
			}
			if f == 4 {
				c.Receipts[1].MAC[7] ^= 0x10
			}
			claims = append(claims, c)
		}
		for _, c := range claims {
			chain := NewClaimChain(c.Forwarder)
			for _, r := range c.Receipts {
				if err := chain.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			claim := chain.Claim()
			if got, want := fast.VerifyAggregate(&claim), fast.verifyAggregateSlow(&claim); got != want {
				t.Fatalf("%d-byte key, forwarder %d: verifies %d, verifyAggregateSlow %d", n, c.Forwarder, got, want)
			}
		}
		got, want := settleVia(t, "aggregated", fast, 10, 90, claims), settleVia(t, "aggregated", slow, 10, 90, claims)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte key: SettleAggregated %+v, on the slow path %+v", n, got, want)
		}
		if len(got.payouts) != 4 || got.rejected != 8 {
			t.Fatalf("%d-byte key: payouts %+v, %d rejected; want 4 payouts and 8 rejected", n, got.payouts, got.rejected)
		}
	}
}

// TestClaimChainAllocs pins a chain's cost: NewClaimChain, 16 Adds and
// Claim allocate the chain and its digest, nothing per receipt.
func TestClaimChainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates inside the digest")
	}
	m := minter(t)
	rs := make([]Receipt, 16)
	for i := range rs {
		rs[i] = m.Mint(i, 1, 7)
	}
	var claim AggregateClaim
	allocs := testing.AllocsPerRun(100, func() {
		c := NewClaimChain(7)
		for _, r := range rs {
			if err := c.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		claim = c.Claim()
	})
	if allocs != 2 {
		t.Fatalf("a 16-entry chain allocates %v times, want 2", allocs)
	}
	if m.VerifyAggregate(&claim) != 16 {
		t.Fatal("the chain's claim does not verify")
	}
}

// settleOutcome is what one settle leaves behind: the payouts, every
// account's balance and the bank's settlement and rejected-receipt
// counters.
type settleOutcome struct {
	payouts     []Payout
	balances    map[AccountID]Amount
	settlements int64
	rejected    int64
}

// settlePaths are the three settle entry points, each fed the same
// per-receipt claims: "aggregated" folds every claim into a ClaimChain
// first, so the claims must be chain-representable (receipts of one
// forwarder, strictly increasing).
var settlePaths = []string{"blind", "escrow", "aggregated"}

// settleVia settles claims through one entry point on a fresh bank with
// the shared test key: account 1 is the initiator with 10 000 credits,
// accounts 2–12 are forwarders with none.
func settleVia(t *testing.T, path string, m *ReceiptMinter, pf, pr Amount, claims []Claim) settleOutcome {
	t.Helper()
	b := newBank(sharedBank(t).key)
	reg := telemetry.NewRegistry()
	b.Instrument(reg)
	for id := AccountID(1); id <= 12; id++ {
		opening := Amount(0)
		if id == 1 {
			opening = 10_000
		}
		if err := b.OpenAccount(id, opening); err != nil {
			t.Fatal(err)
		}
	}
	var payouts []Payout
	var err error
	switch path {
	case "blind":
		payouts, err = (&Settlement{Bank: b, Minter: m, Initiator: 1, Pf: pf, Pr: pr}).Run(claims)
	case "escrow", "aggregated":
		esc, oerr := b.OpenEscrow(1, 5_000)
		if oerr != nil {
			t.Fatal(oerr)
		}
		if path == "escrow" {
			payouts, _, err = esc.SettleFromEscrow(m, pf, pr, claims)
			break
		}
		agg := make([]AggregateClaim, len(claims))
		for i, c := range claims {
			chain := NewClaimChain(c.Forwarder)
			for _, r := range c.Receipts {
				if err := chain.Add(r); err != nil {
					t.Fatalf("claim %d is not chain-representable: %v", i, err)
				}
			}
			agg[i] = chain.Claim()
		}
		payouts, _, err = esc.SettleAggregated(m, pf, pr, agg)
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := b.VerifyConservation(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	out := settleOutcome{payouts: payouts, balances: make(map[AccountID]Amount)}
	for _, id := range b.Accounts() {
		out.balances[id], _ = b.Balance(id)
	}
	snap := reg.Snapshot()
	out.settlements = paymentCounter(snap, metricSettlementsTotal, nil)
	out.rejected = paymentCounter(snap, metricCheatsTotal, map[string]string{"kind": "rejected_receipt"})
	return out
}

// TestAggregatedSettlementMatchesPerReceipt is the equivalence table of
// the three settle entry points: for the same receipts, Settlement.Run,
// SettleFromEscrow and SettleAggregated return the same payouts and leave
// the same balances and counters — clean claims, wholly forged claims and
// claims naming an already claimed forwarder alike. (A chain cannot carry
// a partly valid claim, so every claim here is valid or forged whole.)
func TestAggregatedSettlementMatchesPerReceipt(t *testing.T) {
	m := minter(t)
	r2 := []Receipt{m.Mint(1, 1, 2), m.Mint(2, 1, 2), m.Mint(3, 1, 2)}
	r3 := []Receipt{m.Mint(1, 2, 3)}
	forged := []Receipt{{Conn: 5, Hop: 1, Forwarder: 4}, {Conn: 6, Hop: 1, Forwarder: 4}}
	stolen := []Receipt{{Conn: 1, Hop: 1, Forwarder: 4, MAC: r2[0].MAC}}
	for _, tc := range []struct {
		name         string
		claims       []Claim
		wantForwards map[AccountID]int
		wantRejected int64
	}{
		{"clean", []Claim{{2, r2}, {3, r3}}, map[AccountID]int{2: 3, 3: 1}, 0},
		{"forged", []Claim{{2, r2}, {4, forged}, {3, r3}}, map[AccountID]int{2: 3, 3: 1}, 2},
		{"stolen MAC", []Claim{{4, stolen}, {3, r3}}, map[AccountID]int{3: 1}, 1},
		{"claim repeated", []Claim{{3, r3}, {2, r2}, {3, r3}}, map[AccountID]int{2: 3, 3: 1}, 1},
		{"claim split", []Claim{{2, r2[:1]}, {3, r3}, {2, r2[1:]}}, map[AccountID]int{2: 1, 3: 1}, 2},
		{"forgery before genuine", []Claim{{3, []Receipt{{Conn: 9, Hop: 9, Forwarder: 3}}}, {3, r3}}, map[AccountID]int{3: 1}, 1},
		{"nothing valid", []Claim{{4, forged}}, nil, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref settleOutcome
			for i, path := range settlePaths {
				got := settleVia(t, path, m, 10, 90, tc.claims)
				if len(got.payouts) != len(tc.wantForwards) {
					t.Fatalf("%s: payouts %+v, want forwards %v", path, got.payouts, tc.wantForwards)
				}
				for j, p := range got.payouts {
					if p.Forwards != tc.wantForwards[p.Forwarder] || (j > 0 && got.payouts[j-1].Forwarder >= p.Forwarder) {
						t.Fatalf("%s: payouts %+v, want forwards %v in forwarder order", path, got.payouts, tc.wantForwards)
					}
				}
				if got.settlements != 1 || got.rejected != tc.wantRejected {
					t.Fatalf("%s: settlements %d rejected %d, want 1 and %d", path, got.settlements, got.rejected, tc.wantRejected)
				}
				if i == 0 {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got.payouts, ref.payouts) {
					t.Fatalf("%s payouts %+v, %s %+v", path, got.payouts, settlePaths[0], ref.payouts)
				}
				for id := AccountID(1); id <= 12; id++ {
					if got.balances[id] != ref.balances[id] {
						t.Fatalf("account %d: %s %d, %s %d", id, path, got.balances[id], settlePaths[0], ref.balances[id])
					}
				}
			}
		})
	}
}

// TestOneClaimPerForwarder: a forwarder named by more than one claim is
// paid once, ‖π‖ and every honest share count distinct forwarders, and the
// refused claim's receipts count as rejected — on every settle path.
// P_f = 10, P_r = 30; forwarder 10 earned two receipts, 11 one, so the
// honest payouts are 35 and 25.
func TestOneClaimPerForwarder(t *testing.T) {
	m := minter(t)
	r10 := []Receipt{m.Mint(1, 1, 10), m.Mint(2, 1, 10)}
	r11 := []Receipt{m.Mint(1, 2, 11)}
	split := []Claim{{10, r10[:1]}, {10, r10[1:]}, {11, r11}}
	twice := []Claim{{10, r10}, {11, r11}, {10, r10}}
	for _, tc := range []struct {
		name, path   string
		claims       []Claim
		want         []Payout
		wantRejected int64
	}{
		// The split forwarder is paid for its first claim only.
		{"split per-receipt claims", "escrow", split, []Payout{{10, 1, 25}, {11, 1, 25}}, 1},
		{"same aggregate claim twice", "aggregated", twice, []Payout{{10, 2, 35}, {11, 1, 25}}, 2},
		{"blind path", "blind", split, []Payout{{10, 1, 25}, {11, 1, 25}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := settleVia(t, tc.path, m, 10, 30, tc.claims)
			if !reflect.DeepEqual(got.payouts, tc.want) {
				t.Fatalf("payouts %+v, want %+v", got.payouts, tc.want)
			}
			for _, p := range tc.want {
				if got.balances[p.Forwarder] != p.Amount {
					t.Fatalf("forwarder %d holds %d, want %d", p.Forwarder, got.balances[p.Forwarder], p.Amount)
				}
			}
			if got.rejected != tc.wantRejected {
				t.Fatalf("rejected_receipt %d, want %d", got.rejected, tc.wantRejected)
			}
		})
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
// from their wire forms, escrowed, verified and paid, allocates once per
// claim (its decoded entries) and three times per epoch (the escrow, the
// claims slice, the accepted payouts): 315 in all, 316 in one run of
// forty. Verification itself runs on the minter's verifier and fold
// digest and allocates nothing per claim or per receipt (1 255 in all
// when it built a verifier per epoch and its chain sums escaped).
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
	limit := forwarders + 4
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

// VerifyAggregate re-derives the claim's chain under this minter's secret
// and returns the accepted forwarding count: len(Entries) when the chain
// matches, 0 otherwise (all-or-nothing) — verifyAggregate under the
// minter's mutex.
func (m *ReceiptMinter) VerifyAggregate(c *AggregateClaim) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verifyAggregate(c)
}

// Len returns the number of folded receipts.
func (c *ClaimChain) Len() int { return len(c.entries) }
