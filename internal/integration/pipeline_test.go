package integration

import (
	"crypto/rand"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/quality"
	"p2panon/internal/transport"
)

// TestFullSecurePipeline exercises the complete deployed-system story in
// one flow: goroutine peers form utility-routed paths under a *signed*
// contract; every forwarder seals a path record; the initiator validates
// each path cryptographically; forwarding receipts are minted from the
// validated paths only; and the bank settles m·P_f + P_r/‖π‖ per
// forwarder with blind tokens — conserving money and paying exactly the
// work the records prove.
func TestFullSecurePipeline(t *testing.T) {
	const (
		nPeers = 25
		k      = 12
		budget = 4
	)
	// Live overlay.
	rng := dist.NewSource(77)
	topo := make(transport.Topology)
	for i := 0; i < nPeers; i++ {
		idx := dist.SampleWithoutReplacement(rng, nPeers-1, 6)
		var nbs []overlay.NodeID
		for _, j := range idx {
			if j >= i {
				j++
			}
			nbs = append(nbs, overlay.NodeID(j))
		}
		topo[overlay.NodeID(i)] = nbs
	}
	avail := make(map[overlay.NodeID]float64, nPeers)
	for i := 0; i < nPeers; i++ {
		avail[overlay.NodeID(i)] = 1.0 / nPeers
	}
	contractVals := core.Contract{Pf: 50, Pr: 200}
	router := transport.NewUtilityRouter(topo, quality.DefaultWeights(), contractVals, avail)
	live := transport.NewNetwork(0)
	defer live.Close()
	for id := range topo {
		if err := live.Join(id, router); err != nil {
			t.Fatal(err)
		}
	}

	// Signed contract + batch key (§5 crypto).
	bk, err := onion.NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	contract, err := onion.NewSignedContract(1, contractVals.Pf, contractVals.Pr, bk.Public())
	if err != nil {
		t.Fatal(err)
	}

	// Run the secure batch: paths validated per connection.
	out, err := live.RunSecureBatch(0, 24, contract, bk, k, budget, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.SetSize() == 0 {
		t.Fatal("no forwarders")
	}

	// Mint receipts from the *validated* paths only — the payment basis.
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		t.Fatal(err)
	}
	minter, err := payment.NewReceiptMinter(secret)
	if err != nil {
		t.Fatal(err)
	}
	receipts := make(map[overlay.NodeID][]payment.Receipt)
	for conn, path := range out.Paths {
		for hop, f := range path[1 : len(path)-1] {
			receipts[f] = append(receipts[f], minter.Mint(conn+1, hop+1, payment.AccountID(f)))
		}
	}

	// Bank settlement with blind tokens.
	bank, err := payment.NewBank(1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPeers; i++ {
		opening := payment.Amount(0)
		if i == 0 {
			opening = 1 << 20
		}
		if err := bank.OpenAccount(payment.AccountID(i), opening); err != nil {
			t.Fatal(err)
		}
	}
	var claims []payment.Claim
	for id, rs := range receipts {
		claims = append(claims, payment.Claim{Forwarder: payment.AccountID(id), Receipts: rs})
	}
	before := bank.TotalBalance() + bank.Float()
	settle := &payment.Settlement{
		Bank: bank, Minter: minter, Initiator: 0,
		Pf: payment.Amount(contractVals.Pf), Pr: payment.Amount(contractVals.Pr),
	}
	payouts, err := settle.Run(claims)
	if err != nil {
		t.Fatal(err)
	}

	// Every payout's m must equal the transport layer's own count.
	if len(payouts) != out.SetSize() {
		t.Fatalf("payouts %d != ‖π‖ %d", len(payouts), out.SetSize())
	}
	for _, p := range payouts {
		id := overlay.NodeID(p.Forwarder)
		if p.Forwards != out.Forwards[id] {
			t.Fatalf("forwarder %d: paid m=%d, transport m=%d", id, p.Forwards, out.Forwards[id])
		}
	}
	if got := bank.TotalBalance() + bank.Float(); got != before {
		t.Fatalf("conservation: %d -> %d", before, got)
	}
	if err := bank.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
}
