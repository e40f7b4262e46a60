package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/netwire"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/probe"
	"p2panon/internal/quality"
	"p2panon/internal/stats"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// bankFixture is a Bank.Save snapshot holding a throw-away 2048-bit key
// and no accounts (see testdata/README.md; -gen-fixture rewrites it).
// Loading it keeps rsa.GenerateKey, whose run time varies several-fold,
// out of setup_s.
//
//go:embed testdata/bank2048.gob
var bankFixture []byte

const (
	openingBalance = payment.Amount(1) << 40
	// patience is every timeout the harness configures. The workloads are
	// fault-free, so no timeout should ever fire; on a shared box the whole
	// VM can freeze for seconds, and a guard tuned for loopback (2 s dial,
	// 3.3 s connect attempt) would turn that into a reformation and fail
	// the run.
	patience = time.Minute
)

// conductor is what both forwarding backends offer a batch driver.
type conductor interface {
	transport.Conductor
	SettleBatch(initiator overlay.NodeID, batch int, out *transport.BatchOutcome, contract core.Contract) (int, error)
}

// liveShape selects one of the three live workloads.
type liveShape struct {
	nodes, degree, budget int
	tcp                   bool // netwire.Cluster on loopback, else transport.Network
	um2                   bool // Utility Model II router, else Model I
	blind                 bool // per-receipt claims + blind tokens, else chain claims + escrow
}

// liveBatch is what one settled batch produced, kept for the checks that
// run after the measured window.
type liveBatch struct {
	id      int
	i, r    overlay.NodeID
	out     *transport.BatchOutcome
	payouts []payment.Payout
}

// liveWorld is a forwarding backend with its routers, a bank and the
// seeded (I, R) schedule.
type liveWorld struct {
	shape    liveShape
	tr       *tracer
	topo     transport.Topology
	avail    map[overlay.NodeID]float64
	contract core.Contract
	cond     conductor
	cluster  *netwire.Cluster // nil in-process
	reg      *telemetry.Registry
	bank     *payment.Bank
	funds    payment.Amount // total balance right after the accounts were opened

	seed      uint64
	sched     [][2]overlay.NodeID // (I, R) of every batch this world will run
	nextBatch int
	batches   []liveBatch
	s         samples
}

func newLiveWorld(shape liveShape, p plan) (world, error) {
	tr := p.tr
	w := &liveWorld{
		shape:    shape,
		tr:       tr,
		contract: core.Contract{Pf: contractPf, Pr: contractPr},
		reg:      telemetry.NewRegistry(),
		seed:     p.seed,
	}
	nodes := make([]overlay.NodeID, shape.nodes)
	for i := range nodes {
		nodes[i] = overlay.NodeID(i)
	}
	w.sched = schedule(p, nodes)

	// Overlay snapshot and availability scores, as experiment.RunLive
	// derives them: a node's score is the mean of its neighbors' estimates.
	rng := dist.NewSource(worldSeed)
	net := overlay.NewNetwork(shape.degree, rng.Split())
	for i := 0; i < shape.nodes; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	probes := probe.NewSet(net, rng.Split(), probe.DefaultPeriod)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	w.topo = transport.SnapshotTopology(net)
	views := make(map[overlay.NodeID][]float64)
	for _, id := range net.OnlineIDs() {
		for v, a := range probes.For(id).Snapshot() {
			views[v] = append(views[v], a)
		}
	}
	w.avail = make(map[overlay.NodeID]float64, shape.nodes)
	for id, vs := range views {
		sort.Float64s(vs) // map order must not reach a float sum
		w.avail[id] = stats.Mean(vs)
	}

	var router transport.Router
	if shape.um2 {
		r := transport.NewUtilityIIRouter(w.topo, quality.DefaultWeights(), w.contract, w.avail)
		r.Instrument(w.reg)
		router = r
	} else {
		router = transport.NewUtilityRouter(w.topo, quality.DefaultWeights(), w.contract, w.avail)
	}
	if tr != nil {
		router = tracedRouter{inner: router, t: tr}
	}

	if shape.tcp {
		cfg := netwire.DefaultConfig()
		cfg.DialTimeout, cfg.HandshakeTimeout, cfg.WriteTimeout, cfg.EnqueueTimeout = patience, patience, patience, patience
		cfg.IdleTimeout = 10 * patience
		w.cluster = netwire.NewCluster(cfg)
		w.cond = w.cluster
	} else {
		w.cond = transport.NewNetwork(0)
	}
	for id := 0; id < shape.nodes; id++ {
		if err := w.cond.Join(overlay.NodeID(id), router); err != nil {
			w.cond.Close()
			return nil, err
		}
	}

	bank, err := payment.LoadBank(bytes.NewReader(bankFixture))
	if err != nil {
		w.cond.Close()
		return nil, fmt.Errorf("loading bank fixture: %w", err)
	}
	bank.Instrument(w.reg)
	for id := 0; id < shape.nodes; id++ {
		if err := bank.OpenAccount(payment.AccountID(id), openingBalance); err != nil {
			w.cond.Close()
			return nil, err
		}
	}
	w.bank = bank
	w.funds = bank.TotalBalance() + bank.Float()
	return w, nil
}

// schedule returns the (I, R) pair of every batch a world will run,
// warm-up first. Which pairs the warm-up and the window consist of is
// fixed (see worldSeed); the plan's seed shuffles each.
func schedule(p plan, eligible []overlay.NodeID) [][2]overlay.NodeID {
	order := dist.NewSource(p.seed)
	population := func(n int, tag uint64) [][2]overlay.NodeID {
		rng := dist.NewSource(worldSeed + tag)
		pairs := make([][2]overlay.NodeID, n)
		for k := range pairs {
			i := rng.Intn(len(eligible))
			r := rng.Intn(len(eligible) - 1)
			if r >= i {
				r++
			}
			pairs[k] = [2]overlay.NodeID{eligible[i], eligible[r]}
		}
		dist.Shuffle(order, pairs)
		return pairs
	}
	return append(population(p.warm, 1), population(p.window, 2)...)
}

func (w *liveWorld) close() { w.cond.Close() }

func (w *liveWorld) samples() *samples { return &w.s }

// reset starts the measured window: warm-up batches are forgotten, the
// schedule and batch numbering carry on.
func (w *liveWorld) reset() {
	w.batches = nil
	w.s = samples{}
}

// step runs one batch: k connections of a freshly drawn (I, R) pair, then
// claims, settlement at the bank and the settle notification.
func (w *liveWorld) step() (batches, conns int, err error) {
	if w.nextBatch == len(w.sched) {
		return 0, 0, fmt.Errorf("schedule of %d batches exhausted", len(w.sched))
	}
	i, r := w.sched[w.nextBatch][0], w.sched[w.nextBatch][1]
	w.nextBatch++
	b := w.nextBatch

	out := transport.NewBatchOutcome()
	for conn := 1; conn <= connsPerBatch; conn++ {
		sp := w.tr.startConnect(b)
		t0 := time.Now()
		path, reforms, err := w.cond.ConnectDetail(i, r, b, conn, w.shape.budget, patience)
		w.s.connectMs = append(w.s.connectMs, sinceMs(t0))
		sp.end()
		if err != nil {
			return 0, 0, fmt.Errorf("batch %d conn %d (%d→%d): %w", b, conn, i, r, err)
		}
		out.Record(path, i)
		out.Reformations += reforms
	}

	confirmed := time.Now()
	var payouts []payment.Payout
	if w.shape.blind {
		payouts, err = w.settleBlind(b, i, out)
	} else {
		payouts, err = w.settleAggregated(b, i, out)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("batch %d settlement: %w", b, err)
	}
	sp := w.tr.start(spanSettleNotify, b)
	notified, err := w.cond.SettleBatch(i, b, out, w.contract)
	sp.end()
	w.s.settleMs = append(w.s.settleMs, sinceMs(confirmed))
	if err != nil {
		return 0, 0, fmt.Errorf("batch %d settle notification: %w", b, err)
	}
	if notified != out.SetSize() {
		return 0, 0, fmt.Errorf("batch %d: %d of %d forwarders notified", b, notified, out.SetSize())
	}
	w.batches = append(w.batches, liveBatch{id: b, i: i, r: r, out: out, payouts: payouts})
	return 1, connsPerBatch, nil
}

// minter derives the batch's receipt secret from the seed, so transcripts
// repeat; a deployment would draw it at random.
func (w *liveWorld) minter(batch int) (*payment.ReceiptMinter, error) {
	var secret [32]byte
	binary.BigEndian.PutUint64(secret[:8], w.seed)
	binary.BigEndian.PutUint64(secret[8:16], uint64(batch))
	return payment.NewReceiptMinter(secret[:])
}

// settleAggregated is the chain-claim path: each forwarder folds its
// receipts into a ClaimChain, the claim crosses the payment codec and a
// netwire claim frame, and the bank pays it out of an escrow.
func (w *liveWorld) settleAggregated(b int, initiator overlay.NodeID, out *transport.BatchOutcome) ([]payment.Payout, error) {
	sp := w.tr.start(spanMintChain, b)
	minter, err := w.minter(b)
	if err != nil {
		return nil, err
	}
	chains := make([]*payment.ClaimChain, w.shape.nodes) // by forwarder, so claims come out in id order
	for ci, path := range out.Paths {
		for hop, f := range path[1 : len(path)-1] {
			if chains[f] == nil {
				chains[f] = payment.NewClaimChain(payment.AccountID(f))
			}
			if err := chains[f].Add(minter.Mint(ci+1, hop+1, payment.AccountID(f))); err != nil {
				return nil, err
			}
		}
	}
	claims := make([]payment.AggregateClaim, 0, out.SetSize())
	for _, ch := range chains {
		if ch != nil {
			claims = append(claims, ch.Claim())
		}
	}
	sp.end()

	sp = w.tr.start(spanClaimCodec, b)
	for ci := range claims {
		enc, err := payment.EncodeAggregateClaim(claims[ci])
		if err != nil {
			return nil, err
		}
		w.s.claimBytes += int64(len(enc))
		dec, err := payment.DecodeAggregateClaim(enc)
		if err != nil {
			return nil, err
		}
		wire, err := (&netwire.Frame{Kind: netwire.KindClaim, Batch: b, AggClaim: &dec}).Encode()
		if err != nil {
			return nil, err
		}
		f, err := netwire.DecodeFrame(wire)
		if err != nil {
			return nil, err
		}
		claims[ci] = *f.AggClaim
	}
	sp.end()

	pf, pr := payment.Amount(contractPf), payment.Amount(contractPr)
	sp = w.tr.start(spanEscrowOpen, b)
	escrow, err := w.bank.OpenEscrow(payment.AccountID(initiator), payment.Amount(connsPerBatch*w.shape.budget)*pf+pr)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = w.tr.start(spanVerifySettle, b)
	payouts, _, err := escrow.SettleAggregated(minter, pf, pr, claims)
	sp.end()
	return payouts, err
}

// settleBlind is the other payment path: one receipt per forwarding
// instance, each crossing the receipt codec, settled by Settlement.Run
// with blind tokens withdrawn from the initiator and deposited in one
// batch.
func (w *liveWorld) settleBlind(b int, initiator overlay.NodeID, out *transport.BatchOutcome) ([]payment.Payout, error) {
	sp := w.tr.start(spanMintChain, b)
	minter, err := w.minter(b)
	if err != nil {
		return nil, err
	}
	receipts := make([][]payment.Receipt, w.shape.nodes) // by forwarder
	for ci, path := range out.Paths {
		for hop, f := range path[1 : len(path)-1] {
			receipts[f] = append(receipts[f], minter.Mint(ci+1, hop+1, payment.AccountID(f)))
		}
	}
	claims := make([]payment.Claim, 0, out.SetSize())
	for f, rs := range receipts {
		if len(rs) > 0 {
			claims = append(claims, payment.Claim{Forwarder: payment.AccountID(f), Receipts: rs})
		}
	}
	sp.end()

	sp = w.tr.start(spanClaimCodec, b)
	for _, c := range claims {
		for ri := range c.Receipts {
			enc := payment.EncodeReceipt(c.Receipts[ri])
			w.s.claimBytes += int64(len(enc))
			if c.Receipts[ri], err = payment.DecodeReceipt(enc); err != nil {
				return nil, err
			}
		}
	}
	sp.end()

	sp = w.tr.start(spanVerifySettle, b)
	payouts, err := (&payment.Settlement{
		Bank: w.bank, Minter: minter, Initiator: payment.AccountID(initiator),
		Pf: contractPf, Pr: contractPr,
	}).Run(claims)
	sp.end()
	return payouts, err
}

// verify checks every batch of the window against the topology, the
// payout rule and the bank, and returns the transcript hash.
func (w *liveWorld) verify() (string, error) {
	h := sha256.New()
	expect := make(map[payment.AccountID]payment.Amount)
	for _, b := range w.batches {
		fmt.Fprintf(h, "batch %d %d %d\n", b.id, b.i, b.r)
		forwards := make(map[overlay.NodeID]int)
		for ci, p := range b.out.Paths {
			if err := checkPath(p, b.i, b.r, w.shape.budget, func(u, v overlay.NodeID) bool {
				for _, x := range w.topo[u] {
					if x == v {
						return true
					}
				}
				return false
			}); err != nil {
				return "", fmt.Errorf("batch %d conn %d: %w", b.id, ci+1, err)
			}
			for _, f := range p[1 : len(p)-1] {
				forwards[f]++
			}
			fmt.Fprintf(h, "path %v\n", p)
		}
		if len(b.payouts) != len(forwards) {
			return "", fmt.Errorf("batch %d: %d payouts for ‖π‖=%d", b.id, len(b.payouts), len(forwards))
		}
		for _, po := range b.payouts {
			m := forwards[overlay.NodeID(po.Forwarder)]
			want := payment.Amount(m)*contractPf + contractPr/payment.Amount(len(forwards))
			if m == 0 || po.Forwards != m || po.Amount != want {
				return "", fmt.Errorf("batch %d: forwarder %d paid %d for m=%d, want %d for m=%d",
					b.id, po.Forwarder, po.Amount, po.Forwards, want, m)
			}
			expect[po.Forwarder] += po.Amount
			expect[payment.AccountID(b.i)] -= po.Amount
			fmt.Fprintf(h, "pay %d %d %d\n", po.Forwarder, po.Forwards, po.Amount)
		}
	}
	if err := w.bank.VerifyConservation(); err != nil {
		return "", err
	}
	if got := w.bank.TotalBalance() + w.bank.Float(); got != w.funds {
		return "", fmt.Errorf("bank total %d, opened with %d", got, w.funds)
	}
	if n := w.counter("payment_cheats_detected_total", telemetry.Labels{"kind": "rejected_receipt"}); n != 0 {
		return "", fmt.Errorf("%d receipts rejected in a fault-free run", n)
	}
	if m := w.cond.Metrics(); m.Failures != 0 || m.Reformations != 0 {
		return "", fmt.Errorf("fault-free run saw %d failures, %d reformations", m.Failures, m.Reformations)
	}
	if w.cluster != nil {
		if err := w.verifyCredited(); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// verifyCredited checks that every forwarder's node was credited its
// share over the wire. Settle frames are queued, not acknowledged, so the
// last few may still be in flight when the window closes: poll briefly.
func (w *liveWorld) verifyCredited() error {
	deadline := time.Now().Add(patience)
	for _, b := range w.batches {
		for id := range b.out.Set {
			want := b.out.Payoff(id, w.contract)
			for w.cluster.Node(id).Credited(b.id) != want {
				if time.Now().After(deadline) {
					return fmt.Errorf("batch %d: node %d credited %v over TCP, want %v",
						b.id, id, w.cluster.Node(id).Credited(b.id), want)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}

// checkPath verifies one realised path: it runs from I to R, every hop
// but the final delivery follows a topology edge, and it respects the hop
// budget (at most budget forwarders, so budget+1 edges).
func checkPath(p []overlay.NodeID, i, r overlay.NodeID, budget int, edge func(u, v overlay.NodeID) bool) error {
	if len(p) < 2 || p[0] != i || p[len(p)-1] != r {
		return fmt.Errorf("path %v does not run %d→%d", p, i, r)
	}
	if len(p)-1 > budget+1 {
		return fmt.Errorf("path %v exceeds hop budget %d", p, budget)
	}
	for h := 0; h+2 < len(p); h++ {
		if !edge(p[h], p[h+1]) {
			return fmt.Errorf("path %v: %d→%d is not an overlay edge", p, p[h], p[h+1])
		}
	}
	return nil
}

func (w *liveWorld) counter(name string, labels telemetry.Labels) int64 {
	return w.reg.Counter(name, labels).Value()
}

// counters snapshots the monotonic counters the per-layer metrics are
// differences of.
func (w *liveWorld) counters() map[string]float64 {
	m := w.cond.Metrics()
	c := map[string]float64{
		"msgs":         float64(m.Sent),
		"reformations": float64(m.Reformations),
		"spne_hits":    float64(w.counter("transport_spne_cache_total", telemetry.Labels{"result": "hit"})),
		"spne_misses":  float64(w.counter("transport_spne_cache_total", telemetry.Labels{"result": "miss"})),
		"tokens":       float64(w.counter("payment_deposits_total", telemetry.Labels{"result": "ok"})),
		"rejected":     float64(w.counter("payment_cheats_detected_total", telemetry.Labels{"kind": "rejected_receipt"})),
	}
	if w.cluster != nil {
		reg := w.cluster.Telemetry()
		c["wire_bytes"] = float64(reg.Counter("netwire_bytes_total", telemetry.Labels{"dir": "sent"}).Value())
		c["dials"] = float64(reg.Counter("netwire_dials_total", telemetry.Labels{"result": "ok"}).Value())
		for k := netwire.KindHello; k <= netwire.KindClaim; k++ {
			c["wire_frames"] += float64(reg.Counter("netwire_frames_total", telemetry.Labels{"dir": "sent", "kind": k.String()}).Value())
		}
	}
	return c
}

// gauges are end-of-run levels rather than window differences.
func (w *liveWorld) gauges() map[string]float64 {
	return map[string]float64{"spent_serials": float64(w.bank.SpentCount())}
}
