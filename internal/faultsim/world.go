package faultsim

import (
	"fmt"
	"sort"
	"time"

	"p2panon/internal/churn"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
	"p2panon/internal/vclock"
)

// Harness metric names. Injected faults are the harness's own count,
// reconciled against the fault spans. The protocol's and the network's
// counters are the transport_* instruments, bound into the world's
// registry.
const (
	metricFaults = "faultsim_faults_injected_total"

	// The driver's instruments the world reads back.
	metricConns       = "transport_connections_total" // label result: ok|fail
	metricReforms     = "transport_reformations_total"
	metricStale       = "transport_stale_replies_total"
	metricMalformed   = "transport_malformed_total"
	metricSettlements = "transport_settlements_total"
)

// connOutcome is one connection's completion as the driver reported it.
type connOutcome struct {
	refused bool             // the driver refused it up front (initiator offline)
	path    []overlay.NodeID // nil unless delivered
	reforms int
}

// batchRecord is everything invariant checking needs about one batch.
type batchRecord struct {
	batch                int
	skipped              bool
	initiator, responder overlay.NodeID
	lock                 payment.Amount
	escrow               *payment.Escrow
	minter               *payment.ReceiptMinter
	router               transport.Router
	receipts             map[overlay.NodeID][]payment.Receipt
	conns                []connOutcome // index conn-1
	payouts              []payment.Payout
	refund               payment.Amount
	settleErr            error
	settled              bool
	landed               int // payees online, by the overlay, when the batch settled
	expectRejected       int
	trace, root          telemetry.SpanID
}

// faultSlot is a message fault awaiting its matching send; i is its
// index in the plan.
type faultSlot struct {
	Fault
	i    int
	used bool
}

// world is the deterministic protocol world: overlay, churn, probing,
// routing, escrow settlement and the in-process transport.Network — all
// scheduled on one sim.Engine, which is also the network's clock, so that
// a (plan, seed) pair replays byte-identically. The network hosts a
// station for every online node and carries every message with the
// plan's latency; its driver's link is the world's faultLink, which puts
// the plan's message faults in front of it.
type world struct {
	plan   Plan
	eng    *sim.Engine
	drv    *transport.Network
	net    *overlay.Network
	churn  *churn.Driver
	probes *probe.Set
	bank   *payment.Bank
	reg    *telemetry.Registry
	spans  *telemetry.SpanRecorder

	// The per-run root: node faults, which fire at a time rather than in
	// a batch, parent their fault spans on it.
	runTrace, runRoot telemetry.SpanID

	rng       *dist.Source // world randomness (endpoints, churn, probes)
	routerRNG *dist.Source // router randomness, split per batch

	cFaults  *telemetry.Counter
	forwards int64 // FORWARDs handed to the link

	accounts     map[overlay.NodeID]struct{}
	openingTotal payment.Amount

	msgSeq         map[[2]int]int // per-(batch,conn) send counter
	msgFaults      []*faultSlot
	probeLies      map[overlay.NodeID]bool
	expectCheatsDS int

	batches      []*batchRecord
	curRec       *batchRecord
	anySettleErr bool
}

func newWorld(p Plan) (*world, error) {
	bank, err := payment.NewBank(p.KeyBits)
	if err != nil {
		return nil, err
	}
	rng := dist.NewSource(p.Seed)
	reg := telemetry.NewRegistry()
	w := &world{
		plan:      p,
		eng:       sim.NewEngine(),
		bank:      bank,
		reg:       reg,
		rng:       rng,
		accounts:  make(map[overlay.NodeID]struct{}),
		msgSeq:    make(map[[2]int]int),
		probeLies: make(map[overlay.NodeID]bool),
	}
	w.net = overlay.NewNetwork(p.Degree, rng.Split())
	w.probes = probe.NewSet(w.net, rng.Split(), sim.Time(p.ProbePeriod))
	w.routerRNG = rng.Split()

	// Spans are stamped with the virtual clock in microseconds, so the log
	// is seed-determined: two runs of one plan are byte-identical.
	w.spans = telemetry.NewSpanRecorder(p.TraceCap)
	w.spans.SetSeed(int64(p.Seed))
	w.spans.SetClock(func() int64 {
		return int64(float64(w.eng.Now()) * 1e6)
	})

	w.drv = transport.NewNetwork(sim.Time(p.Latency).Duration())
	w.drive(faultLink{w.drv, w})

	w.cFaults = reg.Counter(metricFaults, nil)
	return w, nil
}

// drive gives the world's network a driver that sends through link — the
// fault layer, faultLink. The plan's timing is its retry policy:
// MaxAttempts windows of AttemptTimeout each, backoff doubling from
// BackoffBase to BackoffMax between them.
func (w *world) drive(link transport.Link) {
	p := w.plan
	w.drv.Driver = transport.NewDriver(link, "transport")
	w.drv.SetClock(vclock.Engine(w.eng))
	w.drv.SetRetry(transport.RetryPolicy{
		MaxAttempts: p.MaxAttempts,
		BaseBackoff: sim.Time(p.BackoffBase).Duration(),
		MaxBackoff:  sim.Time(p.BackoffMax).Duration(),
	})
	w.drv.Instrument(w.reg)
	w.drv.SetSpans(w.spans)
}

// traceFault records the application of plan fault i as a fault span on
// the root of batch rec, or on the run root when rec is nil. Counter and
// span move together so reconciliation can compare them. The span's Hop
// is the fault's plan index, so two faults on one node are two spans.
func (w *world) traceFault(rec *batchRecord, i int, detail string) {
	f := w.plan.Faults[i]
	w.cFaults.Inc()
	s := telemetry.Span{
		Trace: w.runTrace, Parent: w.runRoot, Kind: telemetry.SpanFault,
		Conn: f.Conn, Hop: i, Node: f.Node, Detail: fmt.Sprintf("%s: %s", f.Kind, detail),
	}
	if rec != nil {
		s.Trace, s.Parent, s.Batch = rec.trace, rec.root, rec.batch
	}
	w.spans.Emit(s)
}

// setup wires the world together and schedules everything up to the first
// batch. Initial joins happen synchronously (the churn driver seeds the
// population at t=0), so accounts exist before any traffic.
func (w *world) setup() {
	w.bank.Instrument(w.reg)
	w.net.Instrument(w.reg)
	w.net.OnChurn(func(id overlay.NodeID, s overlay.State) {
		switch s {
		case overlay.Online:
			if _, ok := w.accounts[id]; !ok {
				opening := payment.Amount(w.plan.Opening)
				if err := w.bank.OpenAccount(payment.AccountID(id), opening); err == nil {
					w.accounts[id] = struct{}{}
					w.openingTotal += opening
				}
			}
			w.drv.Join(id, batchRouter{w})
		case overlay.Offline, overlay.Departed:
			w.drv.RemovePeer(id)
			w.drv.MarkDead(id)
		}
	})

	cfg := churn.DefaultConfig()
	cfg.N = w.plan.Nodes
	cfg.MaliciousFraction = w.plan.MaliciousFraction
	cfg.Static = !w.plan.Churn
	w.churn = churn.NewDriver(cfg, w.net, w.rng.Split())
	w.churn.Start(w.eng)
	w.probes.Attach(w.eng)

	w.runTrace, w.runRoot = w.spans.Root(0, int(overlay.None), int(overlay.None))
	for i, f := range w.plan.Faults {
		switch f.Kind {
		case FaultCrash, FaultRestart, FaultDoubleDeposit, FaultProbeLie:
			w.eng.AfterFunc(sim.Time(f.At), func(*sim.Engine) { w.applyNodeFault(i) })
		case FaultDrop, FaultDelay, FaultDuplicate, FaultReorder:
			w.msgFaults = append(w.msgFaults, &faultSlot{Fault: f, i: i})
		}
	}

	// Two probing periods of warm-up give availability estimates something
	// to say before the first utility-routed batch.
	w.eng.AfterFunc(sim.Time(2*w.plan.ProbePeriod+1), func(*sim.Engine) { w.startBatch(1) })
}

// faultLink is the network driver's link: the world's Network, with the
// plan's message faults in front of its Send.
type faultLink struct {
	*transport.Network
	w *world
}

// Send implements transport.Link. The plan's first message fault matching
// m's (batch, conn, per-connection index) drops it, or hands a copy of it
// (besides it, for a duplicate) to the network Delay later, reporting a
// target gone by then to the driver; any other message goes to the
// network as it is.
func (l faultLink) Send(from, to overlay.NodeID, m *transport.Message) bool {
	w := l.w
	if m.Kind == transport.MsgForward {
		w.forwards++
	}
	key := [2]int{m.Batch, m.Conn}
	w.msgSeq[key]++
	seq := w.msgSeq[key]
	for _, fs := range w.msgFaults {
		if fs.used || fs.Batch != m.Batch || fs.Conn != m.Conn || fs.Msg != seq {
			continue
		}
		fs.used = true
		w.traceFault(w.batches[m.Batch-1], fs.i, fmt.Sprintf("msg %d (%s %d->%d)", seq, m.Kind, from, to))
		if fs.Kind == FaultDrop {
			return true // accepted, never delivered
		}
		ok, later := true, *m
		if fs.Kind == FaultDuplicate {
			// Each copy accumulates its own forward path: the driver
			// appends hops in place, so two copies sharing one array
			// would overwrite each other's, and the attempt's launch
			// buffer is where the driver copies the path of whichever
			// copy's CONFIRM resolves it. (The world runs the plain
			// protocol, so no copy carries a secure load to share.)
			now := *m
			now.Path = append([]overlay.NodeID(nil), m.Path...)
			later.Path = append([]overlay.NodeID(nil), m.Path...)
			ok = l.Network.Send(from, to, &now)
		}
		l.Clock().AfterFunc(sim.Time(fs.Delay).Duration(), func() {
			if !l.Network.Send(from, to, &later) {
				l.Undeliverable(from, to, &later)
			}
		})
		return ok
	}
	return l.Network.Send(from, to, m)
}

// batchRouter is every node's router on the world's Network: it routes a
// message with its batch's router, closes a batch in that router, and
// passes liveness marks to the current batch's router, so a settled
// batch's router is left alone.
type batchRouter struct{ w *world }

// NextHop implements transport.Router with the batch's own router.
func (r batchRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	return r.w.batches[batch-1].router.NextHop(self, pred, initiator, responder, batch, conn, remaining)
}

// CloseBatch implements transport.BatchCloser: a settle that lands on a
// station drops the batch's state in the batch's router, as in-process.
func (r batchRouter) CloseBatch(batch int) {
	if c, ok := r.w.batches[batch-1].router.(transport.BatchCloser); ok {
		c.CloseBatch(batch)
	}
}

// MarkDead and MarkLive implement transport.ChurnAware.
func (r batchRouter) MarkDead(id overlay.NodeID) { r.mark(transport.ChurnAware.MarkDead, id) }
func (r batchRouter) MarkLive(id overlay.NodeID) { r.mark(transport.ChurnAware.MarkLive, id) }

// mark hands a liveness mark to the current batch's router, if it tracks
// liveness; between batches the mark goes nowhere.
func (r batchRouter) mark(f func(transport.ChurnAware, overlay.NodeID), id overlay.NodeID) {
	if rec := r.w.curRec; rec != nil {
		if ca, ok := rec.router.(transport.ChurnAware); ok {
			f(ca, id)
		}
	}
}

// availMap pools probe-observed session times into one availability share
// per online node — its session time summed over every other online
// observer, normalised over the online set — because the live routers
// take a single share per node where Estimator.Availability is one
// observer's share of its own neighbours. Probe-lying nodes report 1.
func (w *world) availMap() map[overlay.NodeID]float64 {
	online := w.net.OnlineIDs()
	raw := make(map[overlay.NodeID]float64, len(online))
	var total float64
	for _, v := range online {
		var t float64
		for _, obs := range online {
			if obs == v {
				continue
			}
			t += w.probes.For(obs).SessionTime(v)
		}
		raw[v] = t
		total += t
	}
	avail := make(map[overlay.NodeID]float64, len(online))
	for _, v := range online {
		if total > 0 {
			avail[v] = raw[v] / total
		} else {
			avail[v] = 1 / float64(len(online))
		}
	}
	for v := range w.probeLies {
		if _, ok := avail[v]; ok {
			avail[v] = 1
		}
	}
	return avail
}

// startBatch opens escrow, snapshots the topology, builds the router and
// launches the batch's first connection.
func (w *world) startBatch(b int) {
	rec := &batchRecord{
		batch:    b,
		receipts: make(map[overlay.NodeID][]payment.Receipt),
	}
	w.batches = append(w.batches, rec)
	w.curRec = rec

	good := w.net.GoodOnline()
	if len(good) < 2 {
		rec.skipped = true
		w.nextBatch()
		return
	}
	ii := w.rng.Intn(len(good))
	rr := w.rng.Intn(len(good) - 1)
	if rr >= ii {
		rr++
	}
	rec.initiator, rec.responder = good[ii], good[rr]

	rec.trace, rec.root = w.spans.Root(b, int(rec.initiator), int(rec.responder))

	topo := transport.SnapshotTopology(w.net)
	// Validate admitted the plan's router, so it has a live router.
	rec.router, _ = transport.NewRouter(w.plan.Strategy(), topo, w.plan.Contract(), w.availMap(), w.routerRNG)

	minter, err := payment.NewReceiptMinter([]byte(fmt.Sprintf("faultsim-batch-%d-%d", w.plan.Seed, b)))
	if err != nil {
		rec.skipped = true
		rec.settleErr = err
		w.anySettleErr = true
		w.nextBatch()
		return
	}
	rec.minter = minter

	// Lock twice the worst-case legitimate payout: a double-paid claim must
	// *succeed* and be caught by the conservation checker, not bounce off an
	// exhausted escrow.
	rec.lock = 2 * (payment.Amount(w.plan.Conns*w.plan.Budget)*payment.Amount(w.plan.Pf) + payment.Amount(w.plan.Pr))
	escrow, err := w.bank.OpenEscrow(payment.AccountID(rec.initiator), rec.lock)
	if err != nil {
		rec.skipped = true
		rec.settleErr = err
		w.anySettleErr = true
		w.nextBatch()
		return
	}
	rec.escrow = escrow
	w.launchConn(1)
}

func (w *world) nextBatch() {
	b := w.curRec.batch
	w.curRec = nil
	if b >= w.plan.Batches {
		w.eng.Stop()
		return
	}
	w.eng.AfterFunc(sim.Time(w.plan.ProbePeriod/2), func(*sim.Engine) { w.startBatch(b + 1) })
}

// launchConn hands connection c of the current batch to the driver. The
// batch's connections run one after another, as RunBatch runs them.
func (w *world) launchConn(c int) {
	rec := w.curRec
	timeout := time.Duration(w.plan.MaxAttempts) * sim.Time(w.plan.AttemptTimeout).Duration()
	err := w.drv.Start(rec.initiator, rec.responder, rec.batch, c, w.plan.Budget, timeout, func(o transport.Outcome) {
		w.connDone(rec, c, false, o)
	})
	if err != nil {
		w.connDone(rec, c, true, transport.Outcome{Err: err})
	}
}

// connDone records a connection's outcome, mints the receipts a
// delivered path earns, and moves on to the next connection or the
// batch's settlement.
func (w *world) connDone(rec *batchRecord, c int, refused bool, o transport.Outcome) {
	rec.conns = append(rec.conns, connOutcome{refused: refused, path: o.Path, reforms: o.Reformations})
	if o.Err == nil {
		for i := 1; i <= len(o.Path)-2; i++ {
			f := o.Path[i]
			rec.receipts[f] = append(rec.receipts[f], rec.minter.Mint(c, i, payment.AccountID(f)))
		}
	}
	if c < w.plan.Conns {
		w.eng.AfterFunc(0, func(*sim.Engine) { w.launchConn(c + 1) })
		return
	}
	w.eng.AfterFunc(0, func(*sim.Engine) { w.settleBatch() })
}

// settleBatch assembles claims from the minted receipts (sorted by
// forwarder for determinism), applies any claim faults, mirrors the bank's
// rejection rule into expectRejected, and settles the batch SettleDelay
// virtual seconds later — the deterministic settle point. The funds sit in
// escrow for that whole window, so a crash before the settle loses
// nothing: settlement runs against the escrow account, not the (possibly
// dead) initiator.
func (w *world) settleBatch() {
	rec := w.curRec
	fwds := make([]overlay.NodeID, 0, len(rec.receipts))
	for f := range rec.receipts {
		fwds = append(fwds, f)
	}
	sort.Slice(fwds, func(i, j int) bool { return fwds[i] < fwds[j] })
	claims := make([]payment.Claim, 0, len(fwds))
	for _, f := range fwds {
		claims = append(claims, payment.Claim{
			Forwarder: payment.AccountID(f),
			Receipts:  append([]payment.Receipt(nil), rec.receipts[f]...),
		})
	}
	for i, f := range w.plan.Faults {
		if f.Kind == FaultInflate && f.Batch == rec.batch {
			claims = w.applyInflate(rec, claims, i)
		}
	}
	rec.expectRejected = expectRejected(rec.minter, claims)
	w.eng.AfterFunc(sim.Time(w.plan.SettleDelay), func(*sim.Engine) { w.settle(rec, claims) })
}

// settle pays the batch out of its escrow, folds the outcome into the
// batch record and lands it on the stations the network still hosts, as
// Network.SettleBatch does (Driver.Settled): the initiator's closes, and
// each paid forwarder's closes with a credit, counted and spanned. From
// then on those stations refuse the batch's late messages. A payee that
// crashed is paid by the bank all the same, but gets no settle; landed
// counts the payees the overlay shows online, for reconciliation. It
// plays any double-spend fault, then starts the next batch.
func (w *world) settle(rec *batchRecord, claims []payment.Claim) {
	pf, pr := payment.Amount(w.plan.Pf), payment.Amount(w.plan.Pr)
	payouts, refund, err := rec.escrow.SettleFromEscrow(rec.minter, pf, pr, claims)
	rec.payouts, rec.refund = payouts, refund
	if err != nil {
		rec.settleErr = err
		w.anySettleErr = true
		rec.escrow.Close() // best effort: return whatever is still locked
	} else {
		rec.settled = true
		if st := w.drv.Local(rec.initiator); st != nil {
			w.drv.Settled(st, rec.batch, nil)
		}
		for _, po := range payouts {
			id := overlay.NodeID(po.Forwarder)
			if w.net.Online(id) {
				rec.landed++
			}
			if st := w.drv.Local(id); st != nil {
				w.drv.Settled(st, rec.batch, &transport.Credit{Payoff: float64(po.Amount), Trace: rec.trace, Root: rec.root})
			}
		}
		for i, f := range w.plan.Faults {
			if f.Kind == FaultDoubleSpend && f.Batch == rec.batch {
				w.applyDoubleSpend(rec, i)
			}
		}
	}
	w.nextBatch()
}

// applyInflate pads the target's claim with forged receipts plus one
// duplicate of a real receipt when it has any — the §5 inflated forwarding
// count. A correct settlement rejects every one of them.
func (w *world) applyInflate(rec *batchRecord, claims []payment.Claim, i int) []payment.Claim {
	f := w.plan.Faults[i]
	target := payment.AccountID(f.Node)
	idx := -1
	for i := range claims {
		if claims[i].Forwarder == target {
			idx = i
			break
		}
	}
	if idx < 0 {
		claims = append(claims, payment.Claim{Forwarder: target})
		idx = len(claims) - 1
	}
	for j := 0; j < f.Count; j++ {
		claims[idx].Receipts = append(claims[idx].Receipts,
			payment.Receipt{Conn: 100000 + j, Hop: j, Forwarder: target})
	}
	if rs := rec.receipts[overlay.NodeID(f.Node)]; len(rs) > 0 {
		claims[idx].Receipts = append(claims[idx].Receipts, rs[0])
	}
	w.traceFault(rec, i, fmt.Sprintf("claim of node %d padded with %d forged receipts", f.Node, f.Count))
	return claims
}

// applyDoubleSpend pays Node's payout of the settled batch a second time
// (the first payout when Node was not paid), from a fresh escrow of the
// initiator's: the planted defect — money the payout rule never owed —
// that the payment-conservation invariant must catch.
func (w *world) applyDoubleSpend(rec *batchRecord, i int) {
	f := w.plan.Faults[i]
	if len(rec.payouts) == 0 {
		w.traceFault(rec, i, "no payouts to repeat (noop)")
		return
	}
	po := rec.payouts[0]
	for _, p := range rec.payouts {
		if p.Forwarder == payment.AccountID(f.Node) {
			po = p
		}
	}
	esc, err := w.bank.OpenEscrow(payment.AccountID(rec.initiator), po.Amount)
	if err == nil {
		if err = esc.Pay(po.Forwarder, po.Amount); err == nil {
			_, err = esc.Close()
		}
	}
	w.traceFault(rec, i, fmt.Sprintf("forwarder %d paid %d a second time, err=%v", po.Forwarder, po.Amount, err))
}

// expectRejected mirrors the bank's payout rule so the invariant layer can
// predict its rejected-receipt cheat counter exactly: every receipt is
// rejected except the valid ones of a forwarder's first accepted claim.
func expectRejected(minter *payment.ReceiptMinter, claims []payment.Claim) int {
	paid := make(map[payment.AccountID]bool, len(claims))
	rejected := 0
	for _, c := range claims {
		rejected += len(c.Receipts)
		if m := minter.CountValid(c.Forwarder, c.Receipts); m > 0 && !paid[c.Forwarder] {
			paid[c.Forwarder] = true
			rejected -= m
		}
	}
	return rejected
}

// applyNodeFault fires time-scheduled plan fault i. Faults whose
// precondition no longer holds (crashing an offline node, restarting an
// online one) degrade to traced no-ops so shrunk plans stay replayable.
func (w *world) applyNodeFault(i int) {
	f := w.plan.Faults[i]
	id := overlay.NodeID(f.Node)
	now := w.eng.Now()
	var detail string
	switch f.Kind {
	case FaultCrash:
		if w.net.Exists(id) && w.net.Online(id) {
			w.net.Leave(now, id, false)
			detail = fmt.Sprintf("node %d crashed", f.Node)
		} else {
			detail = fmt.Sprintf("node %d not online (noop)", f.Node)
		}
	case FaultRestart:
		if w.net.Exists(id) && w.net.Node(id).State == overlay.Offline {
			w.net.Rejoin(now, id)
			detail = fmt.Sprintf("node %d restarted", f.Node)
		} else {
			detail = fmt.Sprintf("node %d not offline (noop)", f.Node)
		}
	case FaultDoubleDeposit:
		detail = w.applyDoubleDeposit(id)
	case FaultProbeLie:
		w.probeLies[id] = true
		detail = fmt.Sprintf("node %d reports availability 1.0 from now on", f.Node)
	}
	w.traceFault(nil, i, detail)
}

// applyDoubleDeposit withdraws one blind token and deposits it twice. The
// bank must reject the replayed serial; expectCheatsDS records that the
// attempt was actually made so reconciliation notices a bank that does not.
func (w *world) applyDoubleDeposit(id overlay.NodeID) string {
	acct := payment.AccountID(id)
	if _, ok := w.accounts[id]; !ok {
		return fmt.Sprintf("node %d has no account (noop)", id)
	}
	tokens, err := w.bank.WithdrawAmount(acct, 4, nil)
	if err != nil || len(tokens) == 0 {
		return fmt.Sprintf("node %d withdraw failed (noop): %v", id, err)
	}
	tok := tokens[0]
	if err := w.bank.Deposit(acct, tok); err != nil {
		return fmt.Sprintf("node %d first deposit failed: %v", id, err)
	}
	w.expectCheatsDS++
	err = w.bank.Deposit(acct, tok)
	return fmt.Sprintf("node %d replayed a serial, rejected=%v", id, err != nil)
}
