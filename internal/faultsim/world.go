package faultsim

import (
	"fmt"
	"sort"
	"time"

	"p2panon/internal/churn"
	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/probe"
	"p2panon/internal/quality"
	"p2panon/internal/sim"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// Harness metric names. Every counter with an event-log twin is checked
// against the log by the reconciliation invariant; sends, offline drops
// and stale replies have no per-event record (they would flood the log)
// and are reported in Result only.
const (
	metricSends     = "faultsim_sends_total"
	metricDrops     = "faultsim_offline_drops_total"
	metricStale     = "faultsim_stale_total"
	metricLaunches  = "faultsim_launches_total"
	metricHops      = "faultsim_hops_total"
	metricNacks     = "faultsim_nacks_total"
	metricTimeouts  = "faultsim_timeouts_total"
	metricReforms   = "faultsim_reformations_total"
	metricDelivered = "faultsim_delivered_total"
	metricFailed    = "faultsim_failed_total"
	metricFaults    = "faultsim_faults_injected_total"
)

// wkind is a protocol message kind inside the world.
type wkind uint8

const (
	wFwd wkind = iota
	wConfirm
	wNack
)

func (k wkind) String() string {
	switch k {
	case wFwd:
		return "forward"
	case wConfirm:
		return "confirm"
	default:
		return "nack"
	}
}

// wmsg is one in-flight protocol message. For forward messages `path` is
// the accumulated forwarder path (appended on handling, always copied so
// duplicated messages cannot alias); for reverse messages `hop` is the
// index in path of the node the message is addressed to.
type wmsg struct {
	kind                 wkind
	batch, conn, attempt int
	from, to             overlay.NodeID
	initiator, responder overlay.NodeID
	remaining            int
	path                 []overlay.NodeID
	hop                  int
	reason               string
	// Trace context, carried exactly like the netwire frame extension:
	// the batch trace id and the span of the last causal step.
	trace, span telemetry.SpanID
}

// connState tracks the single in-flight connection (connections within a
// batch run sequentially, as the live runtime's Connect loop does).
type connState struct {
	batch, conn int
	attempt     int
	resolved    bool
	backoff     float64
	reforms     int
	// launchSpan is this attempt's launch; prevSpan the last causal step
	// (the batch root before any launch, then launch, nack or timeout) the
	// next reform/fail span parents on.
	launchSpan, prevSpan telemetry.SpanID
}

// deliveredConn records one confirmed delivery for the path-contiguity
// invariant.
type deliveredConn struct {
	path    []overlay.NodeID
	attempt int
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
	delivered            map[int]deliveredConn
	payouts              []payment.Payout
	refund               payment.Amount
	settleErr            error
	settled              bool
	expectRejected       int
	trace, root          telemetry.SpanID
}

// faultSlot is a message fault awaiting its matching send.
type faultSlot struct {
	Fault
	used bool
}

// world is the deterministic protocol world: overlay, churn, probing,
// routing, forwarding, escrow settlement — all scheduled on one sim.Engine
// so that a (plan, seed) pair replays byte-identically.
type world struct {
	plan   Plan
	eng    *sim.Engine
	net    *overlay.Network
	drv    *churn.Driver
	probes *probe.Set
	bank   *payment.Bank
	reg    *telemetry.Registry
	spans  *telemetry.SpanRecorder

	// The event log: at most plan.TraceCap entries, the overflow counted.
	events        []Event
	eventsDropped uint64

	rng       *dist.Source // world randomness (endpoints, churn, probes)
	routerRNG *dist.Source // router randomness, split per batch

	cSends, cDrops, cStale                        *telemetry.Counter
	cLaunches, cHops, cNacks, cTimeouts, cReforms *telemetry.Counter
	cDelivered, cFailed, cFaults                  *telemetry.Counter

	accounts     map[overlay.NodeID]struct{}
	openingTotal payment.Amount

	msgSeq         map[[2]int]int // per-(batch,conn) send counter
	msgFaults      []*faultSlot
	probeLies      map[overlay.NodeID]bool
	expectCheatsDS int

	batches      []*batchRecord
	cur          *connState
	curRec       *batchRecord
	settleQ      *payment.SettleQueue
	finished     bool
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
		settleQ:   payment.NewSettleQueue(p.SettleQueue),
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

	w.cSends = reg.Counter(metricSends, nil)
	w.cDrops = reg.Counter(metricDrops, nil)
	w.cStale = reg.Counter(metricStale, nil)
	w.cLaunches = reg.Counter(metricLaunches, nil)
	w.cHops = reg.Counter(metricHops, nil)
	w.cNacks = reg.Counter(metricNacks, nil)
	w.cTimeouts = reg.Counter(metricTimeouts, nil)
	w.cReforms = reg.Counter(metricReforms, nil)
	w.cDelivered = reg.Counter(metricDelivered, nil)
	w.cFailed = reg.Counter(metricFailed, nil)
	w.cFaults = reg.Counter(metricFaults, nil)
	return w, nil
}

// vtime maps virtual seconds onto a fixed epoch so trace timestamps are
// seed-determined, never wall-clock.
func (w *world) vtime() time.Time {
	return time.Unix(0, 0).UTC().Add(time.Duration(float64(w.eng.Now()) * float64(time.Second)))
}

// trace stamps ev with the virtual clock and appends it to the event log.
func (w *world) trace(ev Event) {
	if len(w.events) >= w.plan.TraceCap {
		w.eventsDropped++
		return
	}
	ev.Time = w.vtime()
	w.events = append(w.events, ev)
}

// emit records an initiator-side span of the in-flight attempt.
func (w *world) emit(kind telemetry.SpanKind, parent telemetry.SpanID) telemetry.SpanID {
	cur, rec := w.cur, w.curRec
	return w.spans.Emit(telemetry.Span{
		Trace: rec.trace, Parent: parent, Kind: kind,
		Batch: cur.batch, Conn: cur.conn, Attempt: cur.attempt, Node: int(rec.initiator),
	})
}

// traceFault records the application of a scheduled fault. Counter and
// event move together so reconciliation can compare them.
func (w *world) traceFault(f Fault, detail string) {
	w.cFaults.Inc()
	w.trace(Event{
		Kind: KindFault, Batch: f.Batch, Conn: f.Conn, Node: f.Node,
		Detail: fmt.Sprintf("%s: %s", f.Kind, detail),
	})
}

// setup wires the world together and schedules everything up to the first
// batch. Initial joins happen synchronously (the churn driver seeds the
// population at t=0), so accounts exist before any traffic.
func (w *world) setup() {
	w.bank.Instrument(w.reg)
	w.net.Instrument(w.reg)
	w.settleQ.Instrument(w.reg)
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
			w.markLive(id)
		case overlay.Offline, overlay.Departed:
			w.markDead(id)
		}
	})

	cfg := churn.DefaultConfig()
	cfg.N = w.plan.Nodes
	cfg.MaliciousFraction = w.plan.MaliciousFraction
	cfg.Static = !w.plan.Churn
	w.drv = churn.NewDriver(cfg, w.net, w.rng.Split())
	w.drv.Start(w.eng)
	w.probes.Attach(w.eng)

	for i := range w.plan.Faults {
		f := w.plan.Faults[i]
		switch f.Kind {
		case FaultCrash, FaultRestart, FaultDoubleDeposit, FaultProbeLie:
			w.eng.AfterFunc(sim.Time(f.At), func(*sim.Engine) { w.applyNodeFault(f) })
		case FaultDrop, FaultDelay, FaultDuplicate, FaultReorder:
			w.msgFaults = append(w.msgFaults, &faultSlot{Fault: f})
		}
	}

	// Two probing periods of warm-up give availability estimates something
	// to say before the first utility-routed batch.
	w.eng.AfterFunc(sim.Time(2*w.plan.ProbePeriod+1), func(*sim.Engine) { w.startBatch(1) })
}

func (w *world) markDead(id overlay.NodeID) {
	if w.curRec == nil || w.curRec.router == nil {
		return
	}
	if ca, ok := w.curRec.router.(transport.ChurnAware); ok {
		ca.MarkDead(id)
	}
}

func (w *world) markLive(id overlay.NodeID) {
	if w.curRec == nil || w.curRec.router == nil {
		return
	}
	if ca, ok := w.curRec.router.(transport.ChurnAware); ok {
		ca.MarkLive(id)
	}
}

// availMap aggregates probe-observed session times into availability
// shares. It deliberately avoids Estimator.Availability/Snapshot (their
// sums iterate Go maps, whose order is randomized) and instead walks the
// sorted online set so the result is identical on every run.
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

func (w *world) buildRouter(topo transport.Topology, avail map[overlay.NodeID]float64) transport.Router {
	c := core.Contract{Pf: float64(w.plan.Pf), Pr: float64(w.plan.Pr)}
	switch w.plan.Router {
	case "random":
		return transport.NewRandomRouter(topo, w.routerRNG.Split())
	case "utility2":
		return transport.NewUtilityIIRouter(topo, quality.DefaultWeights(), c, avail)
	default:
		return transport.NewUtilityRouter(topo, quality.DefaultWeights(), c, avail)
	}
}

func (w *world) routerFor(batch int) transport.Router {
	if batch >= 1 && batch <= len(w.batches) {
		return w.batches[batch-1].router
	}
	return nil
}

// startBatch opens escrow, snapshots the topology, builds the router and
// launches the batch's first connection.
func (w *world) startBatch(b int) {
	rec := &batchRecord{
		batch:     b,
		receipts:  make(map[overlay.NodeID][]payment.Receipt),
		delivered: make(map[int]deliveredConn),
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
	rec.router = w.buildRouter(topo, w.availMap())

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
		w.finished = true
		w.eng.Stop()
		return
	}
	w.eng.AfterFunc(sim.Time(w.plan.ProbePeriod/2), func(*sim.Engine) { w.startBatch(b + 1) })
}

func (w *world) launchConn(c int) {
	rec := w.curRec
	w.cur = &connState{batch: rec.batch, conn: c, attempt: 1, backoff: w.plan.BackoffBase, prevSpan: rec.root}
	w.cLaunches.Inc()
	w.trace(Event{
		Kind: KindLaunch, Batch: rec.batch, Conn: c, Node: int(rec.initiator),
		Detail: fmt.Sprintf("responder %d budget %d", rec.responder, w.plan.Budget),
	})
	w.startAttempt()
}

// startAttempt arms the attempt deadline and injects the first forward
// message at the initiator.
func (w *world) startAttempt() {
	cur, rec := w.cur, w.curRec
	if !w.net.Online(rec.initiator) {
		w.failConn("offline", "initiator offline")
		return
	}
	attempt := cur.attempt
	launch := w.emit(telemetry.SpanLaunch, rec.root)
	cur.launchSpan, cur.prevSpan = launch, launch
	w.eng.AfterFunc(sim.Time(w.plan.AttemptTimeout), func(*sim.Engine) {
		if w.cur != cur || cur.attempt != attempt || cur.resolved {
			return
		}
		cur.resolved = true
		w.cTimeouts.Inc()
		w.trace(Event{
			Kind: KindTimeout, Batch: cur.batch, Conn: cur.conn, Node: int(rec.initiator),
			Detail: fmt.Sprintf("attempt %d", attempt),
		})
		cur.prevSpan = w.emit(telemetry.SpanTimeout, launch)
		w.retryOrFail("timeout", "attempt deadline")
	})
	w.send(wmsg{
		kind: wFwd, batch: cur.batch, conn: cur.conn, attempt: attempt,
		from: overlay.None, to: rec.initiator,
		initiator: rec.initiator, responder: rec.responder,
		remaining: w.plan.Budget,
		trace:     rec.trace, span: launch,
	})
}

// send pushes a message onto the wire, applying at most one matching
// message fault.
func (w *world) send(m wmsg) {
	w.cSends.Inc()
	key := [2]int{m.batch, m.conn}
	w.msgSeq[key]++
	seq := w.msgSeq[key]
	lat := sim.Time(w.plan.Latency)
	for _, fs := range w.msgFaults {
		if fs.used || fs.Batch != m.batch || fs.Conn != m.conn || fs.Msg != seq {
			continue
		}
		fs.used = true
		w.traceFault(fs.Fault, fmt.Sprintf("msg %d (%s %d->%d)", seq, m.kind, m.from, m.to))
		switch fs.Kind {
		case FaultDrop:
			return
		case FaultDelay, FaultReorder:
			w.eng.AfterFunc(lat+sim.Time(fs.Delay), func(*sim.Engine) { w.deliver(m) })
			return
		case FaultDuplicate:
			w.eng.AfterFunc(lat, func(*sim.Engine) { w.deliver(m) })
			w.eng.AfterFunc(lat+sim.Time(fs.Delay), func(*sim.Engine) { w.deliver(m) })
			return
		}
	}
	w.eng.AfterFunc(lat, func(*sim.Engine) { w.deliver(m) })
}

// deliver hands a message to its target, or handles the target being
// offline: forwards NACK back from the last live hop, reverse messages
// route around the corpse (or die at a dead initiator, where the attempt
// timeout cleans up).
func (w *world) deliver(m wmsg) {
	if !w.net.Online(m.to) {
		w.cDrops.Inc()
		w.markDead(m.to)
		switch m.kind {
		case wFwd:
			w.nackBack(m, len(m.path)-1, fmt.Sprintf("next hop %d offline", m.to))
		default:
			if m.hop > 0 {
				m.hop--
				m.to = m.path[m.hop]
				w.send(m)
			}
		}
		return
	}
	if m.kind == wFwd {
		w.handleForward(m)
		return
	}
	w.handleReverse(m)
}

// handleForward appends the receiving node to the path and either confirms
// (responder reached) or routes onward; an exhausted hop budget forwards
// straight to the responder, exactly like the live runtime.
func (w *world) handleForward(m wmsg) {
	self := m.to
	path := append(append([]overlay.NodeID(nil), m.path...), self)
	m.path = path
	if self == m.responder {
		hop := len(path) - 2
		if hop < 0 {
			hop = 0
		}
		respondSpan := m.span
		if id := w.spans.Emit(telemetry.Span{
			Trace: m.trace, Parent: m.span, Kind: telemetry.SpanRespond,
			Batch: m.batch, Conn: m.conn, Hop: len(path) - 1, Node: int(self),
		}); id != 0 {
			respondSpan = id
		}
		w.send(wmsg{
			kind: wConfirm, batch: m.batch, conn: m.conn, attempt: m.attempt,
			initiator: m.initiator, responder: m.responder,
			path: path, hop: hop, to: path[hop],
			trace: m.trace, span: respondSpan,
		})
		return
	}
	w.cHops.Inc()
	w.trace(Event{
		Kind: KindHopForward, Batch: m.batch, Conn: m.conn, Node: int(self),
		Hop: len(path) - 1, Detail: fmt.Sprintf("attempt %d", m.attempt),
	})
	if id := w.spans.Emit(telemetry.Span{
		Trace: m.trace, Parent: m.span, Kind: telemetry.SpanHop,
		Batch: m.batch, Conn: m.conn, Hop: len(path) - 1, Node: int(self),
	}); id != 0 {
		m.span = id
	}
	next := m.responder
	if m.remaining > 0 {
		if router := w.routerFor(m.batch); router != nil {
			pred := overlay.None
			if len(path) >= 2 {
				pred = path[len(path)-2]
			}
			nh, deliverNow := router.NextHop(self, pred, m.initiator, m.responder, m.batch, m.conn, m.remaining)
			if !deliverNow && nh != overlay.None {
				next = nh
			}
		}
	}
	out := m
	out.from = self
	out.to = next
	out.remaining = m.remaining - 1
	w.send(out)
}

// handleReverse relays a confirm/nack one hop toward the initiator, or
// accepts it on arrival at path[0].
func (w *world) handleReverse(m wmsg) {
	if m.hop <= 0 {
		if m.kind == wConfirm {
			w.acceptConfirm(m)
		} else {
			w.acceptNack(m)
		}
		return
	}
	m.hop--
	m.to = m.path[m.hop]
	w.send(m)
}

// nackBack originates a NACK at path[fromIdx] (or directly at the
// initiator when the path is empty).
func (w *world) nackBack(m wmsg, fromIdx int, reason string) {
	nackSpan := w.spans.Emit(telemetry.Span{
		Trace: m.trace, Parent: m.span, Kind: telemetry.SpanNack,
		Batch: m.batch, Conn: m.conn, Hop: len(m.path), Node: int(m.initiator), Detail: reason,
	})
	n := wmsg{
		kind: wNack, batch: m.batch, conn: m.conn, attempt: m.attempt,
		initiator: m.initiator, responder: m.responder,
		path: m.path, reason: reason,
		trace: m.trace, span: nackSpan,
	}
	if fromIdx < 0 || len(m.path) == 0 {
		w.acceptNack(n)
		return
	}
	n.hop = fromIdx
	n.to = m.path[fromIdx]
	w.send(n)
}

// current reports whether m addresses the in-flight attempt; anything else
// is stale (late duplicate, superseded attempt, settled batch).
func (w *world) current(m wmsg) bool {
	cur := w.cur
	return cur != nil && cur.batch == m.batch && cur.conn == m.conn &&
		cur.attempt == m.attempt && !cur.resolved
}

func (w *world) acceptConfirm(m wmsg) {
	if !w.current(m) {
		w.cStale.Inc()
		return
	}
	cur, rec := w.cur, w.curRec
	cur.resolved = true
	w.cDelivered.Inc()
	w.trace(Event{
		Kind: KindDelivered, Batch: m.batch, Conn: m.conn, Node: int(m.initiator),
		Hop:    len(m.path),
		Detail: fmt.Sprintf("attempt %d path %d after %d reformations", m.attempt, len(m.path), cur.reforms),
	})
	parent := m.span
	if parent == 0 {
		parent = cur.launchSpan
	}
	w.emit(telemetry.SpanDeliver, parent)
	rec.delivered[m.conn] = deliveredConn{path: append([]overlay.NodeID(nil), m.path...), attempt: m.attempt}
	for i := 1; i <= len(m.path)-2; i++ {
		f := m.path[i]
		rec.receipts[f] = append(rec.receipts[f], rec.minter.Mint(m.conn, i, payment.AccountID(f)))
	}
	w.finishConn()
}

func (w *world) acceptNack(m wmsg) {
	if !w.current(m) {
		w.cStale.Inc()
		return
	}
	w.cur.resolved = true
	w.cNacks.Inc()
	w.trace(Event{
		Kind: KindNack, Batch: m.batch, Conn: m.conn, Node: int(m.initiator),
		Hop: len(m.path), Detail: m.reason,
	})
	if m.span != 0 {
		w.cur.prevSpan = m.span
	}
	w.retryOrFail("nack", m.reason)
}

// retryOrFail either schedules a path reformation after backoff or fails
// the connection for good. Every traced NACK/timeout flows through here,
// which is what makes the reformation-accounting invariant exact.
func (w *world) retryOrFail(cause, reason string) {
	cur := w.cur
	if cur.attempt >= w.plan.MaxAttempts {
		w.failConn(cause, reason)
		return
	}
	pause := cur.backoff
	cur.backoff *= 2
	if cur.backoff > w.plan.BackoffMax {
		cur.backoff = w.plan.BackoffMax
	}
	w.eng.AfterFunc(sim.Time(pause), func(*sim.Engine) {
		if w.cur != cur {
			return
		}
		cur.reforms++
		cur.attempt++
		cur.resolved = false
		w.cReforms.Inc()
		w.trace(Event{
			Kind: KindReformation, Batch: cur.batch, Conn: cur.conn, Node: int(w.curRec.initiator),
			Detail: fmt.Sprintf("attempt %d", cur.attempt),
		})
		w.emit(telemetry.SpanReform, cur.prevSpan)
		w.startAttempt()
	})
}

func (w *world) failConn(cause, reason string) {
	cur, rec := w.cur, w.curRec
	cur.resolved = true
	w.cFailed.Inc()
	w.trace(Event{
		Kind: KindFailed, Batch: cur.batch, Conn: cur.conn, Node: int(rec.initiator),
		Detail: fmt.Sprintf("cause=%s: %s", cause, reason),
	})
	w.emit(telemetry.SpanFail, cur.prevSpan)
	w.finishConn()
}

func (w *world) finishConn() {
	c := w.cur.conn
	w.cur = nil
	if c < w.plan.Conns {
		w.eng.AfterFunc(0, func(*sim.Engine) { w.launchConn(c + 1) })
		return
	}
	w.eng.AfterFunc(0, func(*sim.Engine) { w.settleBatch() })
}

// settleBatch assembles claims from the minted receipts (sorted by
// forwarder for determinism), applies any settlement faults, mirrors the
// bank's rejection rule into expectRejected, and hands the job to the
// bounded settlement queue. The queue is drained SettleDelay virtual
// seconds later — the deterministic drain point of the async pipeline.
// The funds sit in escrow for that whole window, so a crash between
// enqueue and drain loses nothing: settlement runs against the escrow
// account, not the (possibly dead) initiator.
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
	for i := range w.plan.Faults {
		f := w.plan.Faults[i]
		if f.Batch != rec.batch {
			continue
		}
		switch f.Kind {
		case FaultInflate:
			claims = w.applyInflate(rec, claims, f)
		case FaultDoubleSpend:
			claims = w.applyDoubleSpend(claims, f)
		}
	}
	rec.expectRejected = expectRejected(rec.minter, claims)

	job := payment.SettleJob{
		Batch: rec.batch, Escrow: rec.escrow, Minter: rec.minter,
		Pf: payment.Amount(w.plan.Pf), Pr: payment.Amount(w.plan.Pr),
		Claims: claims,
	}
	if err := w.settleQ.Enqueue(job); err != nil {
		// Backpressure: drain on the spot to free a slot, then retry. The
		// world runs one batch at a time, so this only trips when a plan
		// sets settle_queue below the number of undrained batches.
		for _, res := range w.settleQ.Drain() {
			w.applySettleResult(res)
		}
		if err := w.settleQ.Enqueue(job); err != nil {
			w.applySettleResult(settleNow(job))
			w.nextBatch()
			return
		}
	}
	w.eng.AfterFunc(sim.Time(w.plan.SettleDelay), func(*sim.Engine) { w.drainSettlements() })
}

// settleNow executes a job synchronously — the fallback when the queue
// refuses it even after a drain (it was closed).
func settleNow(j payment.SettleJob) payment.SettleResult {
	res := payment.SettleResult{Batch: j.Batch}
	res.Payouts, res.Refund, res.Err = j.Escrow.SettleFromEscrow(j.Minter, j.Pf, j.Pr, j.Claims)
	return res
}

// drainSettlements is the virtual-clock drain point: settle every queued
// job, fold the outcomes back into their batch records, then advance to
// the next batch.
func (w *world) drainSettlements() {
	for _, res := range w.settleQ.Drain() {
		w.applySettleResult(res)
	}
	w.nextBatch()
}

// applySettleResult folds one settlement outcome into its batch record,
// emitting the same trace event and payout spans the inline settlement
// used to.
func (w *world) applySettleResult(res payment.SettleResult) {
	if res.Batch < 1 || res.Batch > len(w.batches) {
		return
	}
	rec := w.batches[res.Batch-1]
	rec.payouts, rec.refund = res.Payouts, res.Refund
	if res.Err != nil {
		rec.settleErr = res.Err
		w.anySettleErr = true
		rec.escrow.Close() // best effort: return whatever is still locked
	} else {
		rec.settled = true
		w.trace(Event{
			Kind: KindSettled, Batch: rec.batch, Node: int(rec.initiator),
			Detail: fmt.Sprintf("%d payouts, refund %d", len(res.Payouts), res.Refund),
		})
		for _, po := range res.Payouts {
			w.spans.Emit(telemetry.Span{
				Trace: rec.trace, Parent: rec.root, Kind: telemetry.SpanSettle,
				Batch: rec.batch, Node: int(po.Forwarder),
				Detail: fmt.Sprintf("payoff=%d forwards=%d", po.Amount, po.Forwards),
			})
		}
	}
}

// applyInflate pads the target's claim with forged receipts plus one
// duplicate of a real receipt when it has any — the §5 inflated forwarding
// count. A correct settlement rejects every one of them.
func (w *world) applyInflate(rec *batchRecord, claims []payment.Claim, f Fault) []payment.Claim {
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
	for i := 0; i < f.Count; i++ {
		claims[idx].Receipts = append(claims[idx].Receipts,
			payment.Receipt{Conn: 100000 + i, Hop: i, Forwarder: target})
	}
	if rs := rec.receipts[overlay.NodeID(f.Node)]; len(rs) > 0 {
		claims[idx].Receipts = append(claims[idx].Receipts, rs[0])
	}
	w.traceFault(f, fmt.Sprintf("claim of node %d padded with %d forged receipts", f.Node, f.Count))
	return claims
}

// applyDoubleSpend submits a claim twice. SettleFromEscrow has no
// cross-claim dedup, so the duplicate is paid again and inflates ‖π‖ —
// the planted defect the payment-conservation invariant must catch.
func (w *world) applyDoubleSpend(claims []payment.Claim, f Fault) []payment.Claim {
	if len(claims) == 0 {
		w.traceFault(f, "no claims to duplicate (noop)")
		return claims
	}
	idx := 0
	for i := range claims {
		if claims[i].Forwarder == payment.AccountID(f.Node) {
			idx = i
			break
		}
	}
	dup := payment.Claim{
		Forwarder: claims[idx].Forwarder,
		Receipts:  append([]payment.Receipt(nil), claims[idx].Receipts...),
	}
	claims = append(claims, dup)
	w.traceFault(f, fmt.Sprintf("claim of forwarder %d submitted twice", dup.Forwarder))
	return claims
}

// expectRejected mirrors the settlement's own CountValid/countRejected
// arithmetic so the invariant layer can predict the bank's
// rejected-receipt cheat counter exactly.
func expectRejected(minter *payment.ReceiptMinter, claims []payment.Claim) int {
	acceptedBy := make(map[payment.AccountID]int, len(claims))
	for _, c := range claims {
		if m := minter.CountValid(c.Forwarder, c.Receipts); m > 0 {
			acceptedBy[c.Forwarder] = m
		}
	}
	rejected := 0
	for _, c := range claims {
		if d := len(c.Receipts) - acceptedBy[c.Forwarder]; d > 0 {
			rejected += d
		}
	}
	return rejected
}

// applyNodeFault fires a time-scheduled fault. Faults whose precondition
// no longer holds (crashing an offline node, restarting an online one)
// degrade to traced no-ops so shrunk plans stay replayable.
func (w *world) applyNodeFault(f Fault) {
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
	w.traceFault(f, detail)
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
