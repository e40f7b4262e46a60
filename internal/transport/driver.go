package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/vclock"
)

// RetryPolicy bounds a connection's reformation behaviour: up to MaxAttempts
// path formations per connection, separated by exponential backoff
// starting at BaseBackoff and capped at MaxBackoff. Each attempt gets an
// even share of the connection's total timeout as its deadline.
type RetryPolicy struct {
	MaxAttempts int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy allows two reformations per connection with a short
// doubling backoff — enough to route around a mid-path departure without
// masking a partitioned network.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond}
}

// Driver is the one implementation of the §2.2 forwarding protocol and
// its bounded-retry reformation: the initiator side (ConnectDetail and
// the batch runners built on it) and, in protocol.go, the forwarder side.
// Everything a backend contributes is behind Link, so a backend embeds a
// Driver and is otherwise only links.
type Driver struct {
	link  Link
	retry RetryPolicy
	clock vclock.Clock

	metricPrefix string
	inst         *protocolMetrics
	spans        *telemetry.SpanRecorder

	markMu    sync.RWMutex
	markers   []ChurnAware
	markerSet map[ChurnAware]struct{}

	// pending maps a launched attempt's id to its connection's record. An
	// entry lives from launch until the first of the attempt's terminal
	// CONFIRM/NACK and its window timer claims it (DESIGN.md §3t); a reply
	// claims it only at the attempt's own initiator (resolve).
	pendMu     sync.Mutex
	pending    map[int]*connRec
	attemptSeq int
}

// NewDriver returns a driver over link with the default retry policy, the
// real clock and a private registry; metricPrefix ("transport",
// "netwire") names the backend's protocol instrument families.
func NewDriver(link Link, metricPrefix string) *Driver {
	return &Driver{
		link:         link,
		retry:        DefaultRetryPolicy(),
		clock:        vclock.Real(),
		metricPrefix: metricPrefix,
		inst:         newProtocolMetrics(telemetry.NewRegistry(), metricPrefix),
		markerSet:    make(map[ChurnAware]struct{}),
		pending:      make(map[int]*connRec),
	}
}

// Instrument rebinds the protocol instruments into reg, so they appear on
// a shared exposition endpoint next to other layers' instruments; a nil
// reg keeps the current registry. Call before traffic starts — it is not
// safe to race with in-flight connections.
func (d *Driver) Instrument(reg *telemetry.Registry) {
	if reg != nil {
		d.inst = newProtocolMetrics(reg, d.metricPrefix)
	}
}

// Telemetry returns the registry backing the runtime's metrics (a private
// one unless Instrument rebound it).
func (d *Driver) Telemetry() *telemetry.Registry { return d.inst.reg }

// SetSpans attaches the causal span recorder, the one record of a
// connection's lifecycle: every connection then emits a deterministic
// span tree — batch root, per-attempt launches, hops, the responder's
// accept, nacks, timeouts, reformations and the terminal outcome — whose
// ids are chain hashes of causal coordinates carried in the messages'
// trace context, never of arrival order, so the same seeded workload
// yields the same log on every backend. A nil recorder disables span
// emission. Call before traffic starts; not safe to race with in-flight
// connections.
func (d *Driver) SetSpans(r *telemetry.SpanRecorder) { d.spans = r }

// SetClock replaces the protocol clock — attempt windows and retry
// backoff are its AfterFunc callbacks, and the link's latency model reads
// it too. Pass a vclock.Engine clock to run the protocol inside a
// single-threaded discrete-event world, deterministic and wall-clock
// free, as faultsim and the timing tests do: ConnectDetail, RunBatch and
// RunSecureBatch then wait for a connection by running the engine on the
// caller's goroutine. Call before traffic starts; not safe to race with
// in-flight connections.
func (d *Driver) SetClock(c vclock.Clock) {
	if c == nil {
		c = vclock.Real()
	}
	d.clock = c
}

// Clock returns the clock the runtime schedules against.
func (d *Driver) Clock() vclock.Clock { return d.clock }

// SetRetry replaces the retry policy. Not safe to call concurrently with
// a connection.
func (d *Driver) SetRetry(p RetryPolicy) {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	d.retry = p
}

// Joined tells the driver that node id came up routing with r. A
// ChurnAware router is registered for liveness notifications (once) and
// told the id is live, so a re-joining node becomes routable again.
func (d *Driver) Joined(id overlay.NodeID, r Router) {
	ca, aware := r.(ChurnAware)
	if !aware {
		return
	}
	d.markMu.Lock()
	if _, seen := d.markerSet[ca]; !seen {
		d.markerSet[ca] = struct{}{}
		d.markers = append(d.markers, ca)
	}
	d.markMu.Unlock()
	ca.MarkLive(id)
}

// MarkDead tells every registered ChurnAware router that id was found
// dead, so subsequent routing avoids it.
func (d *Driver) MarkDead(id overlay.NodeID) {
	for _, m := range d.churnAware() {
		m.MarkDead(id)
	}
}

// MarkLive is MarkDead's inverse: id is routable again.
func (d *Driver) MarkLive(id overlay.NodeID) {
	for _, m := range d.churnAware() {
		m.MarkLive(id)
	}
}

func (d *Driver) churnAware() []ChurnAware {
	d.markMu.RLock()
	defer d.markMu.RUnlock()
	return append([]ChurnAware(nil), d.markers...)
}

// Outcome is one connection's terminal result: the realised path (I … R)
// with the sealed records the secure protocol collected, or the error
// that ended it.
type Outcome struct {
	Path         []overlay.NodeID
	Records      []onion.PathRecord
	Reformations int
	Err          error
}

// connRec is one connection's initiator-side state machine. Nothing
// blocks in it: each attempt's window and each backoff pause is a clock
// AfterFunc callback, and the pending table hands each attempt to exactly
// one of its resolving CONFIRM/NACK and its window timer. Whichever
// goroutine holds the record moves it on — the launching caller, the one
// that claimed an attempt, or a pause callback — and none touches it after
// handing it to the next, or after finish.
type connRec struct {
	d                    *Driver
	retry                RetryPolicy
	initiator, responder overlay.NodeID
	batch, conn, budget  int
	contract             *onion.SignedContract

	start, deadline      time.Time
	per, window, backoff time.Duration
	// attempt is the per-connection ordinal of initiator-side spans, not
	// Message.Attempt — that one is a driver-wide id.
	attempt, reforms int
	lastErr          error
	timer            vclock.Timer // the live attempt's window: set under pendMu, stopped by the reply that claims it
	// Span context: the batch trace, its root, the live attempt's launch
	// and the last causal step the next reform or fail span parents on.
	trace, root, launch, prev telemetry.SpanID

	// first is the first attempt's FORWARD. Links borrow messages by
	// pointer, so a launch cannot live on its launcher's stack; the record
	// is allocated anyway.
	first Message
	// path is the live attempt's launch buffer, the Path its FORWARD
	// started with; the CONFIRM that resolves the attempt leaves its path
	// there (resolve).
	path []overlay.NodeID

	// out is the outcome, set once by finish, which also sets finished
	// and releases wg.
	out      Outcome
	finished bool
	wg       sync.WaitGroup
}

// ErrRefused is wrapped by the error of a connection refused up front:
// one the driver never launched, so it made no attempt and no span.
var ErrRefused = errors.New("refused")

// connect runs one connection and waits for its outcome: on the real
// clock until whichever goroutine finishes it releases the record, on a
// vclock.Engine clock by running the engine until the record has
// finished — an error if the engine's queue runs dry first. Mid-path
// departures are retried per the RetryPolicy (path reformation) within
// timeout, each attempt getting an even share of it as its window. A
// connection refused up front (unknown initiator or responder, I == R, a
// budget outside [0, MaxBudget], a negative batch) fails with an error
// that wraps ErrRefused.
func (d *Driver) connect(initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration, contract *onion.SignedContract) Outcome {
	c := &connRec{}
	if err := d.start(c, initiator, responder, batch, conn, budget, timeout, contract); err != nil {
		return Outcome{Err: err}
	}
	if eng, ok := d.clock.(interface{ Step() bool }); ok {
		for !c.finished {
			if !eng.Step() {
				return Outcome{Err: fmt.Errorf("transport: connection %d/%d: the engine ran dry before it finished", batch, conn)}
			}
		}
	}
	c.wg.Wait()
	return c.out
}

// start validates a connection and launches its first attempt into c,
// which holds the outcome once finished is set.
func (d *Driver) start(c *connRec, initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration, contract *onion.SignedContract) error {
	switch {
	case d.link.Local(initiator) == nil:
		return fmt.Errorf("transport: %w: unknown initiator %d", ErrRefused, initiator)
	case !d.link.Addressable(responder):
		return fmt.Errorf("transport: %w: unknown responder %d", ErrRefused, responder)
	case initiator == responder:
		return fmt.Errorf("transport: %w: initiator == responder", ErrRefused)
	case budget < 0 || budget > MaxBudget:
		return fmt.Errorf("transport: %w: hop budget %d outside [0, %d]", ErrRefused, budget, MaxBudget)
	case batch < 0:
		return fmt.Errorf("transport: %w: negative batch %d", ErrRefused, batch)
	}
	c.wg.Add(1)
	c.d, c.retry = d, d.retry
	c.initiator, c.responder = initiator, responder
	c.batch, c.conn, c.budget, c.contract = batch, conn, budget, contract
	// The first attempt reads no clock of its own: it launches at the
	// connection's start, with the whole timeout left.
	c.start = d.clock.Now()
	c.deadline = c.start.Add(timeout)
	if c.per = timeout / time.Duration(c.retry.MaxAttempts); c.per <= 0 {
		c.per = timeout
	}
	c.backoff = c.retry.BaseBackoff
	// One trace per (batch, I, R), its root re-opened by every connection
	// (the recorder deduplicates by id).
	c.trace, c.root = d.spans.Root(batch, int(initiator), int(responder))
	c.prev = c.root
	c.next()
	return nil
}

// next moves on from an attempt that ended without delivering — or, from
// attempt 0, starts the first: the connection fails once the attempt
// budget or the deadline is spent; otherwise the next attempt launches,
// after the backoff pause when one is due.
func (c *connRec) next() {
	if c.attempt == c.retry.MaxAttempts {
		c.fail(nil)
		return
	}
	c.attempt++
	now := c.start
	if c.attempt > 1 {
		now = c.d.clock.Now()
	}
	remaining := c.deadline.Sub(now)
	switch {
	case remaining <= 0:
		c.fail(nil)
	case c.attempt == 1:
		c.launchAttempt(now, remaining)
	case c.backoff <= 0:
		c.reform(now, remaining)
	default:
		pause := min(c.backoff, remaining)
		if c.backoff *= 2; c.retry.MaxBackoff > 0 && c.backoff > c.retry.MaxBackoff {
			c.backoff = c.retry.MaxBackoff
		}
		c.d.clock.AfterFunc(pause, c.resume)
	}
}

// resume ends a backoff pause.
func (c *connRec) resume() {
	now := c.d.clock.Now()
	if remaining := c.deadline.Sub(now); remaining > 0 {
		c.reform(now, remaining)
	} else {
		c.fail(nil)
	}
}

// reform counts a path reformation and relaunches.
func (c *connRec) reform(now time.Time, remaining time.Duration) {
	c.reforms++
	c.d.inst.reformations.Inc()
	c.emit(telemetry.SpanReform, c.prev)
	c.launchAttempt(now, remaining)
}

// launchAttempt opens an attempt at instant now: it registers the
// attempt, arms its window timer and hands the first FORWARD to the
// initiator's own handler — a node does not message itself, so the
// launch crosses no link. The message is built first: once the timer is
// armed, the record may belong to whichever goroutine claims the attempt.
// Its Path, the launch buffer, is allocated once, for the longest walk
// the budget allows (I, budget forwarders, R), and every hop appends in
// place: the attempt's one FORWARD owns it, and a link that delivers
// copies gives each its own. The first attempt's message is the record's
// own; a reformation's is allocated, since the first may still be in its
// launcher's hands — a window can expire, on another goroutine, while the
// launch routes.
func (c *connRec) launchAttempt(now time.Time, remaining time.Duration) {
	d := c.d
	c.window = min(c.per, remaining)
	c.launch = c.emit(telemetry.SpanLaunch, c.root)
	c.prev = c.launch
	st := d.link.Local(c.initiator)
	if st == nil {
		c.fail(fmt.Errorf("transport: initiator %d departed", c.initiator))
		return
	}
	m := &c.first
	if c.attempt > 1 {
		m = new(Message)
	}
	c.path = make([]overlay.NodeID, 0, c.budget+2)
	*m = Message{
		Kind:      MsgForward,
		Batch:     c.batch,
		Conn:      c.conn,
		From:      overlay.None,
		Initiator: c.initiator,
		Responder: c.responder,
		Remaining: c.budget,
		Path:      c.path,
		Deadline:  now.Add(c.window).UnixNano(),
		Trace:     c.trace,
		Span:      c.launch,
	}
	if c.contract != nil {
		m.Secure = &SecureLoad{Contract: c.contract}
	}
	d.pendMu.Lock()
	d.attemptSeq++
	aid := d.attemptSeq
	d.pending[aid] = c
	d.pendMu.Unlock()
	m.Attempt = aid
	timer := d.clock.AfterFunc(c.window, func() { d.expire(aid) })
	// Only a reply resolving the attempt stops the timer, and no reply
	// exists before handleForward; a window that already expired has
	// claimed the attempt, and the record with it.
	d.pendMu.Lock()
	if d.pending[aid] == c {
		c.timer = timer
	}
	d.pendMu.Unlock()
	d.handleForward(st, m)
}

// claim takes attempt aid out of the pending table, returning its record,
// or nil when the attempt was already resolved or abandoned.
func (d *Driver) claim(aid int) *connRec {
	d.pendMu.Lock()
	defer d.pendMu.Unlock()
	c := d.pending[aid]
	delete(d.pending, aid)
	return c
}

// expire is an attempt window's timer: unless a reply claimed the attempt
// first, it is abandoned and the connection moves on.
func (d *Driver) expire(aid int) {
	c := d.claim(aid)
	if c == nil {
		return
	}
	d.inst.timeouts.Inc()
	c.lastErr = fmt.Errorf("transport: attempt %d of connection %d/%d timed out after %v", c.attempt, c.batch, c.conn, c.window)
	c.prev = c.emit(telemetry.SpanTimeout, c.launch)
	c.next()
}

// resolve is the reverse walk's last step: reply m, whose path ends at
// last, reached index 0 of its path at node self. It claims the pending
// attempt it names only if that attempt is self's own and, for a CONFIRM,
// the path runs from self to the attempt's responder over at least two
// nodes; any other reply leaves the attempt pending and counts as
// malformed. A reply whose attempt was already resolved or abandoned is
// stale: counted, and otherwise dropped. The claiming CONFIRM's path is
// the one path that outlives Handle, so it is copied into the attempt's
// launch buffer; in-process it already is that buffer, and the copy is
// onto itself.
func (d *Driver) resolve(self, last overlay.NodeID, m *Message) {
	d.pendMu.Lock()
	c := d.pending[m.Attempt]
	owner := c != nil && self == c.initiator &&
		(m.Kind == MsgNack || len(m.Path) >= 2 && last == c.responder)
	if owner {
		delete(d.pending, m.Attempt)
	}
	d.pendMu.Unlock()
	switch {
	case c == nil:
		d.inst.staleReplies.Inc()
		return
	case !owner:
		d.inst.malformed.Inc()
		return
	}
	c.timer.Stop()
	if m.Kind == MsgConfirm {
		d.inst.connects.Inc()
		d.inst.connectLatency.Observe(d.clock.Since(c.start).Seconds())
		d.inst.pathLen.Observe(float64(len(m.Path)))
		// The responder's respond span closes the forward chain; the
		// deliver span parents on it.
		parent := m.Span
		if parent == 0 {
			parent = c.launch
		}
		c.emit(telemetry.SpanDeliver, parent)
		out := Outcome{Path: append(c.path[:0], m.Path...), Reformations: c.reforms}
		if m.Secure != nil {
			out.Records = m.Secure.Records
		}
		c.finish(out)
		return
	}
	c.lastErr = fmt.Errorf("transport: %s", m.Reason.Text(m.From))
	if m.Span != 0 {
		c.prev = m.Span
	}
	if m.Reason.Fatal() {
		c.fail(c.lastErr)
		return
	}
	c.next()
}

// fail ends the connection with err, or — for nil — with the last
// attempt's error once the attempt budget or the deadline ran out.
func (c *connRec) fail(err error) {
	c.d.inst.failures.Inc()
	c.emit(telemetry.SpanFail, c.prev)
	if err == nil {
		if c.lastErr == nil {
			c.lastErr = fmt.Errorf("transport: connection %d/%d timed out after %v", c.batch, c.conn, c.deadline.Sub(c.start))
		}
		err = fmt.Errorf("transport: connection %d/%d failed after %d reformations: %w", c.batch, c.conn, c.reforms, c.lastErr)
	}
	c.finish(Outcome{Reformations: c.reforms, Err: err})
}

func (c *connRec) finish(out Outcome) {
	c.out, c.finished = out, true
	c.wg.Done()
}

// emit records an initiator-side span of the current attempt; with
// spans off it builds none.
func (c *connRec) emit(kind telemetry.SpanKind, parent telemetry.SpanID) telemetry.SpanID {
	if c.trace == 0 {
		return 0
	}
	return c.d.spans.Emit(telemetry.Span{
		Trace: c.trace, Parent: parent, Kind: kind,
		Batch: c.batch, Conn: c.conn, Attempt: c.attempt, Node: int(c.initiator),
	})
}

// ConnectDetail runs one connection from initiator to responder with the
// given hop budget and returns the realised path (I … R) and the number
// of path reformations performed. It returns once a confirm arrives or
// the connection fails; mid-path departures are retried per the
// RetryPolicy (path reformation) within timeout.
func (d *Driver) ConnectDetail(initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration) ([]overlay.NodeID, int, error) {
	out := d.connect(initiator, responder, batch, conn, budget, timeout, nil)
	return out.Path, out.Reformations, out.Err
}

// RunBatch executes k connections sequentially (recurring connections of
// one (I, R) pair are inherently ordered) and aggregates the outcome.
func (d *Driver) RunBatch(initiator, responder overlay.NodeID, batch, k, budget int, timeout time.Duration) (*BatchOutcome, error) {
	out := NewBatchOutcome()
	for conn := 1; conn <= k; conn++ {
		path, reforms, err := d.ConnectDetail(initiator, responder, batch, conn, budget, timeout)
		out.Reformations += reforms
		if err != nil {
			return out, err
		}
		out.Record(path, initiator)
	}
	return out, nil
}
