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

// RetryPolicy bounds Connect's reformation behaviour: up to MaxAttempts
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

// connResult is the terminal event of one connection attempt: a completed
// path (with sealed records under the secure protocol) or an error. fatal
// marks errors a retry cannot fix (e.g. an unverifiable contract).
type connResult struct {
	path    []overlay.NodeID
	records []onion.PathRecord
	err     error
	fatal   bool
	// span is the causal span the terminal message carried: the responder's
	// respond span for a confirm, the nack span for a NACK. The initiator
	// parents its deliver/fail span on it.
	span telemetry.SpanID
}

// Driver is the one implementation of the §2.2 forwarding protocol and
// its bounded-retry reformation loop: the initiator side (Connect and the
// batch runners built on it) and, in protocol.go, the forwarder side.
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

	// pending maps a launched attempt's id to the channel its terminal
	// result arrives on. An entry lives from launch to the attempt's
	// outcome — resolved, timed out or abandoned — and no longer.
	pendMu     sync.Mutex
	pending    map[int]chan connResult
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
		pending:      make(map[int]chan connResult),
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

// Spans returns the attached span recorder, or nil.
func (d *Driver) Spans() *telemetry.SpanRecorder { return d.spans }

// SetClock replaces the protocol clock — attempt deadlines and retry
// backoff read it, and so does the link's latency model. Pass a
// *vclock.Virtual (usually with AutoAdvance running) to make
// timing-dependent tests deterministic and wall-clock free. Call before
// traffic starts; not safe to race with in-flight connections.
func (d *Driver) SetClock(c vclock.Clock) {
	if c == nil {
		c = vclock.Real()
	}
	d.clock = c
}

// Clock returns the clock the runtime schedules against.
func (d *Driver) Clock() vclock.Clock { return d.clock }

// SetRetry replaces the retry policy. Not safe to call concurrently with
// Connect.
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

// register opens a pending attempt and returns its id and result channel.
func (d *Driver) register() (int, <-chan connResult) {
	ch := make(chan connResult, 1)
	d.pendMu.Lock()
	d.attemptSeq++
	id := d.attemptSeq
	d.pending[id] = ch
	d.pendMu.Unlock()
	return id, ch
}

// resolve delivers an attempt's terminal result, if anyone still waits.
func (d *Driver) resolve(attempt int, res connResult) {
	d.pendMu.Lock()
	ch, ok := d.pending[attempt]
	delete(d.pending, attempt)
	d.pendMu.Unlock()
	if ok {
		ch <- res // buffered; exactly one resolver wins the delete
	}
}

// abandon closes a pending attempt nobody will wait for any more.
func (d *Driver) abandon(attempt int) {
	d.pendMu.Lock()
	delete(d.pending, attempt)
	d.pendMu.Unlock()
}

// connect runs one connection with bounded retry: each attempt gets an
// even share of timeout as its deadline; a timed-out or NACKed attempt is
// relaunched — a path reformation — after exponential backoff, until the
// policy's attempt budget or the overall deadline runs out. It returns the
// terminal result plus the number of reformations performed.
func (d *Driver) connect(initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration, contract *onion.SignedContract) (connResult, int, error) {
	if d.link.Local(initiator) == nil {
		return connResult{}, 0, fmt.Errorf("transport: unknown initiator %d", initiator)
	}
	if !d.link.Addressable(responder) {
		return connResult{}, 0, fmt.Errorf("transport: unknown responder %d", responder)
	}
	if initiator == responder {
		return connResult{}, 0, errors.New("transport: initiator == responder")
	}
	policy := d.retry
	start := d.clock.Now()
	// Span context: one trace per (batch, I, R), its root re-opened by
	// every connection (the recorder deduplicates by id). The attempt
	// coordinate of initiator-side spans is the per-connection ordinal,
	// not Message.Attempt — that one is a driver-wide counter.
	trace, root := d.spans.Root(batch, int(initiator), int(responder))
	emit := func(kind telemetry.SpanKind, parent telemetry.SpanID, attempt int) telemetry.SpanID {
		return d.spans.Emit(telemetry.Span{
			Trace: trace, Parent: parent, Kind: kind,
			Batch: batch, Conn: conn, Attempt: attempt, Node: int(initiator),
		})
	}
	deadline := start.Add(timeout)
	per := timeout / time.Duration(policy.MaxAttempts)
	if per <= 0 {
		per = timeout
	}
	backoff := policy.BaseBackoff
	reforms := 0
	lastAttempt := 1
	var lastErr error
	prevSpan := root // last causal step; the next reform or fail span parents on it
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		lastAttempt = attempt
		remaining := d.clock.Until(deadline)
		if remaining <= 0 {
			break
		}
		if attempt > 1 {
			if backoff > 0 {
				pause := backoff
				if pause > remaining {
					pause = remaining
				}
				d.clock.Sleep(pause)
				if backoff *= 2; policy.MaxBackoff > 0 && backoff > policy.MaxBackoff {
					backoff = policy.MaxBackoff
				}
				if remaining = d.clock.Until(deadline); remaining <= 0 {
					break
				}
			}
			reforms++
			d.inst.reformations.Inc()
			emit(telemetry.SpanReform, prevSpan, attempt)
		}
		window := per
		if window > remaining {
			window = remaining
		}
		launch := emit(telemetry.SpanLaunch, root, attempt)
		prevSpan = launch
		st := d.link.Local(initiator)
		if st == nil {
			d.inst.failures.Inc()
			emit(telemetry.SpanFail, prevSpan, attempt)
			return connResult{}, reforms, fmt.Errorf("transport: initiator %d departed", initiator)
		}
		// The first FORWARD is handed to the initiator's own handler: a
		// node does not message itself, so the launch crosses no link.
		aid, done := d.register()
		timer := d.clock.NewTimer(window)
		d.handleForward(st, Message{
			Kind:      MsgForward,
			Batch:     batch,
			Conn:      conn,
			Attempt:   aid,
			From:      overlay.None,
			Initiator: initiator,
			Responder: responder,
			Remaining: budget,
			Deadline:  d.clock.Now().Add(window),
			Contract:  contract,
			Trace:     trace,
			Span:      launch,
		})
		select {
		case res := <-done:
			timer.Stop()
			if res.err == nil {
				d.inst.connects.Inc()
				d.inst.connectLatency.Observe(d.clock.Since(start).Seconds())
				d.inst.pathLen.Observe(float64(len(res.path)))
				parent := res.span
				if parent == 0 {
					parent = launch
				}
				emit(telemetry.SpanDeliver, parent, attempt)
				return res, reforms, nil
			}
			lastErr = res.err
			if res.span != 0 {
				prevSpan = res.span
			}
			if res.fatal {
				d.inst.failures.Inc()
				emit(telemetry.SpanFail, prevSpan, attempt)
				return connResult{}, reforms, res.err
			}
		case <-timer.C:
			d.abandon(aid)
			d.inst.timeouts.Inc()
			lastErr = fmt.Errorf("transport: attempt %d of connection %d/%d timed out after %v", attempt, batch, conn, window)
			prevSpan = emit(telemetry.SpanTimeout, launch, attempt)
		}
	}
	d.inst.failures.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("transport: connection %d/%d timed out after %v", batch, conn, timeout)
	}
	emit(telemetry.SpanFail, prevSpan, lastAttempt)
	return connResult{}, reforms, fmt.Errorf("transport: connection %d/%d failed after %d reformations: %w", batch, conn, reforms, lastErr)
}

// Connect runs one connection from initiator to responder with the given
// hop budget and returns the realised path (I … R). It blocks until a
// confirm returns or the timeout expires; mid-path departures are retried
// per the RetryPolicy (path reformation) within that timeout.
func (d *Driver) Connect(initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration) ([]overlay.NodeID, error) {
	path, _, err := d.ConnectDetail(initiator, responder, batch, conn, budget, timeout)
	return path, err
}

// ConnectDetail runs one connection like Connect and additionally returns
// the number of path reformations performed.
func (d *Driver) ConnectDetail(initiator, responder overlay.NodeID, batch, conn, budget int, timeout time.Duration) ([]overlay.NodeID, int, error) {
	res, reforms, err := d.connect(initiator, responder, batch, conn, budget, timeout, nil)
	return res.path, reforms, err
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
