package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"p2panon/internal/overlay"
	"p2panon/internal/transport"
)

// Span names, one per call the harness makes into a layer.
const (
	spanConnect      = "transport.connect"
	spanNextHop      = "router.next_hop"
	spanMintChain    = "payment.mint_chain"
	spanClaimCodec   = "payment.claim_codec"
	spanEscrowOpen   = "payment.escrow_open"
	spanVerifySettle = "payment.verify_settle"
	spanSettleNotify = "transport.settle_notify"
	spanChurnEvent   = "overlay.churn_event"
	spanTickAll      = "probe.tick_all"
	spanNewBatch     = "core.new_batch"
	spanRunConn      = "core.run_connection"
	spanCoreSettle   = "core.settle"
)

// span is one recorded interval. Trace is the batch id, Parent the id of
// the enclosing span (0 at top level), times are nanoseconds since the
// tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer, and one that is not
// active, records nothing: the traced run switches it on for every other
// operation, so traced and untraced operations alternate on one world and
// their cost difference is the tracing overhead.
type tracer struct {
	epoch  time.Time
	active atomic.Bool
	nextID atomic.Uint64
	// connect is the open transport.connect span. One connection is in
	// flight at a time, so router calls made by peer goroutines attach to
	// it without any context passing through the program under test.
	connect atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) on() bool { return t != nil && t.active.Load() }

func (t *tracer) setActive(v bool) {
	if t != nil {
		t.active.Store(v)
	}
}

// openSpan is an in-flight span; the zero value (tracer off) ends as a
// no-op.
type openSpan struct {
	t     *tracer
	id    uint64
	trace int
	name  string
	start int64
}

func (t *tracer) start(name string, trace int) openSpan {
	if !t.on() {
		return openSpan{}
	}
	return openSpan{t: t, id: t.nextID.Add(1), trace: trace, name: name, start: int64(time.Since(t.epoch))}
}

// startConnect opens a transport.connect span and makes it the parent of
// the router calls that follow.
func (t *tracer) startConnect(trace int) openSpan {
	sp := t.start(spanConnect, trace)
	if t != nil {
		t.connect.Store(sp.id) // 0 while tracing is off: router spans are not recorded then either
	}
	return sp
}

func (s openSpan) end() { s.endUnder(0) }

func (s openSpan) endUnder(parent uint64) {
	if s.t == nil {
		return
	}
	end := int64(time.Since(s.t.epoch))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{ID: s.id, Parent: parent, Trace: s.trace, Name: s.name, Start: s.start, End: end})
	s.t.mu.Unlock()
}

// tracedRouter times every NextHop a peer makes, as a child of the open
// connect span. It wraps the router handed to Join in traced runs only.
type tracedRouter struct {
	inner transport.Router
	t     *tracer
}

func (r tracedRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	sp := r.t.start(spanNextHop, batch)
	next, deliver := r.inner.NextHop(self, pred, initiator, responder, batch, conn, remaining)
	sp.endUnder(r.t.connect.Load())
	return next, deliver
}

// layerTime is one span name's totals over a run.
type layerTime struct {
	Count  int64
	Total  int64 // ns, span durations
	SelfNs int64 // ns, durations minus the part child spans cover
}

// selfTimes folds the recorded spans into per-name totals. A span's self
// time is its duration minus its children's (children never overlap: one
// connection is in flight and a peer makes one routing call at a time).
func (t *tracer) selfTimes() map[string]*layerTime {
	out := make(map[string]*layerTime)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.SelfNs += d - children[s.ID]
	}
	return out
}

// writeJSONL writes the span log, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
