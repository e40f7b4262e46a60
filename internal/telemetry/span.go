package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
)

// SpanKind names a node in the causal tree of one traced connection
// batch: the batch root, per-attempt launches, forwarder hops, the
// responder's accept, the initiator-side terminal outcomes, post-batch
// settlement, and the faults a fault-injection world applies.
type SpanKind string

const (
	SpanBatch   SpanKind = "batch"   // trace root: one (batch, I, R) pair
	SpanLaunch  SpanKind = "launch"  // one connection attempt leaves I
	SpanHop     SpanKind = "hop"     // a forwarder relays the message
	SpanRespond SpanKind = "respond" // the message reaches R
	SpanDeliver SpanKind = "deliver" // R's confirmation reaches I
	SpanNack    SpanKind = "nack"    // a node on the path refuses/fails
	SpanTimeout SpanKind = "timeout" // an attempt dies by deadline
	SpanReform  SpanKind = "reform"  // I abandons the attempt and retries
	SpanFail    SpanKind = "fail"    // I gives the connection up for good
	SpanSettle  SpanKind = "settle"  // a forwarder-set member is paid
	SpanFault   SpanKind = "fault"   // faultsim applies a scheduled fault
)

// kindRank orders kinds causally for the canonical span log: roots
// first, then launches, the forward path, terminals, settlement.
func kindRank(k SpanKind) int {
	switch k {
	case SpanBatch:
		return 0
	case SpanLaunch:
		return 1
	case SpanHop:
		return 2
	case SpanRespond:
		return 3
	case SpanDeliver:
		return 4
	case SpanNack:
		return 5
	case SpanTimeout:
		return 6
	case SpanReform:
		return 7
	case SpanFail:
		return 8
	case SpanSettle:
		return 9
	default:
		return 100
	}
}

// SpanID is a 64-bit span or trace identifier, rendered as 16 hex
// digits in JSON so logs diff cleanly and IDs survive a round-trip
// through any JSON tooling (64-bit ints do not, in general).
type SpanID uint64

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the id as a quoted hex string.
func (id SpanID) MarshalJSON() ([]byte, error) { return []byte(`"` + id.String() + `"`), nil }

// UnmarshalJSON parses the quoted hex form.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("telemetry: bad span id %q: %w", s, err)
	}
	*id = SpanID(v)
	return nil
}

// FNV-1a, the hash behind every id derivation. Spans are identified by
// *causal coordinates*, never by arrival sequence, so concurrent
// backends produce the same ids no matter how goroutines interleave.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// NewTraceID derives the trace id for one (batch, initiator, responder)
// pair under a seed. The same seeded workload therefore yields the same
// trace ids on every backend and every run.
func NewTraceID(seed int64, batch, initiator, responder int) SpanID {
	h := uint64(fnvOffset)
	h = fnvString(h, "trace")
	h = fnvInt(h, uint64(seed))
	h = fnvInt(h, uint64(batch))
	h = fnvInt(h, uint64(initiator))
	h = fnvInt(h, uint64(responder))
	return SpanID(h)
}

// NewSpanID derives a span id from its parent and local causal
// coordinates. Ids chain: each hop hashes the previous hop's id, so a
// receiver can mint its own span from nothing but the parent id carried
// in the message plus what it knows locally. Attempt is the per-conn
// attempt ordinal where the emitter knows it (initiator-side spans) and
// 0 elsewhere.
func NewSpanID(parent SpanID, kind SpanKind, conn, attempt, hop, node int) SpanID {
	h := uint64(fnvOffset)
	h = fnvInt(h, uint64(parent))
	h = fnvString(h, string(kind))
	h = fnvInt(h, uint64(conn))
	h = fnvInt(h, uint64(attempt))
	h = fnvInt(h, uint64(hop))
	h = fnvInt(h, uint64(node))
	return SpanID(h)
}

// Span is one node of a causal trace tree. Parent is zero only on batch
// roots. TimeMicros is microseconds since the epoch the recorder's clock
// defines (virtual seconds for faultsim, wall clock for live runs) and
// is zero when the recorder has no clock — the canonical, byte-
// comparable configuration.
type Span struct {
	Trace      SpanID   `json:"trace"`
	ID         SpanID   `json:"span"`
	Parent     SpanID   `json:"parent,omitempty"`
	Kind       SpanKind `json:"kind"`
	Batch      int      `json:"batch"`
	Conn       int      `json:"conn"`
	Attempt    int      `json:"attempt,omitempty"`
	Hop        int      `json:"hop,omitempty"`
	Node       int      `json:"node"`
	TimeMicros int64    `json:"us,omitempty"`
	Detail     string   `json:"detail,omitempty"`
}

// SpanRecorder collects spans up to a fixed capacity, deduplicating by
// id: re-recording a span (a batch root minted lazily by several
// connections, a duplicated frame under fault injection) is a no-op, so
// emitters never coordinate. All methods are nil-safe and safe for
// concurrent use.
//
// The canonical export (Spans, WriteJSONL) sorts by causal coordinates,
// not arrival order, so two backends running the same seeded workload
// produce byte-identical logs regardless of goroutine interleaving —
// the property internal/conformance pins.
type SpanRecorder struct {
	mu       sync.Mutex
	capacity int
	spans    []Span
	seen     map[SpanID]struct{}
	dropped  uint64
	seed     int64
	clock    func() int64 // micros; nil = no timestamps
}

// NewSpanRecorder returns a recorder retaining up to capacity distinct
// spans; further spans are counted as dropped. It panics if capacity < 1.
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity < 1 {
		panic("telemetry: NewSpanRecorder capacity < 1")
	}
	return &SpanRecorder{capacity: capacity, seen: make(map[SpanID]struct{})}
}

// SetSeed fixes the seed Root folds into every trace id. Nil-safe.
func (r *SpanRecorder) SetSeed(seed int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seed = seed
	r.mu.Unlock()
}

// SetClock enables timestamps: fn returns microseconds since the
// caller's epoch and stamps every span recorded with a zero TimeMicros.
// Leave unset for canonical byte-comparable logs. Nil-safe.
func (r *SpanRecorder) SetClock(fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = fn
	r.mu.Unlock()
}

// Root opens the trace of one (batch, initiator, responder) pair: it
// derives the trace id under the recorder's seed, records the batch root
// span and returns both ids. Recording is idempotent, so every emitter
// that needs the pair's context — each connection of the batch, its
// settlement — calls Root again instead of passing ids around. A nil
// recorder returns zeros, which turn every Emit below them into a no-op.
func (r *SpanRecorder) Root(batch, initiator, responder int) (trace, root SpanID) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	seed := r.seed
	r.mu.Unlock()
	trace = NewTraceID(seed, batch, initiator, responder)
	root = NewSpanID(trace, SpanBatch, 0, 0, 0, initiator)
	r.Record(Span{Trace: trace, ID: root, Kind: SpanBatch, Batch: batch, Node: initiator})
	return trace, root
}

// Emit records the child span s and returns its id, which it derives
// from the coordinates s itself carries — NewSpanID over (Parent, Kind,
// Conn, Attempt, Hop, Node); whatever s.ID held is overwritten. An
// emitter therefore spells a span's coordinates once, and "a span's id
// is the chain hash of exactly what it records" holds by construction.
// It returns 0 and records nothing when the recorder is nil or s carries
// no trace context (Trace == 0); what a site hands on in that case — 0
// or the parent it was given — is the site's decision.
func (r *SpanRecorder) Emit(s Span) SpanID {
	if r == nil || s.Trace == 0 {
		return 0
	}
	s.ID = NewSpanID(s.Parent, s.Kind, s.Conn, s.Attempt, s.Hop, s.Node)
	r.Record(s)
	return s.ID
}

// Record stores s unless its id was already recorded or the recorder is
// full. Nil-safe.
func (r *SpanRecorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.seen[s.ID]; dup {
		return
	}
	if len(r.spans) >= r.capacity {
		r.dropped++
		return
	}
	if s.TimeMicros == 0 && r.clock != nil {
		s.TimeMicros = r.clock()
	}
	r.seen[s.ID] = struct{}{}
	r.spans = append(r.spans, s)
}

// Total returns how many distinct spans are retained. Nil-safe.
func (r *SpanRecorder) Total() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped returns how many spans the capacity bound rejected. Nil-safe.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns a canonically ordered copy of the retained spans:
// sorted by (trace, batch, conn, attempt, kind rank, hop, node, detail,
// id) — a total order over causal coordinates, independent of the order
// spans arrived in. Nil-safe (returns nil).
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	SortSpans(out)
	return out
}

// SortSpans orders spans canonically in place: by (trace, batch, conn,
// attempt, kind rank, hop, node, detail, id) — a total order over causal
// coordinates, independent of arrival order or which process recorded a
// span. It is the comparator behind Spans and MergeSpans.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Batch != b.Batch {
			return a.Batch < b.Batch
		}
		if a.Conn != b.Conn {
			return a.Conn < b.Conn
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		if ra, rb := kindRank(a.Kind), kindRank(b.Kind); ra != rb {
			return ra < rb
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		return a.ID < b.ID
	})
}

// MergeSpans combines per-process span logs into one canonically ordered
// log, deduplicating by span id — the cross-process analogue of a single
// SpanRecorder. Every process on a connection's path records the spans it
// witnessed (a frame's trace context lets two processes mint the same
// id), so the union with id-dedup reconstructs the causal tree exactly
// once, and the canonical sort makes the merged artifact byte-identical
// across runs of the same seeded workload regardless of which process
// recorded which span first. Returns the merged log and how many
// duplicate records were collapsed.
func MergeSpans(logs ...[]Span) ([]Span, int) {
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	seen := make(map[SpanID]struct{}, total)
	merged := make([]Span, 0, total)
	dups := 0
	for _, l := range logs {
		for _, s := range l {
			if _, dup := seen[s.ID]; dup {
				dups++
				continue
			}
			seen[s.ID] = struct{}{}
			merged = append(merged, s)
		}
	}
	SortSpans(merged)
	return merged, dups
}

// WriteSpansJSONL writes spans in the given order, one JSON object per
// line — the same wire format WriteJSONL and ReadSpans use.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the canonical span log, one JSON object per line.
// Nil-safe (writes nothing).
func (r *SpanRecorder) WriteJSONL(w io.Writer) error {
	return WriteSpansJSONL(w, r.Spans())
}

// DumpJSONL writes the canonical span log to the named file (truncating).
func (r *SpanRecorder) DumpJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSpans parses a JSONL span log (the WriteJSONL format) back into
// spans, in file order. Blank lines are skipped.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("telemetry: span log line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
