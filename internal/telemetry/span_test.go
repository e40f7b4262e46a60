package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestSpanIDDerivationIsStable(t *testing.T) {
	tr := NewTraceID(42, 3, 7, 11)
	if tr != NewTraceID(42, 3, 7, 11) {
		t.Fatal("trace id not deterministic")
	}
	for _, other := range []SpanID{
		NewTraceID(43, 3, 7, 11),
		NewTraceID(42, 4, 7, 11),
		NewTraceID(42, 3, 8, 11),
		NewTraceID(42, 3, 7, 12),
	} {
		if other == tr {
			t.Fatalf("trace id collision on a single-coordinate change")
		}
	}
	root := NewSpanID(tr, SpanBatch, 0, 0, 0, 7)
	if root != NewSpanID(tr, SpanBatch, 0, 0, 0, 7) {
		t.Fatal("span id not deterministic")
	}
	if NewSpanID(root, SpanLaunch, 1, 1, 0, 7) == NewSpanID(root, SpanLaunch, 1, 2, 0, 7) {
		t.Fatal("attempt not folded into span id")
	}
	if NewSpanID(root, SpanHop, 1, 0, 1, 5) == NewSpanID(root, SpanNack, 1, 0, 1, 5) {
		t.Fatal("kind not folded into span id")
	}
}

func TestSpanIDJSONRoundTrip(t *testing.T) {
	id := SpanID(0x0123456789abcdef)
	raw, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `"0123456789abcdef"` {
		t.Fatalf("marshal = %s", raw)
	}
	var back SpanID
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip = %v", back)
	}
	if err := json.Unmarshal([]byte(`"zz"`), &back); err == nil {
		t.Fatal("bad hex accepted")
	}
}

// TestSpanRecorderCanonicalOrder records the same spans in two shuffled
// orders (simulating different goroutine interleavings) and asserts the
// exported logs are byte-identical — the property the cross-backend
// conformance case relies on.
func TestSpanRecorderCanonicalOrder(t *testing.T) {
	mk := func() []Span {
		trace := NewTraceID(1, 1, 0, 9)
		root := NewSpanID(trace, SpanBatch, 0, 0, 0, 0)
		var spans []Span
		spans = append(spans, Span{Trace: trace, ID: root, Kind: SpanBatch, Batch: 1, Node: 0})
		for conn := 0; conn < 3; conn++ {
			launch := NewSpanID(root, SpanLaunch, conn, 1, 0, 0)
			spans = append(spans, Span{Trace: trace, ID: launch, Parent: root, Kind: SpanLaunch, Batch: 1, Conn: conn, Attempt: 1, Node: 0})
			parent := launch
			for hop := 1; hop <= 3; hop++ {
				id := NewSpanID(parent, SpanHop, conn, 0, hop, hop+2)
				spans = append(spans, Span{Trace: trace, ID: id, Parent: parent, Kind: SpanHop, Batch: 1, Conn: conn, Hop: hop, Node: hop + 2})
				parent = id
			}
		}
		return spans
	}

	var logs [][]byte
	for trial := 0; trial < 2; trial++ {
		spans := mk()
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(spans), func(i, j int) {
			spans[i], spans[j] = spans[j], spans[i]
		})
		rec := NewSpanRecorder(1024)
		for _, s := range spans {
			rec.Record(s)
			rec.Record(s) // duplicates are idempotent
		}
		var b bytes.Buffer
		if err := rec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		logs = append(logs, b.Bytes())
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("shuffled recordings diverge:\n%s\nvs\n%s", logs[0], logs[1])
	}
}

func TestSpanRecorderCapacityAndDrops(t *testing.T) {
	rec := NewSpanRecorder(2)
	for i := 0; i < 5; i++ {
		rec.Record(Span{ID: SpanID(i + 1), Kind: SpanHop})
	}
	if rec.Total() != 2 {
		t.Fatalf("retained %d, want 2", rec.Total())
	}
	if rec.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", rec.Dropped())
	}
}

func TestSpanRecorderClockStamps(t *testing.T) {
	rec := NewSpanRecorder(8)
	now := int64(1000)
	rec.SetClock(func() int64 { return now })
	rec.Record(Span{ID: 1, Kind: SpanLaunch})
	now = 2500
	rec.Record(Span{ID: 2, Kind: SpanHop})
	rec.Record(Span{ID: 3, Kind: SpanHop, TimeMicros: 99}) // explicit stamp wins
	byID := map[SpanID]int64{}
	for _, s := range rec.Spans() {
		byID[s.ID] = s.TimeMicros
	}
	if byID[1] != 1000 || byID[2] != 2500 || byID[3] != 99 {
		t.Fatalf("timestamps = %v", byID)
	}
}

func TestSpanRecorderNilSafe(t *testing.T) {
	var rec *SpanRecorder
	rec.Record(Span{ID: 1})
	rec.SetSeed(7)
	rec.SetClock(nil)
	if trace, root := rec.Root(1, 2, 3); trace != 0 || root != 0 || rec.Emit(Span{Trace: 1, Kind: SpanHop}) != 0 {
		t.Fatal("nil recorder minted an id")
	}
	if rec.Total() != 0 || rec.Dropped() != 0 || rec.Spans() != nil {
		t.Fatal("nil recorder not inert")
	}
	if err := rec.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestReadSpansRoundTrip(t *testing.T) {
	rec := NewSpanRecorder(8)
	rec.SetSeed(99)
	trace, root := rec.Root(2, 0, 5)
	rec.Emit(Span{Trace: trace, Parent: root, Kind: SpanSettle, Batch: 2, Node: 3, Detail: "payoff=3ff0000000000000"})

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.DumpJSONL(path); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Spans()
	if len(spans) != len(want) {
		t.Fatalf("parsed %d spans, want %d", len(spans), len(want))
	}
	for i := range spans {
		if spans[i] != want[i] {
			t.Fatalf("span %d round trip: %+v != %+v", i, spans[i], want[i])
		}
	}
	if _, err := ReadSpans(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	rec := NewSpanRecorder(4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Record(Span{ID: SpanID(w*1000 + i + 1), Kind: SpanHop, Node: w, Conn: i})
			}
		}(w)
	}
	wg.Wait()
	if rec.Total() != 1600 {
		t.Fatalf("retained %d, want 1600", rec.Total())
	}
}

// TestEmitDerivesIDFromRecordedCoordinates pins the emitter's contract for
// every kind: the id it returns and records is NewSpanID — the independent
// derivation — over exactly the coordinates the recorded span carries, and
// the root is the batch span hashed under the seeded trace id.
func TestEmitDerivesIDFromRecordedCoordinates(t *testing.T) {
	rec := NewSpanRecorder(64)
	rec.SetSeed(42)
	trace, root := rec.Root(3, 7, 11)
	if want := NewTraceID(42, 3, 7, 11); trace != want {
		t.Fatalf("trace = %s, want %s", trace, want)
	}
	if want := NewSpanID(trace, SpanBatch, 0, 0, 0, 7); root != want {
		t.Fatalf("root = %s, want %s", root, want)
	}
	if again, _ := rec.Root(3, 7, 11); again != trace || rec.Total() != 1 {
		t.Fatalf("re-opening the root recorded it twice (%d spans)", rec.Total())
	}
	want := []Span{{Trace: trace, ID: root, Kind: SpanBatch, Batch: 3, Node: 7}}
	parent := root
	for _, s := range []Span{
		{Kind: SpanLaunch, Conn: 2, Attempt: 1, Node: 7},
		{Kind: SpanHop, Conn: 2, Hop: 1, Node: 5},
		{Kind: SpanRespond, Conn: 2, Hop: 2, Node: 11},
		{Kind: SpanDeliver, Conn: 2, Attempt: 1, Node: 7},
		{Kind: SpanNack, Conn: 2, Hop: 2, Node: 7, Detail: "next hop 5 departed"},
		{Kind: SpanTimeout, Conn: 2, Attempt: 1, Node: 7},
		{Kind: SpanReform, Conn: 2, Attempt: 2, Node: 7},
		{Kind: SpanFail, Conn: 2, Attempt: 3, Node: 7},
		{Kind: SpanSettle, Node: 5, Detail: "payoff=3ff0000000000000"},
	} {
		s.Trace, s.Parent, s.Batch = trace, parent, 3
		s.ID = 0xbad // whatever the caller left there is overwritten
		id := rec.Emit(s)
		if derived := NewSpanID(parent, s.Kind, s.Conn, s.Attempt, s.Hop, s.Node); id != derived {
			t.Fatalf("%s: emitted id %s, NewSpanID over its coordinates gives %s", s.Kind, id, derived)
		}
		s.ID = id
		want = append(want, s)
		parent = id
	}
	SortSpans(want)
	got := rec.Spans()
	if len(got) != len(want) {
		t.Fatalf("recorded %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d: recorded %+v, want %+v", i, got[i], want[i])
		}
	}
	if id := rec.Emit(Span{Parent: root, Kind: SpanHop, Conn: 9}); id != 0 || rec.Total() != len(want) {
		t.Fatalf("a span without trace context was recorded (id %s)", id)
	}
}

// TestDisabledEmissionDoesNotAllocate is the cost bound the live path
// relies on when no recorder is attached, or a message carried no trace
// context: opening a root and emitting a child touch no heap.
func TestDisabledEmissionDoesNotAllocate(t *testing.T) {
	var off *SpanRecorder
	on := NewSpanRecorder(1)
	reason := "next hop 5 departed"
	if n := testing.AllocsPerRun(100, func() {
		trace, root := off.Root(1, 2, 3)
		off.Emit(Span{Trace: trace, Parent: root, Kind: SpanNack, Batch: 1, Conn: 4, Hop: 2, Node: 2, Detail: reason})
		on.Emit(Span{Parent: 5, Kind: SpanHop, Batch: 1, Conn: 4, Hop: 2, Node: 6})
	}); n != 0 {
		t.Fatalf("disabled emission allocates %v times per run", n)
	}
	if on.Total() != 0 {
		t.Fatal("a context-less span was recorded")
	}
}
