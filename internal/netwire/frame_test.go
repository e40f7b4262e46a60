package netwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// testContract builds a valid signed contract for codec tests.
func testContract(t testing.TB, batch uint64) *onion.SignedContract {
	t.Helper()
	bk, err := onion.NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := onion.NewSignedContract(batch, 1.5, 20, bk.Public())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomFrame draws one frame of the given kind with randomized fields.
func randomFrame(t testing.TB, rng *rand.Rand, kind Kind) *Frame {
	t.Helper()
	f := &Frame{Kind: kind}
	switch kind {
	case KindHello, KindHelloAck:
		f.Node = overlay.NodeID(rng.Int63n(1 << 40))
	case KindProbe, KindProbeAck:
		f.Nonce = rng.Uint64()
	case KindSettle:
		f.Batch = rng.Intn(1 << 20)
		f.Payoff = rng.NormFloat64() * 10
	case KindClaim:
		f.Batch = rng.Intn(1 << 20)
		claim := payment.AggregateClaim{Forwarder: payment.AccountID(rng.Int63n(1 << 40))}
		conn, hop := 0, 0
		for i := 1 + rng.Intn(8); i > 0; i-- {
			conn += rng.Intn(3)
			hop = rng.Intn(64)
			for len(claim.Entries) > 0 {
				last := claim.Entries[len(claim.Entries)-1]
				if conn > last.Conn || (conn == last.Conn && hop > last.Hop) {
					break
				}
				hop++
			}
			claim.Entries = append(claim.Entries, payment.AggEntry{Conn: conn, Hop: hop})
		}
		rng.Read(claim.Chain[:])
		f.AggClaim = &claim
	case KindForward, KindConfirm, KindNack:
		f.Batch = rng.Intn(1 << 20)
		f.Conn = rng.Intn(1 << 20)
		f.Attempt = rng.Intn(1 << 30)
		f.From = overlay.NodeID(rng.Int63n(1<<40) - 1)
		f.Initiator = overlay.NodeID(rng.Int63n(1 << 40))
		f.Responder = overlay.NodeID(rng.Int63n(1 << 40))
		f.Remaining = rng.Intn(64)
		f.Hop = rng.Intn(64)
		f.DeadlineMicros = rng.Int63n(1 << 40)
		for i := rng.Intn(8); i > 0; i-- {
			f.Path = append(f.Path, overlay.NodeID(rng.Int63n(1<<40)))
		}
		if kind == KindNack {
			f.Reason = transport.NackDeparted + transport.NackReason(rng.Intn(2))
		}
		if rng.Intn(2) == 1 {
			f.Contract = testContract(t, uint64(f.Batch))
		}
		for i := rng.Intn(4); i > 0; i-- {
			sealed := make([]byte, 16+rng.Intn(64))
			rng.Read(sealed)
			f.Records = append(f.Records, onion.PathRecord{Sealed: sealed})
		}
	}
	// Every kind except probe/probe_ack may carry the trace-context
	// extension; exercise both the with- and without- wire forms.
	switch kind {
	case KindProbe, KindProbeAck:
	default:
		if rng.Intn(2) == 1 {
			f.Trace = telemetry.SpanID(rng.Uint64() | 1)
			f.Span = telemetry.SpanID(rng.Uint64() | 1)
		}
	}
	return f
}

// TestFrameRoundTrip is the canonical-encoding property over randomized
// frames: encode∘decode is the identity on bytes, and the decoded frame
// carries the same fields.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kinds := []Kind{KindHello, KindHelloAck, KindForward, KindConfirm, KindNack, KindProbe, KindProbeAck, KindSettle, KindClaim}
	for trial := 0; trial < 200; trial++ {
		f := randomFrame(t, rng, kinds[trial%len(kinds)])
		buf, err := f.Encode()
		if err != nil {
			t.Fatalf("trial %d (%s): encode: %v", trial, f.Kind, err)
		}
		g, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("trial %d (%s): decode: %v", trial, f.Kind, err)
		}
		buf2, err := g.Encode()
		if err != nil {
			t.Fatalf("trial %d (%s): re-encode: %v", trial, f.Kind, err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("trial %d (%s): re-encode differs from original encoding", trial, f.Kind)
		}
		if g.Kind != f.Kind || g.Node != f.Node || g.Nonce != f.Nonce ||
			g.Batch != f.Batch || g.Conn != f.Conn || g.Attempt != f.Attempt ||
			g.From != f.From || g.Initiator != f.Initiator || g.Responder != f.Responder ||
			g.Remaining != f.Remaining || g.Hop != f.Hop || g.Reason != f.Reason ||
			g.DeadlineMicros != f.DeadlineMicros ||
			g.Trace != f.Trace || g.Span != f.Span ||
			math.Float64bits(g.Payoff) != math.Float64bits(f.Payoff) ||
			len(g.Path) != len(f.Path) || len(g.Records) != len(f.Records) {
			t.Fatalf("trial %d (%s): decoded frame differs:\n got %+v\nwant %+v", trial, f.Kind, g, f)
		}
		for i := range f.Path {
			if g.Path[i] != f.Path[i] {
				t.Fatalf("trial %d: path[%d] = %d, want %d", trial, i, g.Path[i], f.Path[i])
			}
		}
		for i := range f.Records {
			if !bytes.Equal(g.Records[i].Sealed, f.Records[i].Sealed) {
				t.Fatalf("trial %d: record %d differs", trial, i)
			}
		}
		if (g.AggClaim == nil) != (f.AggClaim == nil) {
			t.Fatalf("trial %d: aggregate claim presence differs", trial)
		}
		if f.AggClaim != nil {
			if g.AggClaim.Forwarder != f.AggClaim.Forwarder || g.AggClaim.Chain != f.AggClaim.Chain ||
				len(g.AggClaim.Entries) != len(f.AggClaim.Entries) {
				t.Fatalf("trial %d: aggregate claim differs:\n got %+v\nwant %+v", trial, g.AggClaim, f.AggClaim)
			}
			for i, e := range f.AggClaim.Entries {
				if g.AggClaim.Entries[i] != e {
					t.Fatalf("trial %d: claim entry %d = %+v, want %+v", trial, i, g.AggClaim.Entries[i], e)
				}
			}
		}
		if (g.Contract == nil) != (f.Contract == nil) {
			t.Fatalf("trial %d: contract presence differs", trial)
		}
		if f.Contract != nil {
			if !g.Contract.Verify() {
				t.Fatalf("trial %d: contract signature did not survive the wire", trial)
			}
			if g.Contract.BatchID != f.Contract.BatchID ||
				math.Float64bits(g.Contract.Pf) != math.Float64bits(f.Contract.Pf) ||
				math.Float64bits(g.Contract.Pr) != math.Float64bits(f.Contract.Pr) {
				t.Fatalf("trial %d: contract terms differ", trial)
			}
		}
	}
}

// TestDeadlineAtStampsDeadline pins deadlineAt to encodeMessage's field
// order: stamping a value at that offset of an encoded message frame, as
// a link's writer does, yields exactly the bytes of the same frame encoded
// with that DeadlineMicros, so the stamp can land in no other field.
func TestDeadlineAtStampsDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		f := randomFrame(t, rng, []Kind{KindForward, KindConfirm, KindNack}[trial%3])
		buf := mustEncode(t, f)
		stamp := rng.Int63()
		binary.BigEndian.PutUint64(buf[deadlineAt:], uint64(stamp))
		want := *f
		want.DeadlineMicros = stamp
		if !bytes.Equal(buf, mustEncode(t, &want)) {
			t.Fatalf("trial %d (%s): a stamp at deadlineAt=%d is not the frame encoded with that deadline", trial, f.Kind, deadlineAt)
		}
		if g, err := DecodeFrame(buf); err != nil || g.DeadlineMicros != stamp {
			t.Fatalf("trial %d (%s): stamped frame decodes to %+v, %v; want DeadlineMicros %d", trial, f.Kind, g, err, stamp)
		}
	}
}

// TestFrameRoundTripViaReader checks the stream reader agrees with the
// buffer decoder, including the byte count — through ReadFrame, which
// reads no further than each frame, and through a connection's read-ahead
// stream, which must hand back the same frames from the same bytes.
func TestFrameRoundTripViaReader(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream bytes.Buffer
	var frames []*Frame
	for i := 0; i < 20; i++ {
		f := randomFrame(t, rng, Kind(1+rng.Intn(int(kindEnd-1))))
		frames = append(frames, f)
		if _, err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	total := stream.Len()
	ahead := envelope.NewStream(bytes.NewReader(stream.Bytes()), connBuf)
	var path []overlay.NodeID // one path buffer for every frame, as a connection's reader keeps
	read := 0
	for i, want := range frames {
		g, n, err := ReadFrame(&stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		read += n
		if g.Kind != want.Kind || g.Nonce != want.Nonce || g.Batch != want.Batch {
			t.Fatalf("frame %d: mismatch after stream round trip", i)
		}
		var h Frame
		if m, err := readFrame(ahead, &h, &path); err != nil || m != n {
			t.Fatalf("frame %d through the read-ahead stream: n=%d (ReadFrame %d) err=%v", i, m, n, err)
		}
		if !bytes.Equal(mustEncode(t, &h), mustEncode(t, g)) {
			t.Fatalf("frame %d: read-ahead stream and ReadFrame disagree", i)
		}
	}
	if read != total {
		t.Fatalf("ReadFrame consumed %d bytes of %d written", read, total)
	}
	if _, err := readFrame(ahead, new(Frame), &path); err != io.EOF {
		t.Fatalf("read-ahead stream after the last frame: %v, want io.EOF", err)
	}
}

func mustEncode(t testing.TB, f *Frame) []byte {
	t.Helper()
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// encodeRaw builds a frame buffer from a raw body, bypassing Encode's
// validation, for decoder error cases.
func encodeRaw(body []byte) []byte {
	out := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	return append(out, body...)
}

func TestDecodeFrameErrors(t *testing.T) {
	valid, err := (&Frame{Kind: KindProbe, Nonce: 99}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := (&Frame{Kind: KindForward, Batch: 1, Conn: 1, Attempt: 1, Initiator: 0, Responder: 9, Remaining: 3}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip the flags byte (offset 4 header + 2 ver/kind + 9*8 fields) to an
	// unknown bit.
	badFlags := append([]byte(nil), msg...)
	badFlags[4+2+72] = 0x80
	// Declare a path longer than the cap.
	longPath := append([]byte(nil), msg...)
	binary.BigEndian.PutUint16(longPath[4+2+72+1:], maxPathLen+1)
	// Set the reason byte, behind the flags and an empty path's length,
	// of a NACK or a CONFIRM to r.
	reason := func(kind Kind, r transport.NackReason) []byte {
		f := &Frame{Kind: kind, Batch: 1, Conn: 1, Attempt: 1, Responder: 9}
		if kind == KindNack {
			f.Reason = transport.NackDeparted
		}
		out := mustEncode(t, f)
		out[4+2+72+1+2] = byte(r)
		return out
	}
	v2 := append([]byte(nil), valid...)
	v2[4] = 2

	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, MaxFrameSize+1)

	settle, err := (&Frame{Kind: KindSettle, Batch: -1, Payoff: 1}).Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite Batch (the first field), Remaining (the seventh) or Hop
	// (the eighth).
	field := func(k int, v int64) []byte {
		out := append([]byte(nil), msg...)
		binary.BigEndian.PutUint64(out[4+2+8*k:], uint64(v))
		return out
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"short header", []byte{0, 0, 1}, ErrShortFrame},
		{"truncated body", valid[:len(valid)-3], ErrShortFrame},
		{"declared longer than present", encodeRaw(make([]byte, 10))[:9], ErrShortFrame},
		{"oversized declared length", oversize, ErrOversized},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xde, 0xad), ErrTrailingData},
		{"bad version", encodeRaw([]byte{Version + 1, byte(KindProbe), 0, 0, 0, 0, 0, 0, 0, 0}), ErrBadVersion},
		{"unknown kind", encodeRaw([]byte{Version, 0xee, 0, 0, 0, 0, 0, 0, 0, 0}), ErrBadKind},
		{"zero kind", encodeRaw([]byte{Version, 0}), ErrBadKind},
		{"unknown flag bits", badFlags, ErrBadFlags},
		{"path over cap", longPath, ErrFieldTooLong},
		{"budget over cap", field(6, transport.MaxBudget+1), ErrBadHop},
		{"hostile budget", field(6, 1<<40), ErrBadHop},
		{"negative budget", field(6, -1), ErrBadHop},
		{"negative hop", field(7, -1), ErrBadHop},
		{"negative batch", field(0, -1), ErrBadBatch},
		{"settle for a negative batch", settle, ErrBadBatch},
		{"reason past NackContract", reason(KindNack, transport.NackContract+1), ErrBadReason},
		{"nack without a reason", reason(KindNack, transport.NackNone), ErrBadReason},
		{"confirm with a reason", reason(KindConfirm, transport.NackDeparted), ErrBadReason},
		{"version 2", v2, ErrBadVersion},
		{"body-internal truncation", encodeRaw([]byte{Version, byte(KindHello), 1, 2}), ErrShortFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := DecodeFrame(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got frame=%v err=%v, want %v", f, err, tc.want)
			}
		})
	}
}

// TestBodyCapEnforcedPerKind checks the per-kind body bound: a frame
// whose declared length is legal globally but absurd for its kind (a
// probe carrying a kilobyte) is rejected by both decoders with
// ErrOversized, and ReadFrame rejects it from the two-byte prologue alone
// — before allocating the body — leaving the declared bytes unread.
func TestBodyCapEnforcedPerKind(t *testing.T) {
	cases := []struct {
		kind Kind
		cap  int
	}{
		{KindProbe, 10},
		{KindProbeAck, 10},
		{KindHello, 10 + traceTailSize},
		{KindHelloAck, 10 + traceTailSize},
		{KindSettle, 18 + traceTailSize},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			if got := BodyCap(tc.kind); got != tc.cap {
				t.Fatalf("BodyCap(%v) = %d, want %d", tc.kind, got, tc.cap)
			}
			body := make([]byte, tc.cap+1000)
			body[0], body[1] = Version, byte(tc.kind)
			buf := encodeRaw(body)

			if f, err := DecodeFrame(buf); !errors.Is(err, ErrOversized) {
				t.Fatalf("DecodeFrame: frame=%v err=%v, want ErrOversized", f, err)
			}

			r := bytes.NewReader(buf)
			f, n, err := ReadFrame(r)
			if !errors.Is(err, ErrOversized) {
				t.Fatalf("ReadFrame: frame=%v err=%v, want ErrOversized", f, err)
			}
			// Only the length prefix and version/kind prologue may have been
			// consumed: the cap check must run before the body allocation.
			if n != 6 {
				t.Fatalf("ReadFrame reported %d bytes consumed, want 6", n)
			}
			if left := r.Len(); left != len(buf)-6 {
				t.Fatalf("ReadFrame drained %d bytes of the oversized body", len(buf)-6-left)
			}

			// The same prefix claiming the global maximum, on a connection's
			// read-ahead stream: rejected from the peeked prologue with no
			// body sized after it.
			binary.BigEndian.PutUint32(buf, MaxFrameSize)
			s := envelope.NewStream(bytes.NewReader(buf), connBuf)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, err = readFrame(s, new(Frame), nil)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrOversized) || n != 6 {
				t.Fatalf("read-ahead stream: n=%d err=%v, want 6 and ErrOversized", n, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= MaxFrameSize/2 {
				t.Fatalf("hostile prefix made the stream allocate %d bytes", grew)
			}
		})
	}
	if got := BodyCap(Kind(0xee)); got != -1 {
		t.Fatalf("BodyCap(unknown) = %d, want -1", got)
	}
}

// TestEncodeRejectsOversizedFields checks Encode refuses fields past their
// caps instead of emitting an undecodable frame.
func TestEncodeRejectsOversizedFields(t *testing.T) {
	f := &Frame{Kind: KindForward, Path: make([]overlay.NodeID, maxPathLen+1)}
	if _, err := f.Encode(); !errors.Is(err, ErrFieldTooLong) {
		t.Fatalf("oversized path: got %v, want ErrFieldTooLong", err)
	}
	h := &Frame{Kind: Kind(200)}
	if _, err := h.Encode(); !errors.Is(err, ErrBadKind) {
		t.Fatalf("bad kind: got %v, want ErrBadKind", err)
	}
}

// TestEncodeRejectsBadReason checks Encode refuses a reason that does not
// fit its kind, as the decoder does: a NACK must say why it failed, and
// a FORWARD or CONFIRM carries no reason.
func TestEncodeRejectsBadReason(t *testing.T) {
	for _, tc := range []struct {
		kind   Kind
		reason transport.NackReason
		ok     bool
	}{
		{KindNack, transport.NackDeparted, true},
		{KindNack, transport.NackContract, true},
		{KindNack, transport.NackNone, false},
		{KindNack, transport.NackContract + 1, false},
		{KindForward, transport.NackNone, true},
		{KindForward, transport.NackContract, false},
		{KindConfirm, transport.NackDeparted, false},
	} {
		_, err := (&Frame{Kind: tc.kind, Reason: tc.reason}).Encode()
		if tc.ok != (err == nil) || !tc.ok && !errors.Is(err, ErrBadReason) {
			t.Errorf("%s with reason %d: err %v, want ok=%v or ErrBadReason", tc.kind, tc.reason, err, tc.ok)
		}
	}
}

// TestTraceContextExtension pins the trace-context wire forms: the tail
// round-trips on every eligible kind, absence encodes nothing, and the
// non-canonical encodings — a present-but-zero tail, or a partial tail —
// are rejected rather than silently re-encoded differently.
func TestTraceContextExtension(t *testing.T) {
	for _, kind := range []Kind{KindHello, KindHelloAck, KindForward, KindConfirm, KindNack, KindSettle} {
		f := &Frame{Kind: kind, Trace: 0xdeadbeefcafe0001, Span: 0x0123456789abcdef}
		if kind == KindNack {
			f.Reason = transport.NackContract
		}
		buf, err := f.Encode()
		if err != nil {
			t.Fatalf("%v: encode: %v", kind, err)
		}
		g, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", kind, err)
		}
		if g.Trace != f.Trace || g.Span != f.Span {
			t.Fatalf("%v: trace context mangled: %+v", kind, g)
		}
		bare, err := (&Frame{Kind: kind, Reason: f.Reason}).Encode()
		if err != nil {
			t.Fatalf("%v: bare encode: %v", kind, err)
		}
		if len(buf) != len(bare)+traceTailSize {
			t.Fatalf("%v: tail is %d bytes, want %d", kind, len(buf)-len(bare), traceTailSize)
		}
	}

	// A zero tail on a fixed-layout kind: length says "extension present",
	// content says "absent" — re-encoding would drop it, so reject.
	settle := &Frame{Kind: KindSettle, Batch: 1, Payoff: 5}
	buf, err := settle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	zeroTail := append(append([]byte(nil), buf...), make([]byte, traceTailSize)...)
	binary.BigEndian.PutUint32(zeroTail, uint32(len(zeroTail)-4))
	if _, err := DecodeFrame(zeroTail); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("zero settle tail: got %v, want ErrEmptyTrace", err)
	}

	// A partial tail is a short frame, not a smaller extension.
	halfTail := append(append([]byte(nil), buf...), make([]byte, 8)...)
	binary.BigEndian.PutUint32(halfTail, uint32(len(halfTail)-4))
	if _, err := DecodeFrame(halfTail); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("half settle tail: got %v, want ErrShortFrame", err)
	}

	// flagTrace set with an all-zero tail on a message kind: same
	// canonicality argument, same rejection.
	msg := &Frame{Kind: KindForward, Batch: 3, Attempt: 8, Responder: 5, Remaining: 4}
	mbuf, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	traced := append(append([]byte(nil), mbuf...), make([]byte, traceTailSize)...)
	traced[4+2+72] |= flagTrace
	binary.BigEndian.PutUint32(traced, uint32(len(traced)-4))
	if _, err := DecodeFrame(traced); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("zero message tail: got %v, want ErrEmptyTrace", err)
	}

	// flagTrace set but no tail bytes: short frame.
	flagOnly := append([]byte(nil), mbuf...)
	flagOnly[4+2+72] |= flagTrace
	if _, err := DecodeFrame(flagOnly); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("flag without tail: got %v, want ErrShortFrame", err)
	}
}
