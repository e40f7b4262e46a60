package netwire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/transport"
	"p2panon/internal/wire"
)

// bigClaim is a claim frame whose body sits just under MaxFrameSize — far
// past any read-ahead buffer.
func bigClaim(t testing.TB) *Frame {
	t.Helper()
	claim := payment.AggregateClaim{Forwarder: 7, Entries: make([]payment.AggEntry, 65530)}
	for i := range claim.Entries {
		claim.Entries[i] = payment.AggEntry{Conn: i / 8, Hop: i % 8}
	}
	f := &Frame{Kind: KindClaim, Batch: 3, AggClaim: &claim}
	if n := len(mustEncode(t, f)) - wire.PrefixSize; n > MaxFrameSize || n < MaxFrameSize-1024 {
		t.Fatalf("claim body %d bytes, want just under %d", n, MaxFrameSize)
	}
	return f
}

// TestFrameStreamBoundaries feeds one byte stream — random frames of every
// kind, then a forward with the longest path the codec takes, a near-cap
// claim and a small frame — through the frame reader under every
// segmentation a TCP stream can produce: all frames coalesced into one
// segment, one byte per Read, and read-ahead buffers small enough that
// frames straddle their end. Frame boundaries are a property of the bytes,
// never of how they arrived. The reader's path buffer never keeps more
// than an honest path needs, whatever path a frame carried.
func TestFrameStreamBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var frames []*Frame
	for i := 0; i < 40; i++ {
		frames = append(frames, randomFrame(t, rng, Kind(1+i%int(kindEnd-1))))
	}
	long := forwardFrame(t, false)
	long.Path = make([]overlay.NodeID, maxPathLen)
	frames = append(frames, long, bigClaim(t), &Frame{Kind: KindProbe, Nonce: 5})
	var all []byte
	var ends []int
	for _, f := range frames {
		var err error
		if all, err = f.AppendTo(all); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(all))
	}
	sources := map[string]func() io.Reader{
		"coalesced":     func() io.Reader { return bytes.NewReader(all) },
		"byte per read": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(all)) },
		"half reads":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(all)) },
	}
	for name, src := range sources {
		for _, size := range []int{wire.HeadSize, 7, 64, 100, connBuf} {
			s := envelope.NewStream(src(), size)
			var f Frame
			var path []overlay.NodeID
			start := 0
			for i, end := range ends {
				n, err := readFrame(s, &f, &path)
				if err != nil || n != end-start {
					t.Fatalf("%s, buffer %d, frame %d (%s): n=%d want %d, err=%v", name, size, i, frames[i].Kind, n, end-start, err)
				}
				if !bytes.Equal(mustEncode(t, &f), all[start:end]) {
					t.Fatalf("%s, buffer %d, frame %d (%s): decoded frame re-encodes differently", name, size, i, frames[i].Kind)
				}
				if cap(path) > maxKeptPath {
					t.Fatalf("%s, buffer %d, frame %d (%s): reader keeps a %d-entry path buffer, want <= %d", name, size, i, frames[i].Kind, cap(path), maxKeptPath)
				}
				start = end
			}
			if _, err := readFrame(s, &f, &path); err != io.EOF {
				t.Fatalf("%s, buffer %d: after the last frame: %v, want io.EOF", name, size, err)
			}
		}
	}
}

// TestFrameStreamEOF cuts a stream at every offset of its second frame:
// a clean end between frames is io.EOF, an end inside the length prefix is
// io.ErrUnexpectedEOF, and an end anywhere behind it is a "frame body"
// error wrapping io.ErrUnexpectedEOF — whatever read-ahead was buffered
// when the stream ended, and the same through ReadFrame.
func TestFrameStreamEOF(t *testing.T) {
	first := mustEncode(t, &Frame{Kind: KindProbe, Nonce: 1})
	second := mustEncode(t, &Frame{Kind: KindForward, Batch: 2, Conn: 1, Attempt: 1, Responder: 9, Remaining: 3,
		Path: []overlay.NodeID{0, 4}})
	check := func(t *testing.T, cut int, err error) {
		t.Helper()
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("cut at a frame boundary: %v, want io.EOF", err)
			}
		case cut < wire.PrefixSize:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("cut %d bytes into the prefix: %v, want io.ErrUnexpectedEOF", cut, err)
			}
		default:
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "frame body") {
				t.Fatalf("cut %d bytes into the frame: %v, want a frame body error wrapping io.ErrUnexpectedEOF", cut, err)
			}
		}
	}
	for cut := 0; cut < len(second); cut++ {
		data := append(append([]byte(nil), first...), second[:cut]...)
		for _, size := range []int{wire.HeadSize, 16, connBuf} {
			s := envelope.NewStream(bytes.NewReader(data), size)
			var f Frame
			if _, err := readFrame(s, &f, nil); err != nil {
				t.Fatalf("cut %d, buffer %d: first frame: %v", cut, size, err)
			}
			n, err := readFrame(s, &f, nil)
			check(t, cut, err)
			if want := min(cut, wire.HeadSize); n > want {
				t.Fatalf("cut %d, buffer %d: %d bytes reported consumed of a frame with %d present", cut, size, n, cut)
			}
		}
		_, _, err := ReadFrame(bytes.NewReader(second[:cut]))
		check(t, cut, err)
	}
}

// forwardFrame is the frame the allocation pins measure: a 3-hop forward
// as the benchmark's workloads relay it, trace context included.
func forwardFrame(t testing.TB, contract bool) *Frame {
	f := &Frame{
		Kind: KindForward, Batch: 12, Conn: 3, Attempt: 1, From: 4, Initiator: 1, Responder: 9,
		Remaining: 2, Hop: 3, Path: []overlay.NodeID{1, 6, 4}, DeadlineMicros: 150000,
		Trace: 0xfeed, Span: 0xbeef,
	}
	if contract {
		f.Contract = testContract(t, 12)
		f.Records = []onion.PathRecord{{Sealed: make([]byte, 48)}, {Sealed: make([]byte, 48)}}
	}
	return f
}

// TestAppendToWarmAllocsZero pins the write side: encoding into a buffer
// that already has room — what a link's writer does for every frame after
// its first — allocates nothing, signed contract and path records
// included, and a claim frame's aggregate claim is appended in place.
func TestAppendToWarmAllocsZero(t *testing.T) {
	for name, f := range map[string]*Frame{
		"forward":               forwardFrame(t, false),
		"forward with contract": forwardFrame(t, true),
		"claim":                 claimFrame(10),
	} {
		buf := mustEncode(t, f)
		if allocs := testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = f.AppendTo(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("AppendTo into a warm buffer (%s): %v allocs, want 0", name, allocs)
		}
	}
}

// TestNackSendAllocsZero pins the send side of a NACK: rendering a
// departure NACK as a frame and encoding it into a warm buffer, as
// Cluster.Send does, allocates nothing — its reason and subject are a
// byte and a fixed-width field, not text.
func TestNackSendAllocsZero(t *testing.T) {
	m := transport.Message{
		Kind: transport.MsgNack, Reason: transport.NackDeparted, From: 123,
		Batch: 1, Conn: 2, Attempt: 3, Initiator: 0, Responder: 9,
		Path: []overlay.NodeID{0, 4, 5}, Hop: 2, Trace: 7, Span: 8,
	}
	f := frameOf(&m)
	buf := mustEncode(t, &f)
	if allocs := testing.AllocsPerRun(200, func() {
		f := frameOf(&m)
		var err error
		if buf, err = f.AppendTo(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("frameOf + AppendTo of a departure NACK: %v allocs, want 0", allocs)
	}
	if g, err := DecodeFrame(buf); err != nil || g.Reason != transport.NackDeparted || g.From != 123 {
		t.Fatalf("encoded NACK decodes to %+v, %v", g, err)
	}
}

// loop replays one byte string forever, one Read per call of whatever
// fits — a socket that always has the next frames waiting.
type loop struct {
	wire []byte
	off  int
}

func (l *loop) Read(p []byte) (int, error) {
	n := copy(p, l.wire[l.off:])
	l.off = (l.off + n) % len(l.wire)
	return n, nil
}

// TestFrameStreamSteadyStateAllocs pins the read side: a frame that fits
// the read-ahead buffer is decoded in place, its Path into the reader's
// own buffer, so a buffered frame allocates nothing — a NACK's reason is
// one byte.
func TestFrameStreamSteadyStateAllocs(t *testing.T) {
	nack := forwardFrame(t, false)
	nack.Kind, nack.Reason, nack.From = KindNack, transport.NackDeparted, 7
	for _, tc := range []struct {
		name string
		f    *Frame
		max  float64
	}{
		{"forward", forwardFrame(t, false), 0},
		{"nack with reason", nack, 0},
		{"settle", &Frame{Kind: KindSettle, Batch: 12, Payoff: 1.5, Trace: 1, Span: 2}, 0},
	} {
		s := envelope.NewStream(&loop{wire: mustEncode(t, tc.f)}, connBuf)
		var f Frame
		var path []overlay.NodeID
		if allocs := testing.AllocsPerRun(500, func() {
			if _, err := readFrame(s, &f, &path); err != nil {
				t.Fatal(err)
			}
		}); allocs > tc.max {
			t.Errorf("%s: %v allocs per buffered frame read, want <= %v", tc.name, allocs, tc.max)
		}
		if f.Kind != tc.f.Kind || f.Batch != tc.f.Batch || len(f.Path) != len(tc.f.Path) || f.Reason != tc.f.Reason || f.From != tc.f.From {
			t.Errorf("%s: last frame read is not the frame written: %+v", tc.name, f)
		}
	}
}

// ReadFrame reads exactly one frame from r — nothing past it, so frames
// can be read off one stream call by call — returning it with the total
// bytes consumed.
func ReadFrame(r io.Reader) (*Frame, int, error) {
	f := new(Frame)
	n, err := readFrame(envelope.NewStream(r, wire.HeadSize), f, nil)
	if err != nil {
		return nil, n, err
	}
	return f, n, nil
}
