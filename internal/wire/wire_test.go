package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// testEnvelope has one fixed-layout kind (1: an 8-byte payload) and one
// variable kind (2) bounded only by Max.
var testEnvelope = Envelope{
	Version: 3,
	Max:     1 << 16,
	Cap: func(k byte) int {
		switch k {
		case 1:
			return 2 + 8
		case 2:
			return 1 << 16
		}
		return -1
	},
}

// frame builds one frame of testEnvelope with the given payload.
func frame(t testing.TB, kind byte, payload []byte) []byte {
	t.Helper()
	out := append(testEnvelope.Begin(nil, kind), payload...)
	if err := testEnvelope.End(out, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestReaderRoundTrip(t *testing.T) {
	b := AppendU16(nil, 0xbeef)
	b = AppendU32(b, 1<<31)
	b = AppendU64(b, 1<<63)
	b = AppendI64(b, -7)
	var err error
	if b, err = AppendBytes16(b, "reason", 8); err != nil {
		t.Fatal(err)
	}
	if b, err = AppendBytes32(b, []byte{}, 8); err != nil {
		t.Fatal(err)
	}
	b = append(b, 9)
	r := NewReader(b)
	if r.U16() != 0xbeef || r.U32() != 1<<31 || r.U64() != 1<<63 || r.I64() != -7 ||
		r.String16(8) != "reason" || len(r.Bytes32(8)) != 0 || r.U8() != 9 {
		t.Fatal("values did not survive the round trip")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderLatchesFirstError: the first malformation wins, later reads
// return zero values without overwriting it, and Done reports trailing
// bytes only on an otherwise clean read.
func TestReaderLatchesFirstError(t *testing.T) {
	b, _ := AppendBytes16(nil, "too long", 100)
	b = AppendU64(b, 42)
	r := NewReader(b)
	if got := r.Bytes16(4); got != nil {
		t.Fatalf("over-cap field returned %q", got)
	}
	if r.U64() != 0 || r.Take(0) != nil || r.Len() != 0 {
		t.Fatal("reads after a latched error must return zero values")
	}
	r.Check(false, io.EOF)
	if err := r.Done(); !errors.Is(err, ErrField) {
		t.Fatalf("Done = %v, want the first error, ErrField", err)
	}

	r = NewReader([]byte{1, 2, 3})
	r.U16()
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Done with a byte left = %v, want ErrTrailing", err)
	}
	r.U16()
	if err := r.Done(); !errors.Is(err, ErrShort) {
		t.Fatalf("Done after a short read = %v, want ErrShort", err)
	}

	if _, err := AppendBytes32(nil, "abc", 2); !errors.Is(err, ErrField) {
		t.Fatalf("AppendBytes32 over its cap: %v, want ErrField", err)
	}
}

// TestEnvelopeBody walks the envelope's checks in the order every reader
// reports them: prefix, global bound, declared length, trailing bytes,
// then the body's length, version, kind and the kind's cap.
func TestEnvelopeBody(t *testing.T) {
	valid := frame(t, 1, make([]byte, 8))
	// A kind-2 frame with a 9-byte payload relabelled as kind 1: a legal
	// length globally, one byte past kind 1's cap.
	fat := frame(t, 2, make([]byte, 9))
	fat[PrefixSize+1] = 1
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"valid", valid, nil},
		{"short prefix", valid[:3], ErrShort},
		{"declared past Max", []byte{0, 1, 0, 1}, ErrOversized},
		{"truncated body", valid[:len(valid)-1], ErrShort},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), ErrTrailing},
		{"body without prologue", []byte{0, 0, 0, 1, 3}, ErrShort},
		{"bad version", []byte{0, 0, 0, 2, 4, 1}, ErrVersion},
		{"unknown kind", []byte{0, 0, 0, 2, 3, 9}, ErrKind},
		{"fixed kind past its cap", fat, ErrOversized},
	}
	for _, tc := range cases {
		body, err := testEnvelope.Body(tc.data)
		if !errors.Is(err, tc.want) || (err == nil && !bytes.Equal(body, tc.data[PrefixSize:])) {
			t.Errorf("%s: body %x, err %v; want %v", tc.name, body, err, tc.want)
		}
	}
}

// TestStreamKeepsItsBuffer: a stream decodes frames of every size through
// one buffer that never grows or is replaced — a body past it is a
// one-off allocation — and a hostile prefix is refused from the peeked
// prologue before anything is sized after it.
func TestStreamKeepsItsBuffer(t *testing.T) {
	small := frame(t, 1, []byte("8 bytes."))
	big := frame(t, 2, bytes.Repeat([]byte{7}, 100))
	all := append(append(append([]byte(nil), small...), big...), small...)
	for _, src := range []io.Reader{bytes.NewReader(all), iotest.OneByteReader(bytes.NewReader(all))} {
		s := testEnvelope.NewStream(src, 16)
		own := &s.buf[0]
		for i, want := range [][]byte{small, big, small} {
			body, n, err := s.Next()
			if err != nil || n != len(want) || !bytes.Equal(body, want[PrefixSize:]) {
				t.Fatalf("frame %d: n=%d err=%v", i, n, err)
			}
		}
		if _, _, err := s.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
		if &s.buf[0] != own || len(s.buf) != 16 {
			t.Fatalf("stream buffer replaced or resized (now %d bytes)", len(s.buf))
		}
	}

	// A kind-1 prologue declaring the global maximum.
	hostile := append([]byte{0, 1, 0, 0, 3, 1}, make([]byte, 64)...)
	s := testEnvelope.NewStream(bytes.NewReader(hostile), 16)
	own := &s.buf[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := s.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrOversized) || n != HeadSize {
		t.Fatalf("hostile prefix: n=%d err=%v, want %d and ErrOversized", n, err, HeadSize)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<15 {
		t.Fatalf("hostile prefix made the stream allocate %d bytes", grew)
	}
	if &s.buf[0] != own {
		t.Fatal("hostile prefix replaced the stream's buffer")
	}
}

// TestStreamHeadSizeReadsOneFrame: with a HeadSize buffer, Next consumes
// exactly one frame's bytes from its source and not one more.
func TestStreamHeadSizeReadsOneFrame(t *testing.T) {
	first := frame(t, 2, []byte("first frame"))
	second := frame(t, 1, []byte("second.."))
	src := bytes.NewReader(append(append([]byte(nil), first...), second...))
	if _, n, err := testEnvelope.NewStream(src, HeadSize).Next(); err != nil || n != len(first) {
		t.Fatalf("first frame: n=%d err=%v", n, err)
	}
	if src.Len() != len(second) {
		t.Fatalf("%d bytes left behind the first frame, want %d", src.Len(), len(second))
	}
	body, _, err := testEnvelope.NewStream(src, HeadSize).Next()
	if err != nil || !bytes.Equal(body, second[PrefixSize:]) {
		t.Fatalf("second frame: %x %v", body, err)
	}
}
