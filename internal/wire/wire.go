// Package wire is the one codec primitive under the repository's three
// binary formats — netwire's protocol frames, clusterd's barrier messages
// and payment's tokens, receipts and aggregate claims: a cursor over an
// encoded value with a sticky first error (Reader), big-endian and capped
// length-prefixed appenders (Append*), and the frame envelope that netwire
// and clusterd share (Envelope):
//
//	frame := length(4, big-endian) body
//	body  := version(1) kind(1) payload
//
// Every format built on it is canonical — a valid byte string decodes to
// exactly one value and re-encodes to the same bytes — which is why each
// decoder rejects truncation, trailing bytes and fields past their caps
// with the errors below rather than guessing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The malformations every format here shares. Each protocol package
// re-exports them under its own names, so errors.Is works on either.
var (
	ErrShort     = errors.New("wire: buffer too short")
	ErrTrailing  = errors.New("wire: trailing bytes after payload")
	ErrVersion   = errors.New("wire: unsupported protocol version")
	ErrKind      = errors.New("wire: unknown kind")
	ErrOversized = errors.New("wire: body exceeds its size cap")
	ErrField     = errors.New("wire: field out of range")
	ErrCount     = errors.New("wire: entry count out of range")
)

// Reader is a cursor over one encoded value. Reads never fail on their
// own: the first malformation latches, every later read returns a zero
// value, and Done reports it — so a decoder reads its fields in order and
// checks once, and the error it returns is always the first one.
type Reader struct {
	rest []byte // the bytes not yet read; nil once an error latched
	err  error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{rest: b} }

// Err returns the first error latched so far.
func (r *Reader) Err() error { return r.err }

// Len returns the bytes not yet read.
func (r *Reader) Len() int { return len(r.rest) }

// Fail latches err unless an earlier error already latched.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.rest = err, nil
	}
}

// Check latches err unless ok holds.
func (r *Reader) Check(ok bool, err error) {
	if !ok {
		r.Fail(err)
	}
}

// Done returns the first latched error, or ErrTrailing if the value was
// read without error but bytes remain behind it.
func (r *Reader) Done() error {
	if len(r.rest) > 0 {
		return ErrTrailing
	}
	return r.err
}

// Take returns the next n bytes as a window into the buffer (callers copy
// what they keep), or nil after latching ErrShort when fewer remain. It
// and the integer reads below inline, so a decoder pays no call per field.
func (r *Reader) Take(n int) (b []byte) {
	if n <= len(r.rest) {
		b, r.rest = r.rest[:n], r.rest[n:]
	} else if r.err == nil {
		r.err, r.rest = ErrShort, nil
	}
	return b
}

// U8, U16, U32, U64 and I64 read one big-endian integer, zero once an
// error has latched.
func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() int {
	if b := r.Take(2); b != nil {
		return int(binary.BigEndian.Uint16(b))
	}
	return 0
}

func (r *Reader) U32() int {
	if b := r.Take(4); b != nil {
		return int(binary.BigEndian.Uint32(b))
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bytes16 reads a u16 length-prefixed field of at most max bytes, as a
// window into the buffer; a longer field latches ErrField.
func (r *Reader) Bytes16(max int) []byte { return r.field(r.U16(), max) }

// Bytes32 is Bytes16 behind a u32 length prefix.
func (r *Reader) Bytes32(max int) []byte { return r.field(r.U32(), max) }

// String16 is Bytes16 copied out as a string.
func (r *Reader) String16(max int) string { return string(r.Bytes16(max)) }

func (r *Reader) field(n, max int) []byte {
	r.Check(n <= max, ErrField)
	return r.Take(n)
}

// AppendU16 and its siblings are the encoding/binary appenders over the
// int widths the formats use.
func AppendU16(dst []byte, v int) []byte    { return binary.BigEndian.AppendUint16(dst, uint16(v)) }
func AppendU32(dst []byte, v int) []byte    { return binary.BigEndian.AppendUint32(dst, uint32(v)) }
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func AppendI64(dst []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(dst, uint64(v)) }

// AppendBytes16 appends b behind a u16 length prefix, refusing with
// ErrField a field of more than max bytes — the encoder's half of
// Reader.Bytes16, so nothing encodable fails to decode.
func AppendBytes16[T ~string | ~[]byte](dst []byte, b T, max int) ([]byte, error) {
	if len(b) > max {
		return dst, ErrField
	}
	return append(AppendU16(dst, len(b)), b...), nil
}

// AppendBytes32 is AppendBytes16 behind a u32 length prefix.
func AppendBytes32[T ~string | ~[]byte](dst []byte, b T, max int) ([]byte, error) {
	if len(b) > max {
		return dst, ErrField
	}
	return append(AppendU32(dst, len(b)), b...), nil
}

// PrefixSize is the frame's length prefix; HeadSize adds the version/kind
// prologue — all a reader needs to validate the prefix before it trusts it.
const (
	PrefixSize = 4
	HeadSize   = PrefixSize + 2
)

// Envelope is one protocol's framing rules: its version byte, the bound
// on any body (what a length prefix may declare at all), and the largest
// body — version, kind and payload — each kind may occupy, where Cap
// returns a negative size for a kind the protocol does not have. All
// three are constants of a protocol's format, never settings.
type Envelope struct {
	Version byte
	Max     int
	Cap     func(kind byte) int
}

// Begin appends a frame's placeholder prefix and its prologue to dst; the
// caller appends the payload behind them and calls End.
func (e *Envelope) Begin(dst []byte, kind byte) []byte {
	return append(dst, 0, 0, 0, 0, e.Version, kind)
}

// End patches the length prefix of the frame Begin started at offset
// start of frame, refusing a body past the global bound. (An encoder
// that honours its field caps cannot exceed a fixed-layout kind's cap.)
func (e *Envelope) End(frame []byte, start int) error {
	n := len(frame) - start - PrefixSize
	if n > e.Max {
		return ErrOversized
	}
	binary.BigEndian.PutUint32(frame[start:], uint32(n))
	return nil
}

// check validates a body's prologue against the body length n: head holds
// the body's first min(n, 2) bytes. The order — length, version, kind,
// the kind's cap — is the order every reader reports failures in.
func (e *Envelope) check(head []byte, n int) error {
	switch {
	case n < 2:
		return fmt.Errorf("%w: body %d bytes, need 2", ErrShort, n)
	case head[0] != e.Version:
		return fmt.Errorf("%w: got %d, speak %d", ErrVersion, head[0], e.Version)
	}
	max := e.Cap(head[1])
	if max < 0 {
		return fmt.Errorf("%w: %d", ErrKind, head[1])
	}
	if n > max {
		return fmt.Errorf("%w: kind %d body %d bytes > %d", ErrOversized, head[1], n, max)
	}
	return nil
}

// Check validates a complete body — version, kind and payload, no prefix.
func (e *Envelope) Check(body []byte) error { return e.check(body, len(body)) }

// Body returns the body of the one frame data holds, prefix included:
// anything short of the frame its prefix declares, or past it, is an
// error, and so is a body Check refuses.
func (e *Envelope) Body(data []byte) ([]byte, error) {
	if len(data) < PrefixSize {
		return nil, fmt.Errorf("%w: %d bytes, need %d for the length prefix", ErrShort, len(data), PrefixSize)
	}
	n := binary.BigEndian.Uint32(data)
	if n > uint32(e.Max) {
		return nil, fmt.Errorf("%w: declared body %d bytes > %d", ErrOversized, n, e.Max)
	}
	body := data[PrefixSize:]
	if len(body) < int(n) {
		return nil, fmt.Errorf("%w: declared body %d bytes, %d present", ErrShort, n, len(body))
	}
	if len(body) > int(n) {
		return nil, ErrTrailing
	}
	return body, e.Check(body)
}

// Stream reads the frames of one byte stream through a read-ahead buffer:
// a frame that fits the buffer costs at most one Read of the source and
// its body is handed out in place. With a buffer of just HeadSize bytes it
// reads no further than the frame it returns, so frames can be taken off
// a shared stream call by call.
type Stream struct {
	e    *Envelope
	src  io.Reader
	buf  []byte // buf[r:w] is read but not yet consumed
	r, w int
}

// NewStream reads e's frames from src through a size-byte buffer; size
// must be at least HeadSize.
func (e *Envelope) NewStream(src io.Reader, size int) *Stream {
	return &Stream{e: e, src: src, buf: make([]byte, size)}
}

// fill reads from the source into dst[have:] until dst holds at least n
// bytes, returning how many it holds. Like io.ReadFull it reports io.EOF
// only at a clean boundary — have == 0 and nothing more to come.
func (s *Stream) fill(dst []byte, have, n int) (int, error) {
	m, err := io.ReadAtLeast(s.src, dst[have:], n-have)
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return have + m, err
}

// peek returns the next n <= len(buf) unconsumed bytes, reading from the
// source only when fewer are buffered.
func (s *Stream) peek(n int) (b []byte, err error) {
	if s.w-s.r < n {
		s.w, s.r = copy(s.buf, s.buf[s.r:s.w]), 0
		if s.w, err = s.fill(s.buf, s.w, n); err != nil {
			return nil, err
		}
	}
	return s.buf[s.r : s.r+n], nil
}

// Next reads one frame and returns its body with the bytes consumed. The
// body is valid until the next call: it may be a window of the stream's
// buffer. The length prefix is only trusted after validation — the
// global bound first, then the prologue is peeked and the declared length
// checked against the kind's cap — all BEFORE a body that does not fit
// the buffer is allocated, so a hostile prefix cannot force a large
// allocation for a small-payload kind. Such a body is a one-off
// allocation: the buffer never grows, so a large frame does not stay
// pinned to its stream. io.EOF means the stream ended between frames; an
// end inside the prefix is io.ErrUnexpectedEOF, and one behind it a
// "frame body" error wrapping io.ErrUnexpectedEOF.
func (s *Stream) Next() (body []byte, consumed int, err error) {
	hdr, err := s.peek(PrefixSize)
	if err != nil {
		return nil, 0, err
	}
	declared := binary.BigEndian.Uint32(hdr)
	if declared > uint32(s.e.Max) {
		return nil, PrefixSize, fmt.Errorf("%w: declared body %d bytes > %d", ErrOversized, declared, s.e.Max)
	}
	n := int(declared)
	head, err := s.peek(PrefixSize + min(n, 2))
	if err != nil {
		return nil, PrefixSize, fmt.Errorf("wire: frame body: %w", err)
	}
	if err := s.e.check(head[PrefixSize:], n); err != nil {
		return nil, len(head), err
	}
	s.r += PrefixSize
	if n <= len(s.buf) {
		body, err = s.peek(n)
		s.r += len(body)
	} else {
		body = make([]byte, n)
		have := copy(body, s.buf[s.r:s.w])
		s.r, s.w = 0, 0
		_, err = s.fill(body, have, n)
	}
	if err != nil {
		return nil, HeadSize, fmt.Errorf("wire: frame body: %w", err)
	}
	return body, PrefixSize + n, nil
}
