// Package netwire is the socket-backed sibling of package transport: the
// same forwarding protocol — FORWARD out, CONFIRM/NACK back along the
// reverse path, bounded-retry path reformation — run by the same
// transport.Driver, but carried over real TCP connections with a
// length-prefixed, versioned frame codec instead of in-process channels.
// The package holds only what is socket about that: listeners, per-peer
// links, the handshake, the Frame ↔ transport.Message conversion at the
// read/write boundary, and the probe/settle/claim frames. A
// netwire.Cluster implements transport.Conductor, so the experiment
// drivers, churn hooks and the backend-conformance suite run unchanged
// over either backend.
//
// The wire protocol (DESIGN.md §3e):
//
//	frame   := length(4, big-endian) body
//	body    := version(1) kind(1) payload
//
// where length counts the body bytes and is capped at MaxFrameSize. Every
// payload layout is canonical: a valid byte string decodes to exactly one
// frame and re-encodes to the same bytes, so frames can be compared and
// deduplicated by encoding (the same property the payment wire codecs
// guarantee, enforced here by FuzzFrameWire).
package netwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/telemetry"

	"crypto/ecdh"
)

// Version is the wire-protocol version this codec speaks. A frame with
// any other version is rejected at decode — the dialer learns about the
// mismatch from the handshake failing.
const Version = 1

// MaxFrameSize bounds a frame body (version + kind + payload). It keeps a
// hostile length prefix from asking the reader for gigabytes.
const MaxFrameSize = 1 << 20

// frameHeaderSize is the length prefix in bytes; frameHeadSize adds the
// version/kind prologue, all a reader needs to validate the prefix.
const (
	frameHeaderSize = 4
	frameHeadSize   = frameHeaderSize + 2
)

// Field caps inside a message payload. Paths and records are bounded by
// the hop budget in practice; the caps only guard the decoder.
const (
	maxPathLen    = 4096
	maxReasonLen  = 4096
	maxRecords    = 4096
	maxRecordLen  = 4096
	maxKeyLen     = 128
	maxSigLen     = 256
	flagFatal     = 1 << 0
	flagContract  = 1 << 1
	flagTrace     = 1 << 2
	flagKnownMask = flagFatal | flagContract | flagTrace
)

// traceTailSize is the trace-context extension: trace id + parent span
// id, 8 bytes each. On the message kinds its presence is signalled by
// flagTrace; on the fixed-layout kinds that carry it (hello/hello_ack,
// settle) by the body length alone.
const traceTailSize = 16

// Kind discriminates frame payloads.
type Kind uint8

// Frame kinds. Hello/HelloAck are the per-connection handshake; Forward,
// Confirm and Nack mirror transport's message kinds; Probe/ProbeAck are
// the liveness ping the connection manager uses; Settle carries a batch's
// split payment (m·P_f + P_r/‖π‖) to a forwarder after settlement; Claim
// carries a forwarder's rolled-up aggregate claim (payment.AggregateClaim)
// to the settlement point — 16 bytes per forwarding instance instead of a
// 56-byte receipt each.
const (
	KindHello Kind = iota + 1
	KindHelloAck
	KindForward
	KindConfirm
	KindNack
	KindProbe
	KindProbeAck
	KindSettle
	KindClaim
	kindEnd
)

// BodyCap returns the largest body (version byte, kind byte and payload)
// a canonical frame of the given kind can occupy, or -1 for an unknown
// kind. Fixed-layout kinds have exact sizes; the message kinds' field
// caps sum past MaxFrameSize, so the global cap is their bound. Both
// DecodeFrame and ReadFrame enforce it — ReadFrame before allocating the
// body, so a corrupt or malicious peer cannot make a reader allocate
// MaxFrameSize bytes for a frame kind whose payload is 8 bytes.
func BodyCap(k Kind) int {
	switch k {
	case KindHello, KindHelloAck:
		return 2 + 8 + 8 + traceTailSize // node + nonce + optional trace context
	case KindProbe, KindProbeAck:
		return 2 + 8 // nonce
	case KindSettle:
		return 2 + 5*8 + traceTailSize // batch, node, set size, forwards, payoff + optional trace context
	case KindForward, KindConfirm, KindNack, KindClaim:
		return MaxFrameSize
	default:
		return -1
	}
}

// String names the kind for metrics labels and logs.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindHelloAck:
		return "hello_ack"
	case KindForward:
		return "forward"
	case KindConfirm:
		return "confirm"
	case KindNack:
		return "nack"
	case KindProbe:
		return "probe"
	case KindProbeAck:
		return "probe_ack"
	case KindSettle:
		return "settle"
	case KindClaim:
		return "claim"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Codec errors.
var (
	ErrShortFrame   = errors.New("netwire: frame buffer too short")
	ErrBadVersion   = errors.New("netwire: unsupported frame version")
	ErrBadKind      = errors.New("netwire: unknown frame kind")
	ErrOversized    = errors.New("netwire: frame exceeds size cap")
	ErrTrailingData = errors.New("netwire: trailing bytes after frame payload")
	ErrBadFlags     = errors.New("netwire: unknown flag bits set")
	ErrFieldTooLong = errors.New("netwire: field exceeds its cap")
	ErrBadKey       = errors.New("netwire: malformed contract key")
	ErrEmptyTrace   = errors.New("netwire: trace-context extension present but all-zero")
)

// Frame is the decoded form of one wire frame. Which fields are
// meaningful depends on Kind; Encode only serialises the fields its kind
// defines, so unused fields never reach the wire.
type Frame struct {
	Kind Kind

	// Hello/HelloAck: the speaker's node ID and a handshake nonce.
	// Probe/ProbeAck reuse Nonce as the echo token.
	Node  overlay.NodeID
	Nonce uint64

	// Forward/Confirm/Nack: the protocol message, mirroring
	// transport.Message field for field. Attempt distinguishes
	// reformation attempts of one connection so a stale confirm cannot
	// resolve a relaunched attempt. DeadlineMicros is the attempt budget
	// remaining at send time in microseconds (0 = none).
	Batch, Conn, Attempt       int
	From, Initiator, Responder overlay.NodeID
	Remaining, Hop             int
	Path                       []overlay.NodeID
	Reason                     string
	Fatal                      bool
	DeadlineMicros             int64
	Contract                   *onion.SignedContract
	Records                    []onion.PathRecord

	// Settle: the initiator's split-payment notice for one batch.
	SetSize, Forwards int
	Payoff            float64

	// Claim: a forwarder's aggregate settlement claim for Batch. The
	// payload embeds payment's canonical claim encoding, so the payment
	// fuzzer's guarantees carry over to the frame.
	AggClaim *payment.AggregateClaim

	// Trace context (optional, any kind except probe/probe_ack): the
	// batch's deterministic trace id and the sender-side span the receiver
	// should parent its own spans under. Zero means "no trace context";
	// the codec never emits the extension for an all-zero pair, and
	// rejects wire forms that carry one, keeping encoding canonical.
	Trace, Span telemetry.SpanID
}

// hasTrace reports whether the frame carries trace context.
func (f *Frame) hasTrace() bool { return f.Trace != 0 || f.Span != 0 }

func appendU16(dst []byte, v int) []byte    { return binary.BigEndian.AppendUint16(dst, uint16(v)) }
func appendU32(dst []byte, v int) []byte    { return binary.BigEndian.AppendUint32(dst, uint32(v)) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(dst, uint64(v)) }

// Encode renders the frame in canonical wire form, length prefix
// included.
func (f *Frame) Encode() ([]byte, error) { return f.AppendTo(nil) }

// AppendTo appends the frame's canonical wire form to dst — the body is
// written straight behind a placeholder prefix and the length patched in,
// so encoding into a buffer with room allocates nothing. On error dst is
// returned unchanged.
func (f *Frame) AppendTo(dst []byte) ([]byte, error) {
	out, err := f.appendBody(append(dst, 0, 0, 0, 0, Version, byte(f.Kind)))
	if err != nil {
		return dst, err
	}
	n := len(out) - len(dst) - frameHeaderSize
	if n > MaxFrameSize {
		return dst, fmt.Errorf("%w: body %d bytes > %d", ErrOversized, n, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(out[len(dst):], uint32(n))
	return out, nil
}

// appendBody appends the kind's payload behind the version/kind prologue
// out already ends in.
func (f *Frame) appendBody(out []byte) ([]byte, error) {
	switch f.Kind {
	case KindHello, KindHelloAck:
		out = appendI64(out, int64(f.Node))
		out = appendU64(out, f.Nonce)
		out = f.appendTraceTail(out)
	case KindForward, KindConfirm, KindNack:
		return f.encodeMessage(out)
	case KindProbe, KindProbeAck:
		out = appendU64(out, f.Nonce)
	case KindSettle:
		out = appendI64(out, int64(f.Batch))
		out = appendI64(out, int64(f.Node))
		out = appendI64(out, int64(f.SetSize))
		out = appendI64(out, int64(f.Forwards))
		out = appendU64(out, math.Float64bits(f.Payoff))
		out = f.appendTraceTail(out)
	case KindClaim:
		if f.AggClaim == nil {
			return nil, errors.New("netwire: claim frame without aggregate claim")
		}
		claim, err := payment.EncodeAggregateClaim(*f.AggClaim)
		if err != nil {
			return nil, fmt.Errorf("netwire: encoding aggregate claim: %w", err)
		}
		out = appendI64(out, int64(f.Batch))
		out = appendU32(out, len(claim))
		out = append(out, claim...)
		out = f.appendTraceTail(out)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, f.Kind)
	}
	return out, nil
}

func (f *Frame) encodeMessage(out []byte) ([]byte, error) {
	for _, v := range []int64{
		int64(f.Batch), int64(f.Conn), int64(f.Attempt),
		int64(f.From), int64(f.Initiator), int64(f.Responder),
		int64(f.Remaining), int64(f.Hop), f.DeadlineMicros,
	} {
		out = appendI64(out, v)
	}
	var flags byte
	if f.Fatal {
		flags |= flagFatal
	}
	if f.Contract != nil {
		flags |= flagContract
	}
	if f.hasTrace() {
		flags |= flagTrace
	}
	out = append(out, flags)
	if len(f.Path) > maxPathLen {
		return nil, fmt.Errorf("%w: path %d nodes", ErrFieldTooLong, len(f.Path))
	}
	out = appendU16(out, len(f.Path))
	for _, id := range f.Path {
		out = appendI64(out, int64(id))
	}
	if len(f.Reason) > maxReasonLen {
		return nil, fmt.Errorf("%w: reason %d bytes", ErrFieldTooLong, len(f.Reason))
	}
	out = appendU16(out, len(f.Reason))
	out = append(out, f.Reason...)
	if c := f.Contract; c != nil {
		if c.BatchPub == nil {
			return nil, ErrBadKey
		}
		pub := c.BatchPub.Bytes()
		if len(pub) > maxKeyLen || len(c.SigPub) > maxKeyLen || len(c.Sig) > maxSigLen {
			return nil, fmt.Errorf("%w: contract keys", ErrFieldTooLong)
		}
		out = appendU64(out, c.BatchID)
		out = appendU64(out, math.Float64bits(c.Pf))
		out = appendU64(out, math.Float64bits(c.Pr))
		out = appendU16(out, len(pub))
		out = append(out, pub...)
		out = appendU16(out, len(c.SigPub))
		out = append(out, c.SigPub...)
		out = appendU16(out, len(c.Sig))
		out = append(out, c.Sig...)
	}
	if len(f.Records) > maxRecords {
		return nil, fmt.Errorf("%w: %d records", ErrFieldTooLong, len(f.Records))
	}
	out = appendU16(out, len(f.Records))
	for _, r := range f.Records {
		if len(r.Sealed) > maxRecordLen {
			return nil, fmt.Errorf("%w: record %d bytes", ErrFieldTooLong, len(r.Sealed))
		}
		out = appendU16(out, len(r.Sealed))
		out = append(out, r.Sealed...)
	}
	out = f.appendTraceTail(out)
	return out, nil
}

// appendTraceTail serialises the trace-context extension when the frame
// carries one; an all-zero pair is "absent" and emits nothing.
func (f *Frame) appendTraceTail(out []byte) []byte {
	if !f.hasTrace() {
		return out
	}
	out = appendU64(out, uint64(f.Trace))
	return appendU64(out, uint64(f.Span))
}

// decodeTraceTail parses the optional trace-context extension on the
// fixed-layout kinds, where its presence is signalled by body length
// alone: if any bytes remain after the kind's base payload, they must be
// exactly the 16-byte tail. A present-but-zero tail is rejected so every
// frame has one canonical encoding.
func (f *Frame) decodeTraceTail(r *frameReader, bodyLen int) error {
	if r.err != nil || r.off == bodyLen {
		return r.err
	}
	f.Trace = telemetry.SpanID(r.u64())
	f.Span = telemetry.SpanID(r.u64())
	if r.err == nil && !f.hasTrace() {
		return ErrEmptyTrace
	}
	return r.err
}

// frameReader is a cursor over one frame body with error-free sequential
// reads; the first failure latches.
type frameReader struct {
	buf []byte
	off int
	err error
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShortFrame, n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *frameReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *frameReader) u16() int {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return int(binary.BigEndian.Uint16(b))
}

func (r *frameReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func (r *frameReader) u32() int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return int(binary.BigEndian.Uint32(b))
}

func (r *frameReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// DecodeFrame parses one complete frame (length prefix included) from
// data, rejecting truncation, bad version, unknown kinds and trailing
// garbage. Accepted input is canonical: re-encoding the result reproduces
// data byte for byte.
func DecodeFrame(data []byte) (*Frame, error) {
	if len(data) < frameHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, need %d for the length prefix", ErrShortFrame, len(data), frameHeaderSize)
	}
	n := binary.BigEndian.Uint32(data)
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: declared body %d bytes > %d", ErrOversized, n, MaxFrameSize)
	}
	if len(data) < frameHeaderSize+int(n) {
		return nil, fmt.Errorf("%w: declared body %d bytes, %d present", ErrShortFrame, n, len(data)-frameHeaderSize)
	}
	if len(data) > frameHeaderSize+int(n) {
		return nil, ErrTrailingData
	}
	f := new(Frame)
	if err := f.decodeBody(data[frameHeaderSize:]); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeBody overwrites f with the frame body encodes. Nothing of f's
// previous value survives, so a reader may decode every frame of a
// connection into one Frame it owns; on error f is unspecified. Nothing
// of body survives in f either — every field kept is copied out — so body
// may be a window of a buffer the next read overwrites.
func (f *Frame) decodeBody(body []byte) error {
	r := &frameReader{buf: body}
	ver := r.u8()
	if r.err != nil {
		return r.err
	}
	if ver != Version {
		return fmt.Errorf("%w: got %d, speak %d", ErrBadVersion, ver, Version)
	}
	*f = Frame{Kind: Kind(r.u8())}
	if max := BodyCap(f.Kind); max >= 0 && len(body) > max {
		return fmt.Errorf("%w: %v body %d bytes > %d", ErrOversized, f.Kind, len(body), max)
	}
	switch f.Kind {
	case KindHello, KindHelloAck:
		f.Node = overlay.NodeID(r.i64())
		f.Nonce = r.u64()
		if err := f.decodeTraceTail(r, len(body)); err != nil {
			return err
		}
	case KindForward, KindConfirm, KindNack:
		if err := f.decodeMessage(r); err != nil {
			return err
		}
	case KindProbe, KindProbeAck:
		f.Nonce = r.u64()
	case KindSettle:
		f.Batch = int(r.i64())
		f.Node = overlay.NodeID(r.i64())
		f.SetSize = int(r.i64())
		f.Forwards = int(r.i64())
		f.Payoff = math.Float64frombits(r.u64())
		if err := f.decodeTraceTail(r, len(body)); err != nil {
			return err
		}
	case KindClaim:
		f.Batch = int(r.i64())
		claimLen := r.u32()
		if r.err == nil && claimLen > MaxFrameSize {
			return fmt.Errorf("%w: claim %d bytes", ErrFieldTooLong, claimLen)
		}
		if b := r.take(claimLen); b != nil {
			claim, err := payment.DecodeAggregateClaim(b)
			if err != nil {
				return fmt.Errorf("netwire: decoding aggregate claim: %w", err)
			}
			f.AggClaim = &claim
		}
		if err := f.decodeTraceTail(r, len(body)); err != nil {
			return err
		}
	default:
		if r.err == nil {
			return fmt.Errorf("%w: %d", ErrBadKind, f.Kind)
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(body) {
		return ErrTrailingData
	}
	return nil
}

func (f *Frame) decodeMessage(r *frameReader) error {
	f.Batch = int(r.i64())
	f.Conn = int(r.i64())
	f.Attempt = int(r.i64())
	f.From = overlay.NodeID(r.i64())
	f.Initiator = overlay.NodeID(r.i64())
	f.Responder = overlay.NodeID(r.i64())
	f.Remaining = int(r.i64())
	f.Hop = int(r.i64())
	f.DeadlineMicros = r.i64()
	flags := r.u8()
	if r.err != nil {
		return r.err
	}
	if flags&^byte(flagKnownMask) != 0 {
		return fmt.Errorf("%w: %#x", ErrBadFlags, flags)
	}
	f.Fatal = flags&flagFatal != 0
	pathLen := r.u16()
	if r.err == nil && pathLen > maxPathLen {
		return fmt.Errorf("%w: path %d nodes", ErrFieldTooLong, pathLen)
	}
	if b := r.take(8 * pathLen); len(b) > 0 {
		f.Path = make([]overlay.NodeID, pathLen)
		for i := range f.Path {
			f.Path[i] = overlay.NodeID(int64(binary.BigEndian.Uint64(b[8*i:])))
		}
	}
	reasonLen := r.u16()
	if r.err == nil && reasonLen > maxReasonLen {
		return fmt.Errorf("%w: reason %d bytes", ErrFieldTooLong, reasonLen)
	}
	if b := r.take(reasonLen); b != nil {
		f.Reason = string(b)
	}
	if flags&flagContract != 0 {
		c := &onion.SignedContract{}
		c.BatchID = r.u64()
		c.Pf = math.Float64frombits(r.u64())
		c.Pr = math.Float64frombits(r.u64())
		pubLen := r.u16()
		if r.err == nil && pubLen > maxKeyLen {
			return fmt.Errorf("%w: contract key %d bytes", ErrFieldTooLong, pubLen)
		}
		pubBytes := r.take(pubLen)
		if r.err == nil {
			pub, err := ecdh.X25519().NewPublicKey(pubBytes)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadKey, err)
			}
			c.BatchPub = pub
		}
		sigPubLen := r.u16()
		if r.err == nil && sigPubLen > maxKeyLen {
			return fmt.Errorf("%w: contract signing key %d bytes", ErrFieldTooLong, sigPubLen)
		}
		if b := r.take(sigPubLen); b != nil {
			c.SigPub = append([]byte(nil), b...)
		}
		sigLen := r.u16()
		if r.err == nil && sigLen > maxSigLen {
			return fmt.Errorf("%w: contract signature %d bytes", ErrFieldTooLong, sigLen)
		}
		if b := r.take(sigLen); b != nil {
			c.Sig = append([]byte(nil), b...)
		}
		if r.err == nil {
			f.Contract = c
		}
	}
	recCount := r.u16()
	if r.err == nil && recCount > maxRecords {
		return fmt.Errorf("%w: %d records", ErrFieldTooLong, recCount)
	}
	for i := 0; i < recCount && r.err == nil; i++ {
		recLen := r.u16()
		if r.err == nil && recLen > maxRecordLen {
			return fmt.Errorf("%w: record %d bytes", ErrFieldTooLong, recLen)
		}
		if b := r.take(recLen); b != nil {
			f.Records = append(f.Records, onion.PathRecord{Sealed: append([]byte(nil), b...)})
		}
	}
	if flags&flagTrace != 0 {
		f.Trace = telemetry.SpanID(r.u64())
		f.Span = telemetry.SpanID(r.u64())
		if r.err == nil && !f.hasTrace() {
			return ErrEmptyTrace
		}
	}
	return r.err
}

// WriteFrame encodes f and writes it to w, returning the bytes written.
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	buf, err := f.Encode()
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// ReadFrame reads exactly one frame from r — nothing past it, so frames
// can be read off one stream call by call — returning it with the total
// bytes consumed.
func ReadFrame(r io.Reader) (*Frame, int, error) {
	f := new(Frame)
	s := frameStream{src: r, buf: make([]byte, frameHeadSize)}
	n, err := s.next(f)
	if err != nil {
		return nil, n, err
	}
	return f, n, nil
}

// connBuf is the buffer a connection keeps per direction: the read-ahead
// of an inbound connection's frameStream, and the most a link's writer
// keeps of the buffer it encodes into. The mean protocol frame is ~125
// bytes, so one Read of the socket brings in a whole frame, usually
// several; a frame past connBuf gets a one-off buffer either way.
const connBuf = 2048

// frameStream reads the frames of one byte stream through a read-ahead
// buffer: a frame that fits the buffer costs at most one Read of the
// source and is decoded in place. With a buffer of just prefix + prologue
// (ReadFrame's) it reads no further than the frame it returns.
type frameStream struct {
	src  io.Reader
	buf  []byte // buf[r:w] is read but not yet consumed
	r, w int
}

// fill reads from the source into dst[have:] until dst holds at least n
// bytes, returning how many it holds. Like io.ReadFull it reports io.EOF
// only at a clean boundary — have == 0 and nothing more to come.
func (s *frameStream) fill(dst []byte, have, n int) (int, error) {
	m, err := io.ReadAtLeast(s.src, dst[have:], n-have)
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return have + m, err
}

// peek returns the next n <= len(buf) unconsumed bytes, reading from the
// source only when fewer are buffered.
func (s *frameStream) peek(n int) (b []byte, err error) {
	if s.w-s.r < n {
		s.w, s.r = copy(s.buf, s.buf[s.r:s.w]), 0
		if s.w, err = s.fill(s.buf, s.w, n); err != nil {
			return nil, err
		}
	}
	return s.buf[s.r : s.r+n], nil
}

// next reads one frame into f, a Frame the caller owns (see decodeBody),
// and returns the bytes consumed. The length prefix is only ever trusted
// after validation: the global MaxFrameSize bound is checked first, then
// the two-byte version/kind prologue is peeked and the declared length
// checked against the kind's BodyCap — all BEFORE a body that does not
// fit the read-ahead buffer is allocated, so a hostile prefix cannot force
// a large allocation for a small-payload kind, let alone a multi-gigabyte
// one. Such a body is a one-off allocation: a 1 MB claim does not stay
// pinned to its socket.
func (s *frameStream) next(f *Frame) (int, error) {
	hdr, err := s.peek(frameHeaderSize)
	if err != nil {
		return 0, err
	}
	declared := binary.BigEndian.Uint32(hdr)
	if declared > MaxFrameSize {
		return frameHeaderSize, fmt.Errorf("%w: declared body %d bytes > %d", ErrOversized, declared, MaxFrameSize)
	}
	n := int(declared)
	// A body too short for even the prologue skips these checks; decodeBody
	// produces the canonical ErrShortFrame for it.
	if n >= 2 {
		head, err := s.peek(frameHeadSize)
		if err != nil {
			return frameHeaderSize, fmt.Errorf("netwire: frame body: %w", err)
		}
		if head[frameHeaderSize] != Version {
			return frameHeadSize, fmt.Errorf("%w: got %d, speak %d", ErrBadVersion, head[frameHeaderSize], Version)
		}
		kind := Kind(head[frameHeaderSize+1])
		max := BodyCap(kind)
		if max < 0 {
			return frameHeadSize, fmt.Errorf("%w: %d", ErrBadKind, kind)
		}
		if n > max {
			return frameHeadSize, fmt.Errorf("%w: %v body %d bytes > %d", ErrOversized, kind, n, max)
		}
	}
	s.r += frameHeaderSize
	var body []byte
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
		return frameHeaderSize + min(n, 2), fmt.Errorf("netwire: frame body: %w", err)
	}
	return frameHeaderSize + n, f.decodeBody(body)
}
