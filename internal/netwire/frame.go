// Package netwire is the socket-backed sibling of package transport: the
// same forwarding protocol — FORWARD out, CONFIRM/NACK back along the
// reverse path, bounded-retry path reformation — run by the same
// transport.Driver, but carried over real TCP connections with a
// length-prefixed, versioned frame codec instead of an in-process queue.
// The package holds only what is socket about that: listeners, per-peer
// links, the handshake, the Frame ↔ transport.Message conversion at the
// read/write boundary — plain field copies: a NACK's reason travels as
// its one-byte transport.NackReason and its subject in the frame's From,
// as a FORWARD's sender does — and the probe/settle/claim frames. A
// netwire.Cluster implements transport.Conductor, so the experiment
// drivers, churn hooks and the backend-conformance suite run unchanged
// over either backend.
//
// The wire protocol (DESIGN.md §3e) is internal/wire's envelope:
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
	"p2panon/internal/transport"
	"p2panon/internal/wire"

	"crypto/ecdh"
)

// Version is the wire-protocol version this codec speaks. A frame with
// any other version is rejected at decode — the dialer learns about the
// mismatch from the handshake failing.
const Version = 3

// MaxFrameSize bounds a frame body (version + kind + payload). It keeps a
// hostile length prefix from asking the reader for gigabytes.
const MaxFrameSize = 1 << 20

// Field caps inside a message payload. Paths and records are bounded by
// the hop budget in practice; the caps only guard the decoder.
const (
	maxPathLen    = 4096
	maxRecords    = 4096
	maxRecordLen  = 4096
	maxKeyLen     = 128
	maxSigLen     = 256
	flagContract  = 1 << 0
	flagTrace     = 1 << 1
	flagKnownMask = flagContract | flagTrace
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
// DecodeFrame and a connection's frame stream enforce it — the stream
// before allocating the body, so a corrupt or malicious peer cannot make
// a reader allocate MaxFrameSize bytes for a frame kind whose payload is
// 8 bytes.
func BodyCap(k Kind) int {
	switch k {
	case KindHello, KindHelloAck:
		return 2 + 8 + traceTailSize // node + optional trace context
	case KindProbe, KindProbeAck:
		return 2 + 8 // nonce
	case KindSettle:
		return 2 + 2*8 + traceTailSize // batch, payoff + optional trace context
	case KindForward, KindConfirm, KindNack, KindClaim:
		return MaxFrameSize
	default:
		return -1
	}
}

// envelope is this protocol's framing: its version and per-kind caps.
var envelope = wire.Envelope{
	Version: Version,
	Max:     MaxFrameSize,
	Cap:     func(k byte) int { return BodyCap(Kind(k)) },
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

// Codec errors. The first six are internal/wire's shared set under this
// package's names; the last six are the frame format's own.
var (
	ErrShortFrame   = wire.ErrShort
	ErrBadVersion   = wire.ErrVersion
	ErrBadKind      = wire.ErrKind
	ErrOversized    = wire.ErrOversized
	ErrTrailingData = wire.ErrTrailing
	ErrFieldTooLong = wire.ErrField
	ErrBadFlags     = errors.New("netwire: unknown flag bits set")
	ErrBadKey       = errors.New("netwire: malformed contract key")
	ErrEmptyTrace   = errors.New("netwire: trace-context extension present but all-zero")
	ErrBadHop       = errors.New("netwire: hop budget outside [0, transport.MaxBudget] or negative hop index")
	ErrBadBatch     = errors.New("netwire: negative batch")
	ErrBadReason    = errors.New("netwire: nack reason does not fit the frame kind")
)

// Frame is the decoded form of one wire frame. Which fields are
// meaningful depends on Kind; Encode only serialises the fields its kind
// defines, so unused fields never reach the wire.
type Frame struct {
	Kind Kind

	// Hello/HelloAck: the speaker's node ID.
	Node overlay.NodeID
	// Probe/ProbeAck: the echo token.
	Nonce uint64

	// Forward/Confirm/Nack: the protocol message, mirroring
	// transport.Message field for field. Attempt distinguishes
	// reformation attempts of one connection so a stale confirm cannot
	// resolve a relaunched attempt. From is a FORWARD's sender and a
	// NACK's subject; Reason is a NACK's reason, NackNone on the other
	// two kinds. DeadlineMicros is the attempt budget remaining at send
	// time in microseconds (0 = none).
	Batch, Conn, Attempt       int
	From, Initiator, Responder overlay.NodeID
	Remaining, Hop             int
	Path                       []overlay.NodeID
	Reason                     transport.NackReason
	DeadlineMicros             int64
	Contract                   *onion.SignedContract
	Records                    []onion.PathRecord

	// Settle: the initiator's split-payment notice for one batch.
	Payoff float64

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

// Encode renders the frame in canonical wire form, length prefix
// included. A claim frame, whose size its entry count fixes, is encoded
// into one buffer with room for its header, claim and trace context.
func (f *Frame) Encode() ([]byte, error) {
	var dst []byte
	if f.Kind == KindClaim && f.AggClaim != nil {
		dst = make([]byte, 0, wire.HeadSize+8+4+payment.AggClaimWireSize(len(f.AggClaim.Entries))+16)
	}
	return f.AppendTo(dst)
}

// AppendTo appends the frame's canonical wire form to dst — the body is
// written straight behind the envelope's placeholder prefix and the
// length patched in, so encoding into a buffer with room allocates
// nothing. On error dst is returned unchanged.
func (f *Frame) AppendTo(dst []byte) ([]byte, error) {
	out, err := f.appendBody(envelope.Begin(dst, byte(f.Kind)))
	if err == nil {
		err = envelope.End(out, len(dst))
	}
	if err != nil {
		return dst, err
	}
	return out, nil
}

// appendBody appends the kind's payload behind the version/kind prologue
// out already ends in.
func (f *Frame) appendBody(out []byte) ([]byte, error) {
	switch f.Kind {
	case KindHello, KindHelloAck:
		out = wire.AppendI64(out, int64(f.Node))
	case KindForward, KindConfirm, KindNack:
		return f.encodeMessage(out)
	case KindProbe, KindProbeAck:
		return wire.AppendU64(out, f.Nonce), nil
	case KindSettle:
		out = wire.AppendI64(out, int64(f.Batch))
		out = wire.AppendU64(out, math.Float64bits(f.Payoff))
	case KindClaim:
		if f.AggClaim == nil {
			return nil, errors.New("netwire: claim frame without aggregate claim")
		}
		out = wire.AppendI64(out, int64(f.Batch))
		out = wire.AppendU32(out, payment.AggClaimWireSize(len(f.AggClaim.Entries)))
		var err error
		if out, err = payment.AppendAggregateClaim(out, *f.AggClaim); err != nil {
			return nil, fmt.Errorf("netwire: encoding aggregate claim: %w", err)
		}
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, f.Kind)
	}
	return f.appendTraceTail(out), nil
}

func (f *Frame) encodeMessage(out []byte) ([]byte, error) {
	if !f.reasonFits() {
		return nil, fmt.Errorf("%w: %s with reason %d", ErrBadReason, f.Kind, f.Reason)
	}
	for _, v := range []int64{
		int64(f.Batch), int64(f.Conn), int64(f.Attempt),
		int64(f.From), int64(f.Initiator), int64(f.Responder),
		int64(f.Remaining), int64(f.Hop), f.DeadlineMicros,
	} {
		out = wire.AppendI64(out, v)
	}
	var flags byte
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
	out = wire.AppendU16(out, len(f.Path))
	for _, id := range f.Path {
		out = wire.AppendI64(out, int64(id))
	}
	out = append(out, byte(f.Reason))
	var err error
	if c := f.Contract; c != nil {
		if c.BatchPub == nil {
			return nil, ErrBadKey
		}
		out = wire.AppendU64(out, c.BatchID)
		out = wire.AppendU64(out, math.Float64bits(c.Pf))
		out = wire.AppendU64(out, math.Float64bits(c.Pr))
		if out, err = wire.AppendBytes16(out, c.BatchPub.Bytes(), maxKeyLen); err != nil {
			return nil, err
		}
		if out, err = wire.AppendBytes16(out, c.SigPub, maxKeyLen); err != nil {
			return nil, err
		}
		if out, err = wire.AppendBytes16(out, c.Sig, maxSigLen); err != nil {
			return nil, err
		}
	}
	if len(f.Records) > maxRecords {
		return nil, fmt.Errorf("%w: %d records", ErrFieldTooLong, len(f.Records))
	}
	out = wire.AppendU16(out, len(f.Records))
	for _, r := range f.Records {
		if out, err = wire.AppendBytes16(out, r.Sealed, maxRecordLen); err != nil {
			return nil, err
		}
	}
	return f.appendTraceTail(out), nil
}

// reasonFits reports whether the frame's reason fits its kind: a NACK
// names why its attempt failed, and no other kind carries a reason.
func (f *Frame) reasonFits() bool {
	if f.Kind == KindNack {
		return f.Reason == transport.NackDeparted || f.Reason == transport.NackContract
	}
	return f.Reason == transport.NackNone
}

// appendTraceTail serialises the trace-context extension when the frame
// carries one; an all-zero pair is "absent" and emits nothing.
func (f *Frame) appendTraceTail(out []byte) []byte {
	if !f.hasTrace() {
		return out
	}
	out = wire.AppendU64(out, uint64(f.Trace))
	return wire.AppendU64(out, uint64(f.Span))
}

// decodeTrace reads the trace-context extension. A present-but-zero tail
// is rejected so every frame has one canonical encoding.
func (f *Frame) decodeTrace(r *wire.Reader) {
	f.Trace = telemetry.SpanID(r.U64())
	f.Span = telemetry.SpanID(r.U64())
	r.Check(f.hasTrace(), ErrEmptyTrace)
}

// DecodeFrame parses one complete frame (length prefix included) from
// data, rejecting truncation, bad version, unknown kinds and trailing
// garbage. Accepted input is canonical: re-encoding the result reproduces
// data byte for byte. The frame's Path is its own.
func DecodeFrame(data []byte) (*Frame, error) {
	body, err := envelope.Body(data)
	if err != nil {
		return nil, err
	}
	f := new(Frame)
	if err := f.decodeBody(body, nil); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeBody overwrites f with the frame body encodes, whose prologue the
// envelope has validated. Nothing of f's previous value survives, so a
// reader may decode every frame of a connection into one Frame it owns;
// on error f is unspecified. Nothing of body survives in f either — every
// field kept is copied out — so body may be a window of a buffer the next
// read overwrites. A message's Path is decoded into *path when that has
// room, and a grown one is left there when it holds no more than an honest
// path (maxKeptPath), so a reader that passes its own buffer allocates no
// path once it has held its longest, and a hostile peer's long path pins
// nothing; with a nil path each frame gets its own.
func (f *Frame) decodeBody(body []byte, path *[]overlay.NodeID) error {
	*f = Frame{Kind: Kind(body[1])}
	r := wire.NewReader(body[2:])
	switch f.Kind {
	case KindHello, KindHelloAck:
		f.Node = overlay.NodeID(r.I64())
	case KindForward, KindConfirm, KindNack:
		f.decodeMessage(&r, path)
		return r.Done()
	case KindProbe, KindProbeAck:
		f.Nonce = r.U64()
		return r.Done()
	case KindSettle:
		f.Batch = int(r.I64())
		r.Check(f.Batch >= 0, ErrBadBatch)
		f.Payoff = math.Float64frombits(r.U64())
	case KindClaim:
		f.Batch = int(r.I64())
		r.Check(f.Batch >= 0, ErrBadBatch)
		if b := r.Bytes32(MaxFrameSize); r.Err() == nil {
			claim, err := payment.DecodeAggregateClaim(b)
			if err != nil {
				return fmt.Errorf("netwire: decoding aggregate claim: %w", err)
			}
			f.AggClaim = &claim
		}
	}
	// The fixed-layout kinds signal the trace-context extension by body
	// length alone: whatever follows the base payload must be exactly it.
	if r.Len() > 0 {
		f.decodeTrace(&r)
	}
	return r.Done()
}

func (f *Frame) decodeMessage(r *wire.Reader, path *[]overlay.NodeID) {
	f.Batch = int(r.I64())
	r.Check(f.Batch >= 0, ErrBadBatch)
	f.Conn = int(r.I64())
	f.Attempt = int(r.I64())
	f.From = overlay.NodeID(r.I64())
	f.Initiator = overlay.NodeID(r.I64())
	f.Responder = overlay.NodeID(r.I64())
	f.Remaining = int(r.I64())
	f.Hop = int(r.I64())
	r.Check(f.Remaining >= 0 && f.Remaining <= transport.MaxBudget && f.Hop >= 0, ErrBadHop)
	f.DeadlineMicros = r.I64()
	flags := r.U8()
	r.Check(flags&^byte(flagKnownMask) == 0, ErrBadFlags)
	pathLen := r.U16()
	r.Check(pathLen <= maxPathLen, ErrFieldTooLong)
	if b := r.Take(8 * pathLen); len(b) > 0 {
		// A FORWARD's path has room for the hop that receives it, so
		// the receiver's append does not copy it.
		room := pathLen
		if f.Kind == KindForward {
			room++
		}
		if path != nil && cap(*path) >= room {
			f.Path = (*path)[:pathLen]
		} else {
			f.Path = make([]overlay.NodeID, pathLen, room)
			if path != nil && room <= maxKeptPath {
				*path = f.Path
			}
		}
		for i := range f.Path {
			f.Path[i] = overlay.NodeID(int64(binary.BigEndian.Uint64(b[8*i:])))
		}
	}
	f.Reason = transport.NackReason(r.U8())
	r.Check(f.reasonFits(), ErrBadReason)
	if flags&flagContract != 0 {
		c := &onion.SignedContract{}
		c.BatchID = r.U64()
		c.Pf = math.Float64frombits(r.U64())
		c.Pr = math.Float64frombits(r.U64())
		if pub := r.Bytes16(maxKeyLen); r.Err() == nil {
			key, err := ecdh.X25519().NewPublicKey(pub)
			if err != nil {
				r.Fail(fmt.Errorf("%w: %v", ErrBadKey, err))
			}
			c.BatchPub = key
		}
		c.SigPub = append([]byte(nil), r.Bytes16(maxKeyLen)...)
		c.Sig = append([]byte(nil), r.Bytes16(maxSigLen)...)
		if r.Err() == nil {
			f.Contract = c
		}
	}
	recCount := r.U16()
	r.Check(recCount <= maxRecords, ErrFieldTooLong)
	for i := 0; i < recCount && r.Err() == nil; i++ {
		if b := r.Bytes16(maxRecordLen); r.Err() == nil {
			f.Records = append(f.Records, onion.PathRecord{Sealed: append([]byte(nil), b...)})
		}
	}
	if flags&flagTrace != 0 {
		f.decodeTrace(r)
	}
}

// WriteFrame encodes f and writes it to w, returning the bytes written.
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	buf, err := f.Encode()
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// connBuf is the read-ahead of a connection end's frame stream, and the
// most a link keeps of a buffer a frame was encoded into. The mean
// protocol frame is ~125 bytes, so one Read of the socket brings in a
// whole frame, usually several; a frame past connBuf gets a one-off
// buffer either way.
const connBuf = 2048

// maxKeptPath is the most entries a reader keeps of a path buffer a
// frame grew: the longest honest walk (I, MaxBudget forwarders, R) plus
// the FORWARD's room for the hop that receives it. A longer path gets a
// one-off buffer, as a link drops a write buffer past connBuf.
const maxKeptPath = transport.MaxBudget + 3

// deadlineAt is where DeadlineMicros sits in an encoded Forward, Confirm
// or Nack frame: behind the length prefix, the version and kind bytes and
// the eight fields before it. The field is fixed-width, so a link stamps
// the budget that remains into a frame encoded earlier.
const deadlineAt = wire.HeadSize + 8*8

// readFrame reads the next frame of s into f, a Frame the caller owns,
// and returns the bytes consumed; a message's Path goes into *path (see
// decodeBody). A frame that arrived whole but does not decode is a
// badFrame error.
func readFrame(s *wire.Stream, f *Frame, path *[]overlay.NodeID) (int, error) {
	body, n, err := s.Next()
	if err != nil {
		return n, err
	}
	if err := f.decodeBody(body, path); err != nil {
		return n, badFrame{err}
	}
	return n, nil
}

// badFrame is a decode error of a frame the stream delivered whole: the
// peer sent it malformed, rather than the connection failing.
type badFrame struct{ error }

func (e badFrame) Unwrap() error { return e.error }
