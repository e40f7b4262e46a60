package payment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"p2panon/internal/wire"
)

// Wire encodings for the payment artifacts that cross the network: a
// forwarding receipt and an aggregate claim submitted at settlement. Both
// are canonical — every valid byte string decodes to exactly one value
// and re-encodes to the same bytes — so they can be compared, deduplicated
// and MACed by their encoding without a parse step. Each Encode is its
// Append form into a buffer of the exact size.
//
// Receipt: 8B conn | 8B hop | 8B forwarder | 32B MAC  (56 bytes fixed)

// ReceiptWireSize is the fixed encoded size of a Receipt.
const ReceiptWireSize = 8 + 8 + 8 + 32

// Wire decoding errors: internal/wire's shared set under this package's
// names, plus the one malformation that is the payment formats' own.
var (
	ErrShortBuffer  = wire.ErrShort
	ErrTrailingData = wire.ErrTrailing
	ErrNonCanonical = errors.New("payment: non-canonical encoding")
)

// EncodeReceipt renders r in the fixed 56-byte wire format. The buffer
// is sized here, where the call inlines, so a caller that only decodes it
// again can keep it on its stack.
func EncodeReceipt(r Receipt) []byte { return AppendReceipt(make([]byte, 0, ReceiptWireSize), r) }

// AppendReceipt appends r's 56-byte encoding to dst, growing it once.
func AppendReceipt(dst []byte, r Receipt) []byte {
	dst = wire.AppendI64(slices.Grow(dst, ReceiptWireSize), int64(r.Conn))
	dst = wire.AppendI64(dst, int64(r.Hop))
	dst = wire.AppendI64(dst, int64(r.Forwarder))
	return append(dst, r.MAC[:]...)
}

// DecodeReceipt parses a fixed-size receipt encoding, rejecting any other
// length.
func DecodeReceipt(data []byte) (Receipt, error) {
	// The length is checked here rather than through the Reader's error,
	// which escape analysis would tie to data: a caller's encode buffer
	// could then not stay on its stack.
	switch {
	case len(data) < ReceiptWireSize:
		return Receipt{}, ErrShortBuffer
	case len(data) > ReceiptWireSize:
		return Receipt{}, ErrTrailingData
	}
	rd := wire.NewReader(data)
	r := Receipt{Conn: int(rd.I64()), Hop: int(rd.I64()), Forwarder: AccountID(rd.I64())}
	copy(r.MAC[:], rd.Take(32))
	return r, nil
}

// AggClaimWireSize returns the encoded size of an aggregate claim with n
// entries:
//
//	8B forwarder | 4B count | n × (8B conn | 8B hop) | 32B chain
//
// 16 bytes per claimed instance against a receipt's 56 — the MACs stay
// home, only the chain travels.
func AggClaimWireSize(n int) int { return 8 + 4 + 16*n + 32 }

// EncodeAggregateClaim renders c in the canonical wire format. Claims
// with no entries, too many entries, or entries out of strictly
// increasing (conn, hop) order have no encoding — the canonical order is
// part of the format, so every valid byte string decodes to exactly one
// claim.
func EncodeAggregateClaim(c AggregateClaim) ([]byte, error) { return AppendAggregateClaim(nil, c) }

// AppendAggregateClaim appends c's canonical encoding to dst, growing it
// once to the claim's known size.
func AppendAggregateClaim(dst []byte, c AggregateClaim) ([]byte, error) {
	n := len(c.Entries)
	if n == 0 || n > MaxAggEntries {
		return dst, fmt.Errorf("%w: aggregate claim with %d entries (want 1..%d)", wire.ErrCount, n, MaxAggEntries)
	}
	if !ascending(c.Entries) {
		return dst, fmt.Errorf("%w: aggregate entries not strictly increasing", ErrNonCanonical)
	}
	out := wire.AppendI64(slices.Grow(dst, AggClaimWireSize(n)), int64(c.Forwarder))
	out = wire.AppendU32(out, n)
	for _, e := range c.Entries {
		out = wire.AppendI64(out, int64(e.Conn))
		out = wire.AppendI64(out, int64(e.Hop))
	}
	return append(out, c.Chain[:]...), nil
}

// ascending reports whether entries are in strictly increasing (conn,
// hop) order, the claim format's canonical order.
func ascending(entries []AggEntry) bool {
	lastConn, lastHop := -1, -1
	for _, e := range entries {
		if e.Conn < lastConn || (e.Conn == lastConn && e.Hop <= lastHop) {
			return false
		}
		lastConn, lastHop = e.Conn, e.Hop
	}
	return true
}

// DecodeAggregateClaim parses a canonical aggregate-claim encoding. It
// rejects truncated or oversized buffers, hostile entry counts (before
// allocating the entries) and non-canonical (unordered or duplicate)
// entry lists, so decode∘encode and encode∘decode are identities. A
// decoded claim is well-formed, not authentic — only VerifyAggregate can
// accept it.
func DecodeAggregateClaim(data []byte) (AggregateClaim, error) {
	r := wire.NewReader(data)
	c := AggregateClaim{Forwarder: AccountID(r.I64())}
	n := r.U32()
	r.Check(n > 0 && n <= MaxAggEntries, wire.ErrCount)
	raw := r.Take(16 * n)
	copy(c.Chain[:], r.Take(32))
	if err := r.Done(); err != nil {
		return AggregateClaim{}, err
	}
	c.Entries = make([]AggEntry, n)
	for i := range c.Entries {
		e := raw[16*i : 16*i+16]
		c.Entries[i] = AggEntry{Conn: int(int64(binary.BigEndian.Uint64(e))), Hop: int(int64(binary.BigEndian.Uint64(e[8:])))}
	}
	if !ascending(c.Entries) {
		return AggregateClaim{}, fmt.Errorf("%w: aggregate entries not strictly increasing", ErrNonCanonical)
	}
	return c, nil
}
