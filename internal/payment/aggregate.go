package payment

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

// Receipt aggregation (the settlement fast path): instead of presenting m
// individual receipts, a forwarder folds the receipts' MACs into one
// running hash chain as they arrive and submits a single AggregateClaim
// per batch — the (conn, hop) coordinates plus the 32-byte chain value.
// The minter re-derives the chain in one O(m) pass: each receipt MAC is
// recomputed with a single reusable HMAC instance (the per-receipt
// hmac.New of the serial path dominates its cost) and folded into one
// streaming SHA-256, so verification needs no dedup map and no per-entry
// allocation, and the claim itself is 16 bytes per entry on the wire
// instead of 56.
//
// The chain is all-or-nothing by construction: a forged, truncated,
// reordered or extended entry list re-derives to a different value, so
// the whole claim is rejected and the forwarder falls back to individual
// receipts. Entries must be strictly increasing in (conn, hop) — the
// canonical order — which makes duplicates unrepresentable and gives the
// wire codec a unique encoding per claim.
//
//	chain = SHA256(tag ‖ be64(forwarder) ‖ MAC₁ ‖ MAC₂ ‖ … ‖ MACₘ)
//
// The (conn, hop) coordinates are not folded directly: each MACᵢ is
// recomputed by the verifier *from the claimed coordinates*, so any
// altered coordinate changes the recomputed MAC and breaks the chain —
// the coordinates are bound transitively, and the fold stream stays at
// 32 bytes per entry (half a SHA-256 block).

// MaxAggEntries bounds one aggregate claim: 1<<16 forwarding instances per
// forwarder per batch is far beyond any batch this repo forms, and the cap
// keeps a hostile count prefix from asking the decoder for megabytes.
const MaxAggEntries = 1 << 16

// aggDomainTag separates the chain hash from every other use of SHA-256
// in the protocol.
const aggDomainTag = "p2panon/aggclaim/v1"

// AggEntry names one forwarding instance inside an aggregate claim.
type AggEntry struct {
	Conn int
	Hop  int
}

// AggregateClaim is a forwarder's rolled-up settlement submission for one
// batch: the claimed (conn, hop) instances in strictly increasing order
// and the receipt-MAC chain over them.
type AggregateClaim struct {
	Forwarder AccountID
	Entries   []AggEntry
	Chain     [32]byte
}

// ClaimChain accumulates a forwarder's receipts into the running chain.
// Receipts must be added in strictly increasing (conn, hop) order — the
// order they are earned in a batch; an out-of-order or duplicate receipt
// is rejected and the caller falls back to a per-receipt Claim.
type ClaimChain struct {
	forwarder AccountID
	h         hash.Hash
	entries   []AggEntry
	lastConn  int
	lastHop   int
	sealed    bool
	scratch   [32]byte // reused fold buffer; keeps Add allocation-free
}

// NewClaimChain starts an empty chain for forwarder f.
func NewClaimChain(f AccountID) *ClaimChain {
	c := &ClaimChain{forwarder: f, h: sha256.New(), lastConn: -1, lastHop: -1}
	seedChain(c.h, f)
	return c
}

func seedChain(h hash.Hash, f AccountID) {
	var buf [8]byte
	h.Write([]byte(aggDomainTag))
	binary.BigEndian.PutUint64(buf[:], uint64(f))
	h.Write(buf[:])
}

// foldEntry writes one receipt MAC into the stream through the caller's
// scratch buffer — one Write per entry, no per-entry allocation (a slice
// of the receipt's own MAC array would escape through the interface call).
func foldEntry(h hash.Hash, scratch *[32]byte, mac []byte) {
	copy(scratch[:], mac)
	h.Write(scratch[:])
}

// Add folds receipt r into the chain. The receipt must name the chain's
// forwarder and advance the (conn, hop) order; nothing about the MAC is
// checked — the forwarder cannot (it does not hold the batch secret), so
// a corrupted receipt surfaces only at settlement, as a rejected claim.
func (c *ClaimChain) Add(r Receipt) error {
	if c.sealed {
		return errors.New("payment: claim chain already sealed")
	}
	if r.Forwarder != c.forwarder {
		return fmt.Errorf("payment: receipt names forwarder %d, chain is for %d", r.Forwarder, c.forwarder)
	}
	if len(c.entries) >= MaxAggEntries {
		return fmt.Errorf("payment: claim chain full (%d entries)", MaxAggEntries)
	}
	if r.Conn < c.lastConn || (r.Conn == c.lastConn && r.Hop <= c.lastHop) {
		return fmt.Errorf("payment: receipt (conn %d, hop %d) out of order after (conn %d, hop %d)",
			r.Conn, r.Hop, c.lastConn, c.lastHop)
	}
	foldEntry(c.h, &c.scratch, r.MAC[:])
	c.entries = append(c.entries, AggEntry{Conn: r.Conn, Hop: r.Hop})
	c.lastConn, c.lastHop = r.Conn, r.Hop
	return nil
}

// Claim finalizes the chain and returns the aggregate claim. The chain is
// sealed afterwards: settlement consumes it, further Adds error.
func (c *ClaimChain) Claim() AggregateClaim {
	c.sealed = true
	out := AggregateClaim{Forwarder: c.forwarder, Entries: c.entries}
	c.h.Sum(out.Chain[:0])
	return out
}

// shaDigest is the stdlib SHA-256 digest's real surface: a hash that can
// restore a marshaled mid-state and append its current one.
type shaDigest interface {
	hash.Hash
	encoding.BinaryUnmarshaler
	encoding.BinaryAppender
}

// Marshaled sha256 digest layout: 4-byte magic, the eight state words
// big-endian, the 64-byte chunk buffer, the 8-byte length. The state words
// of a digest that has absorbed exactly whole blocks are the digest value
// itself, so a manually padded final block turns AppendBinary into a
// finalize that costs one copy instead of Sum's whole-struct clone.
const (
	shaStateLen  = 4 + sha256.Size + sha256.BlockSize + 8
	shaStateOff  = 4    // state words start after the magic
	shaPadEnd    = 0x80 // FIPS 180-4: the 1-bit after the message
	innerMsgBits = (sha256.BlockSize + 24) * 8
	outerMsgBits = (sha256.BlockSize + sha256.Size) * 8
)

// macVerifier recomputes receipt MACs from a minter's pad mid-states with
// no per-entry allocation: restore key⊕ipad, compress one pre-padded
// block holding the 24-byte message, read the inner digest out of the
// marshaled state, and repeat with key⊕opad for the outer pass — two
// compressions per MAC, the HMAC arithmetic with all setup hoisted.
type macVerifier struct {
	d          shaDigest
	ipad, opad []byte
	bin        [sha256.BlockSize]byte // padded final block, inner hash
	bout       [sha256.BlockSize]byte // padded final block, outer hash
	st         [shaStateLen]byte
}

func newMACVerifier(ipadState, opadState []byte) (*macVerifier, bool) {
	d, ok := sha256.New().(shaDigest)
	if !ok || len(ipadState) == 0 {
		return nil, false
	}
	v := &macVerifier{d: d, ipad: ipadState, opad: opadState}
	v.bin[24] = shaPadEnd
	binary.BigEndian.PutUint64(v.bin[56:64], innerMsgBits)
	v.bout[sha256.Size] = shaPadEnd
	binary.BigEndian.PutUint64(v.bout[56:64], outerMsgBits)
	return v, true
}

// setForwarder fixes the forwarder field of the MAC message; one verifier
// serves a whole claim batch by re-pointing it per claim.
func (v *macVerifier) setForwarder(f AccountID) {
	binary.BigEndian.PutUint64(v.bin[16:24], uint64(f))
}

// mac computes HMAC(key, be64(conn) ‖ be64(hop) ‖ be64(forwarder)) and
// returns it as a slice into the verifier's state buffer, valid until the
// next call.
func (v *macVerifier) mac(conn, hop int) ([]byte, error) {
	binary.BigEndian.PutUint64(v.bin[0:8], uint64(conn))
	binary.BigEndian.PutUint64(v.bin[8:16], uint64(hop))
	if err := v.d.UnmarshalBinary(v.ipad); err != nil {
		return nil, err
	}
	v.d.Write(v.bin[:]) // exactly one block: compressed directly, unbuffered
	buf, err := v.d.AppendBinary(v.st[:0])
	if err != nil || len(buf) != shaStateLen {
		return nil, errors.New("payment: unexpected sha256 state size")
	}
	copy(v.bout[:sha256.Size], buf[shaStateOff:shaStateOff+sha256.Size])
	if err := v.d.UnmarshalBinary(v.opad); err != nil {
		return nil, err
	}
	v.d.Write(v.bout[:])
	buf, err = v.d.AppendBinary(v.st[:0])
	if err != nil || len(buf) != shaStateLen {
		return nil, errors.New("payment: unexpected sha256 state size")
	}
	return buf[shaStateOff : shaStateOff+sha256.Size], nil
}

// verifyAggregateWith is VerifyAggregate against caller-owned scratch: the
// settlement loops hoist one verifier and one fold digest over a whole
// claim batch instead of rebuilding them per claim. The order pre-check
// runs here too, so it is safe on undecoded hostile input.
func (m *ReceiptMinter) verifyAggregateWith(v *macVerifier, fold hash.Hash, c *AggregateClaim) int {
	n := len(c.Entries)
	if n == 0 || n > MaxAggEntries || !ascending(c.Entries) {
		return 0
	}
	v.setForwarder(c.Forwarder)
	fold.Reset()
	seedChain(fold, c.Forwarder)
	for _, e := range c.Entries {
		mac, err := v.mac(e.Conn, e.Hop)
		if err != nil {
			return m.verifyAggregateSlow(c)
		}
		fold.Write(mac)
	}
	var got [32]byte
	fold.Sum(got[:0])
	if !hmac.Equal(got[:], c.Chain[:]) {
		return 0
	}
	return n
}

// aggregateVerifier returns a claim-verification closure with the
// verifier and fold digest hoisted, for loops that check many claims —
// same results as calling VerifyAggregate per claim, minus the per-claim
// setup. The closure is single-goroutine like any hash.Hash.
func (m *ReceiptMinter) aggregateVerifier() func(*AggregateClaim) int {
	v, ok := newMACVerifier(m.ipadState, m.opadState)
	if !ok {
		return m.verifyAggregateSlow
	}
	fold := sha256.New()
	return func(c *AggregateClaim) int {
		return m.verifyAggregateWith(v, fold, c)
	}
}

// verifyAggregateSlow is the reference verification through crypto/hmac,
// kept as the fallback and as the equivalence oracle for tests.
func (m *ReceiptMinter) verifyAggregateSlow(c *AggregateClaim) int {
	n := len(c.Entries)
	if n == 0 || n > MaxAggEntries {
		return 0
	}
	fold := sha256.New()
	seedChain(fold, c.Forwarder)
	hm := hmac.New(sha256.New, m.key)
	var in [24]byte
	binary.BigEndian.PutUint64(in[16:24], uint64(c.Forwarder))
	var mac [32]byte
	lastConn, lastHop := -1, -1
	for _, e := range c.Entries {
		if e.Conn < lastConn || (e.Conn == lastConn && e.Hop <= lastHop) {
			return 0
		}
		lastConn, lastHop = e.Conn, e.Hop
		hm.Reset()
		binary.BigEndian.PutUint64(in[0:8], uint64(e.Conn))
		binary.BigEndian.PutUint64(in[8:16], uint64(e.Hop))
		hm.Write(in[:])
		hm.Sum(mac[:0])
		fold.Write(mac[:])
	}
	var got [32]byte
	fold.Sum(got[:0])
	if !hmac.Equal(got[:], c.Chain[:]) {
		return 0
	}
	return n
}
