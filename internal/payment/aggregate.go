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
	// scratch carries the seed, each folded MAC and the final sum through
	// the digest's Write and Sum: a buffer on the caller's stack would
	// escape through the interface call. With it, Add allocates nothing
	// until the entries outgrow inline, and a chain of up to 16 entries
	// costs its struct and its digest.
	scratch [32]byte
	inline  [16]AggEntry
}

// NewClaimChain starts an empty chain for forwarder f.
func NewClaimChain(f AccountID) *ClaimChain {
	c := &ClaimChain{forwarder: f, h: sha256.New(), lastConn: -1, lastHop: -1}
	c.entries = c.inline[:0]
	seedChain(c.h, &c.scratch, f)
	return c
}

// seedChain writes the chain's prefix, tag ‖ be64(f), into h through
// scratch, which must not live on the caller's stack.
func seedChain(h hash.Hash, scratch *[32]byte, f AccountID) {
	n := copy(scratch[:], aggDomainTag)
	binary.BigEndian.PutUint64(scratch[n:], uint64(f))
	h.Write(scratch[:n+8])
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
	copy(c.scratch[:], r.MAC[:]) // r.MAC[:] would escape through Write
	c.h.Write(c.scratch[:])
	c.entries = append(c.entries, AggEntry{Conn: r.Conn, Hop: r.Hop})
	c.lastConn, c.lastHop = r.Conn, r.Hop
	return nil
}

// Claim finalizes the chain and returns the aggregate claim, whose
// Entries may share the chain's inline array. The chain is sealed
// afterwards: settlement consumes it, further Adds error.
func (c *ClaimChain) Claim() AggregateClaim {
	c.sealed = true
	out := AggregateClaim{Forwarder: c.forwarder, Entries: c.entries}
	copy(out.Chain[:], c.h.Sum(c.scratch[:0]))
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

// macVerifier recomputes receipt MACs from a key's pad mid-states with
// no per-entry allocation: restore key⊕ipad, compress one pre-padded
// block holding the 24-byte message, read the inner digest out of the
// marshaled state, and repeat with key⊕opad for the outer pass — two
// compressions per MAC, the HMAC arithmetic with all setup hoisted. A
// minter embeds one; it is single-goroutine like any hash.Hash.
type macVerifier struct {
	d shaDigest
	// ipad/opad are the marshaled SHA-256 states after absorbing key⊕ipad
	// resp. key⊕opad, the fixed one-block prefixes of every HMAC under
	// the key.
	ipad, opad [shaStateLen]byte
	bin        [sha256.BlockSize]byte // padded final block, inner hash
	bout       [sha256.BlockSize]byte // padded final block, outer hash
	st         [shaStateLen]byte
}

// init derives key's pad mid-states with one digest, the one the
// verifier keeps, following RFC 2104: a key longer than the block is
// hashed first, then zero-padded and XORed with the ipad/opad constants.
// It reports false when the stdlib digest lacks the marshaling surface.
func (v *macVerifier) init(key []byte) bool {
	d, ok := sha256.New().(shaDigest)
	if !ok {
		return false
	}
	v.d = d
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	if !v.padState(key, 0x36, &v.ipad) || !v.padState(key, 0x5c, &v.opad) {
		return false
	}
	clear(v.bin[:])
	v.bin[24] = shaPadEnd
	binary.BigEndian.PutUint64(v.bin[56:64], innerMsgBits)
	v.bout[sha256.Size] = shaPadEnd
	binary.BigEndian.PutUint64(v.bout[56:64], outerMsgBits)
	return true
}

// padState marshals into st the digest's state after one block of
// key⊕x. The block passes through bin, which init pads afterwards: a
// stack buffer would escape through Write.
func (v *macVerifier) padState(key []byte, x byte, st *[shaStateLen]byte) bool {
	for i := range v.bin {
		v.bin[i] = x
		if i < len(key) {
			v.bin[i] ^= key[i]
		}
	}
	v.d.Reset()
	v.d.Write(v.bin[:])
	out, err := v.d.AppendBinary(st[:0])
	return err == nil && len(out) == shaStateLen
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
	if err := v.d.UnmarshalBinary(v.ipad[:]); err != nil {
		return nil, err
	}
	v.d.Write(v.bin[:]) // exactly one block: compressed directly, unbuffered
	buf, err := v.d.AppendBinary(v.st[:0])
	if err != nil || len(buf) != shaStateLen {
		return nil, errors.New("payment: unexpected sha256 state size")
	}
	copy(v.bout[:sha256.Size], buf[shaStateOff:shaStateOff+sha256.Size])
	if err := v.d.UnmarshalBinary(v.opad[:]); err != nil {
		return nil, err
	}
	v.d.Write(v.bout[:])
	buf, err = v.d.AppendBinary(v.st[:0])
	if err != nil || len(buf) != shaStateLen {
		return nil, errors.New("payment: unexpected sha256 state size")
	}
	return buf[shaStateOff : shaStateOff+sha256.Size], nil
}

// verifyAggregates is the chain-claim verifier: a claim is accepted for
// its entry count when its chain re-derives, and a claim that does not
// verify is rejected whole, its entries counted as rejected. Every claim
// is verified through the minter's own verifier and fold digest, under
// its mutex, so a batch's verification allocates only the accepted slice.
func (m *ReceiptMinter) verifyAggregates(claims []AggregateClaim) (accepted []Payout, rejected int) {
	accepted = make([]Payout, 0, len(claims))
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range claims {
		n := m.verifyAggregate(&claims[i])
		rejected += len(claims[i].Entries) - n
		if n > 0 {
			accepted = append(accepted, Payout{Forwarder: claims[i].Forwarder, Forwards: n})
		}
	}
	return accepted, rejected
}

// verifyAggregate re-derives c's chain under the minter's secret and
// returns the accepted forwarding count: len(Entries) when the chain
// matches, 0 otherwise (all-or-nothing). Each entry's MAC is recomputed
// by the minter's verifier and folded into its fold digest; a minter
// whose mid-states do not serve takes verifyAggregateSlow. The order
// pre-check runs here too, so it is safe on undecoded hostile input. The
// caller holds m.mu.
func (m *ReceiptMinter) verifyAggregate(c *AggregateClaim) int {
	if !m.fast {
		return m.verifyAggregateSlow(c)
	}
	n := len(c.Entries)
	if n == 0 || n > MaxAggEntries || !ascending(c.Entries) {
		return 0
	}
	m.v.setForwarder(c.Forwarder)
	m.fold.Reset()
	seedChain(m.fold, &m.scratch, c.Forwarder)
	for _, e := range c.Entries {
		mac, err := m.v.mac(e.Conn, e.Hop)
		if err != nil {
			return m.verifyAggregateSlow(c)
		}
		m.fold.Write(mac)
	}
	if !hmac.Equal(m.fold.Sum(m.scratch[:0]), c.Chain[:]) {
		return 0
	}
	return n
}

// verifyAggregateSlow is the reference verification through crypto/hmac,
// kept as the fallback and as the equivalence oracle for tests.
func (m *ReceiptMinter) verifyAggregateSlow(c *AggregateClaim) int {
	n := len(c.Entries)
	if n == 0 || n > MaxAggEntries {
		return 0
	}
	fold := sha256.New()
	seedChain(fold, new([32]byte), c.Forwarder)
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
