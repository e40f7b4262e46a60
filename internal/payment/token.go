// Package payment implements the anonymous payment infrastructure the
// paper's incentive mechanism relies on (§2.2, §5): a central bank that
// settles payments from initiators to forwarders *after* a batch of
// recurring connections completes, without being able to link an
// initiator's withdrawals to the forwarders' deposits.
//
// The construction is Chaum's blind-signature e-cash, which the paper's
// lineage (Chaum [8]; micropayment schemes [29, 6]) points to:
//
//   - Withdraw: the client picks a random serial s, blinds
//     H(denom‖s)·r^e mod N with a random factor r, and has the bank sign
//     the blinded value while debiting its account. Unblinding yields a
//     valid bank signature on H(denom‖s) that the bank has never seen.
//   - Spend: a token (denom, s, sig) is handed to a forwarder over the
//     anonymous channel itself.
//   - Deposit: the bank verifies sig^e ≡ H(denom‖s) (mod N), checks the
//     serial against the spent list (double-spend detection), and credits
//     the depositor.
//
// Because the bank signs only blinded values, the (serial, signature) pair
// deposited later is cryptographically unlinkable to any particular
// withdrawal — initiator anonymity survives settlement, which is the
// property the paper's §5 claims for its payment mechanism.
package payment

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
)

// Amount is money in integer credits. The paper's benefits (P_f ∈ [50,100])
// are unitless; credits make conservation checks exact.
type Amount int64

// Token is an unspent e-cash note: a serial number and the bank's
// (unblinded) RSA signature over H(denom ‖ serial).
type Token struct {
	Denom  Amount
	Serial [32]byte
	Sig    *big.Int
}

// tokenDigest hashes denom‖serial into h as an integer modulo n.
func tokenDigest(h *big.Int, denom Amount, serial [32]byte, n *big.Int) *big.Int {
	var buf [8 + 32]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(denom))
	copy(buf[8:], serial[:])
	sum := sha256.Sum256(buf[:])
	// A 256-bit digest is far below any RSA modulus in use, so no
	// reduction bias is possible; Mod keeps the types honest.
	return h.Mod(h.SetBytes(sum[:]), n)
}

// powScratch holds the big.Ints one public-exponent power works in. A
// token's life raises to the public exponent four times — the blinding
// r^e, the bank's self-check of its signature, Unblind's verification and
// the deposit's — and big.Int.Exp allocates its square, quotient and
// remainder afresh each time; with the scratch pooled a warm VerifyToken
// allocates nothing.
type powScratch struct {
	acc, prod, quo, base, digest big.Int
}

var powScratchPool = sync.Pool{New: func() any { return new(powScratch) }}

// pow returns x^e mod n for the small public exponent e ≥ 1, by the same
// left-to-right square-and-multiply math/big runs for a one-word exponent.
// The result lives in the scratch and is valid until its next use.
func (s *powScratch) pow(x *big.Int, e int, n *big.Int) *big.Int {
	base := x
	if x.Sign() < 0 || x.Cmp(n) >= 0 {
		base = s.base.Mod(x, n)
	}
	s.acc.Set(base)
	for bit := bits.Len(uint(e)) - 2; bit >= 0; bit-- {
		s.mulMod(&s.acc, &s.acc, &s.acc, n)
		if e>>uint(bit)&1 == 1 {
			s.mulMod(&s.acc, &s.acc, base, n)
		}
	}
	return &s.acc
}

// mulMod sets z = x·y mod n in [0, n). The product and the quotient land
// in the scratch, so z may alias x or y.
func (s *powScratch) mulMod(z, x, y, n *big.Int) {
	s.prod.Mul(x, y)
	s.quo.QuoRem(&s.prod, n, z)
	if z.Sign() < 0 {
		z.Add(z, n)
	}
}

// verify reports whether sig^e ≡ H(denom‖serial) (mod N).
func (s *powScratch) verify(pub *rsa.PublicKey, tok Token) bool {
	return tok.Sig != nil &&
		s.pow(tok.Sig, pub.E, pub.N).Cmp(tokenDigest(&s.digest, tok.Denom, tok.Serial, pub.N)) == 0
}

// WithdrawalRequest is the client-side state of one blind withdrawal.
type WithdrawalRequest struct {
	denom   Amount
	serial  [32]byte
	rInv    *big.Int // inverse of the blinding factor r
	blinded *big.Int // H(denom‖serial)·r^e mod N
	pub     *rsa.PublicKey
}

// NewWithdrawalRequest blinds a fresh serial for the given denomination
// under the bank's public key. rng supplies entropy (crypto/rand.Reader in
// production; tests may inject a deterministic reader).
func NewWithdrawalRequest(pub *rsa.PublicKey, denom Amount, rng io.Reader) (*WithdrawalRequest, error) {
	if denom <= 0 {
		return nil, fmt.Errorf("payment: non-positive denomination %d", denom)
	}
	if rng == nil {
		rng = rand.Reader
	}
	req := &WithdrawalRequest{denom: denom, pub: pub}
	if _, err := io.ReadFull(rng, req.serial[:]); err != nil {
		return nil, fmt.Errorf("payment: reading serial entropy: %w", err)
	}
	// Blinding factor r must be invertible mod N; with N = p·q and random
	// r < N this fails only with negligible probability, but retry anyway.
	// Computing r⁻¹ is the proof, and Unblind needs it.
	n := pub.N
	var r *big.Int
	for req.rInv == nil {
		var err error
		if r, err = rand.Int(rng, n); err != nil {
			return nil, fmt.Errorf("payment: picking blinding factor: %w", err)
		}
		req.rInv = new(big.Int).ModInverse(r, n)
	}
	s := powScratchPool.Get().(*powScratch)
	req.blinded = tokenDigest(new(big.Int), denom, req.serial, n)
	s.mulMod(req.blinded, req.blinded, s.pow(r, pub.E, n), n)
	powScratchPool.Put(s)
	return req, nil
}

// Blinded returns the value sent to the bank for signing. It reveals
// nothing about the serial: for any candidate serial there exists a
// blinding factor consistent with it.
func (w *WithdrawalRequest) Blinded() *big.Int { return new(big.Int).Set(w.blinded) }

// Denom returns the requested denomination (the bank must know how much to
// debit; only the serial is hidden).
func (w *WithdrawalRequest) Denom() Amount { return w.denom }

// Unblind turns the bank's signature on the blinded value into a valid
// token: sig = blindSig·r⁻¹ mod N. It verifies the result and fails if the
// bank misbehaved.
func (w *WithdrawalRequest) Unblind(blindSig *big.Int) (Token, error) {
	s := powScratchPool.Get().(*powScratch)
	defer powScratchPool.Put(s)
	tok := Token{Denom: w.denom, Serial: w.serial, Sig: new(big.Int)}
	s.mulMod(tok.Sig, blindSig, w.rInv, w.pub.N)
	if !s.verify(w.pub, tok) {
		return Token{}, errors.New("payment: bank returned an invalid signature")
	}
	return tok, nil
}

// VerifyToken reports whether tok carries a valid bank signature:
// sig^e ≡ H(denom‖serial) (mod N).
func VerifyToken(pub *rsa.PublicKey, tok Token) bool {
	s := powScratchPool.Get().(*powScratch)
	ok := s.verify(pub, tok)
	powScratchPool.Put(s)
	return ok
}
