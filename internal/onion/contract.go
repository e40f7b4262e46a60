package onion

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// SignedContract is the initiator's published, signed payment commitment
// for one batch (§2.2): the contract values, a batch identifier, and the
// ephemeral batch public key forwarders seal their path records to. The
// signature is by a *pseudonymous* per-batch Ed25519 key — forwarders can
// verify every connection of the batch comes from the same (unknown)
// initiator without learning who it is.
type SignedContract struct {
	BatchID  uint64
	Pf, Pr   float64
	BatchPub *ecdh.PublicKey // record-sealing key
	SigPub   ed25519.PublicKey
	Sig      []byte
}

// contractDigest serialises the signed portion.
func contractDigest(batchID uint64, pf, pr float64, batchPub *ecdh.PublicKey) []byte {
	buf := make([]byte, 0, 8+8+8+32)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], batchID)
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(pf))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(pr))
	buf = append(buf, tmp[:]...)
	buf = append(buf, batchPub.Bytes()...)
	return buf
}

// NewSignedContract creates and signs a contract under a fresh
// pseudonymous key pair. The private half is discarded: a contract is
// signed once, and a new batch gets a new pseudonym.
func NewSignedContract(batchID uint64, pf, pr float64, batchPub *ecdh.PublicKey) (*SignedContract, error) {
	if pf < 0 || pr < 0 {
		return nil, fmt.Errorf("onion: negative contract (%g, %g)", pf, pr)
	}
	if batchPub == nil {
		return nil, errors.New("onion: nil batch key")
	}
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("onion: pseudonym keygen: %w", err)
	}
	c := &SignedContract{
		BatchID:  batchID,
		Pf:       pf,
		Pr:       pr,
		BatchPub: batchPub,
		SigPub:   pub,
	}
	c.Sig = ed25519.Sign(priv, contractDigest(batchID, pf, pr, batchPub))
	return c, nil
}

// Verify reports whether the contract's signature is valid under its
// embedded pseudonymous key.
func (c *SignedContract) Verify() bool {
	if c.BatchPub == nil || len(c.Sig) != ed25519.SignatureSize || len(c.SigPub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(c.SigPub, contractDigest(c.BatchID, c.Pf, c.Pr, c.BatchPub), c.Sig)
}
