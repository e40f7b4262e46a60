// Package onion implements the cryptographic steps of route formation
// and verification that the paper's §5 defers to its technical report,
// the three the live protocol (transport.RunSecureBatch) runs:
//
//   - signed contracts, so forwarders can verify the (P_f, P_r)
//     commitment really originates from the batch's (pseudonymous)
//     initiator before doing work;
//   - an ephemeral batch key per batch, carried in the contract, that
//     only the initiator can open (ECIES-style: X25519 → HKDF-SHA256 →
//     AES-256-GCM);
//   - per-hop path records: each forwarder seals (cid, self, pred, succ)
//     to the batch key, and the records travel back with the
//     confirmation. The initiator decrypts and chains them to "recreate
//     the path and validate it" (§2.2) — detecting dropped, forged,
//     reordered or spliced records — without any forwarder learning who
//     the initiator is.
//
// Nodes hold no long-term keys: links between neighbours are trusted by
// deployment, not authenticated here.
//
// All primitives are from the Go standard library (crypto/ecdh,
// crypto/ed25519, crypto/aes, crypto/cipher, crypto/hmac, crypto/sha256).
package onion

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// ---------------------------------------------------------------------------
// HKDF-SHA256 (RFC 5869) — small and self-contained.
// ---------------------------------------------------------------------------

// hkdf derives length bytes from secret with the given salt and info.
func hkdf(secret, salt, info []byte, length int) []byte {
	if salt == nil {
		salt = make([]byte, sha256.Size)
	}
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)

	var out []byte
	var block []byte
	for counter := byte(1); len(out) < length; counter++ {
		exp := hmac.New(sha256.New, prk)
		exp.Write(block)
		exp.Write(info)
		exp.Write([]byte{counter})
		block = exp.Sum(nil)
		out = append(out, block...)
	}
	return out[:length]
}

// aeadFromSecret builds an AES-256-GCM AEAD from a DH shared secret.
func aeadFromSecret(secret, info []byte) (cipher.AEAD, error) {
	key := hkdf(secret, nil, info, 32)
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(blk)
}

// seal encrypts plaintext with a random nonce, prepending the nonce.
func seal(aead cipher.AEAD, plaintext, aad []byte) ([]byte, error) {
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return aead.Seal(nonce, nonce, plaintext, aad), nil
}

// open reverses seal.
func open(aead cipher.AEAD, ct, aad []byte) ([]byte, error) {
	if len(ct) < aead.NonceSize() {
		return nil, errors.New("onion: ciphertext too short")
	}
	return aead.Open(nil, ct[:aead.NonceSize()], ct[aead.NonceSize():], aad)
}

// ---------------------------------------------------------------------------
// ECIES-style sealing to an ephemeral batch key.
// ---------------------------------------------------------------------------

// BatchKey is the initiator's ephemeral key for one batch: forwarders seal
// path records to its public half; only the initiator can open them. A
// fresh key per batch keeps batches unlinkable to each other.
type BatchKey struct {
	priv *ecdh.PrivateKey
}

// NewBatchKey generates an ephemeral batch key.
func NewBatchKey(rng io.Reader) (*BatchKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	priv, err := ecdh.X25519().GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("onion: generating batch key: %w", err)
	}
	return &BatchKey{priv: priv}, nil
}

// Public returns the batch public key carried in the contract.
func (bk *BatchKey) Public() *ecdh.PublicKey { return bk.priv.PublicKey() }

// SealToBatch encrypts plaintext to the batch public key: an ephemeral
// sender key is generated, the shared secret derived, and the sender
// public key prepended to the ciphertext.
func SealToBatch(batchPub *ecdh.PublicKey, plaintext, aad []byte) ([]byte, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	secret, err := eph.ECDH(batchPub)
	if err != nil {
		return nil, err
	}
	aead, err := aeadFromSecret(secret, []byte("rec"))
	if err != nil {
		return nil, err
	}
	ct, err := seal(aead, plaintext, aad)
	if err != nil {
		return nil, err
	}
	return append(eph.PublicKey().Bytes(), ct...), nil
}

// OpenFromBatch decrypts a SealToBatch ciphertext with the batch private
// key.
func (bk *BatchKey) OpenFromBatch(ct, aad []byte) ([]byte, error) {
	const pubLen = 32
	if len(ct) < pubLen {
		return nil, errors.New("onion: record too short")
	}
	senderPub, err := ecdh.X25519().NewPublicKey(ct[:pubLen])
	if err != nil {
		return nil, fmt.Errorf("onion: sender key: %w", err)
	}
	secret, err := bk.priv.ECDH(senderPub)
	if err != nil {
		return nil, err
	}
	aead, err := aeadFromSecret(secret, []byte("rec"))
	if err != nil {
		return nil, err
	}
	pt, err := open(aead, ct[pubLen:], aad)
	if err != nil {
		return nil, fmt.Errorf("onion: record open: %w", err)
	}
	return pt, nil
}
