package payment

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzVerifyToken must never panic and never verify a token whose
// signature was not produced by the bank.
func FuzzVerifyToken(f *testing.F) {
	b, err := NewBank(1024)
	if err != nil {
		f.Fatal(err)
	}
	b.OpenAccount(1, 1000)
	req, err := NewWithdrawalRequest(b.PublicKey(), 10, nil)
	if err != nil {
		f.Fatal(err)
	}
	blindSig, err := b.Withdraw(1, req)
	if err != nil {
		f.Fatal(err)
	}
	tok, err := req.Unblind(blindSig)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(10), tok.Serial[:], tok.Sig.Bytes())
	f.Add(int64(0), []byte{}, []byte{})
	f.Add(int64(-5), make([]byte, 32), []byte{1})
	f.Fuzz(func(t *testing.T, denom int64, serial, sig []byte) {
		var mut Token
		mut.Denom = Amount(denom)
		copy(mut.Serial[:], serial)
		mut.Sig = new(big.Int).SetBytes(sig)
		ok := VerifyToken(b.PublicKey(), mut)
		// The only acceptable verification is the genuine token.
		if ok {
			if mut.Denom != tok.Denom || mut.Serial != tok.Serial || mut.Sig.Cmp(tok.Sig) != 0 {
				t.Fatalf("forged token verified: denom=%d", mut.Denom)
			}
		}
	})
}

// FuzzReceiptWire covers the receipt round trip: arbitrary input never
// panics the decoder, accepted input is canonical, and a structured
// receipt survives encode→decode unchanged (including MAC validity).
func FuzzReceiptWire(f *testing.F) {
	m, err := NewReceiptMinter([]byte("fuzz-wire-secret"))
	if err != nil {
		f.Fatal(err)
	}
	genuine := m.Mint(3, 1, 7)
	enc := EncodeReceipt(genuine)
	f.Add(enc, 3, 1, int64(7))
	f.Add([]byte{}, 0, 0, int64(0))
	f.Add(enc[:ReceiptWireSize-1], -1, 1<<30, int64(-9))          // truncated
	f.Add(append(append([]byte{}, enc...), 0xaa), 5, 5, int64(5)) // oversized
	f.Fuzz(func(t *testing.T, data []byte, conn, hop int, fwd int64) {
		if dec, err := DecodeReceipt(data); err == nil {
			if !bytes.Equal(EncodeReceipt(dec), data) {
				t.Fatalf("non-canonical receipt decode of %x", data)
			}
		}
		// Structured round trip, including negative/extreme field values.
		r := Receipt{Conn: conn, Hop: hop, Forwarder: AccountID(fwd)}
		copy(r.MAC[:], data)
		back, err := DecodeReceipt(EncodeReceipt(r))
		if err != nil {
			t.Fatalf("round trip of %+v failed: %v", r, err)
		}
		if back != r {
			t.Fatalf("round trip changed receipt: %+v -> %+v", r, back)
		}
		if m.Verify(back) != m.Verify(r) {
			t.Fatal("wire round trip changed MAC validity")
		}
	})
}

// FuzzAggregateClaimWire throws arbitrary byte strings at the
// aggregate-claim decoder: it must never panic, anything it accepts must
// re-encode to exactly the input (canonical form), and — the settlement
// guarantee — no decoded mutation of a genuine claim may ever verify
// unless it is byte-identical to the genuine encoding. The seed corpus
// covers the attacks by construction: truncation, oversized counts,
// forged chains and replayed prefixes.
func FuzzAggregateClaimWire(f *testing.F) {
	m, err := NewReceiptMinter([]byte("fuzz-aggclaim-secret"))
	if err != nil {
		f.Fatal(err)
	}
	chain := NewClaimChain(7)
	for _, co := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {5, 3}} {
		if err := chain.Add(m.Mint(co[0], co[1], 7)); err != nil {
			f.Fatal(err)
		}
	}
	claim := chain.Claim()
	genuine, err := EncodeAggregateClaim(claim)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte{})
	f.Add(genuine[:11])                            // truncated header
	f.Add(genuine[:len(genuine)-1])                // truncated chain
	f.Add(genuine[:AggClaimWireSize(2)])           // fewer bytes than the count promises
	f.Add(append(append([]byte{}, genuine...), 0)) // trailing garbage

	forged := append([]byte{}, genuine...)
	forged[len(forged)-1] ^= 1 // flipped chain byte
	f.Add(forged)

	oversized := append([]byte{}, genuine...)
	oversized[8], oversized[9] = 0xff, 0xff // count 0xffff0004 > MaxAggEntries
	f.Add(oversized)

	// Replayed prefix: the first two entries with the count fixed up — the
	// chain covers all four, so the prefix must not verify.
	prefix := append([]byte{}, genuine[:AggClaimWireSize(2)-32]...)
	prefix[11] = 2
	prefix = append(prefix, genuine[len(genuine)-32:]...)
	f.Add(prefix)

	zeroCount := append([]byte{}, genuine[:AggClaimWireSize(0)]...)
	zeroCount[11] = 0
	f.Add(zeroCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeAggregateClaim(data)
		if err != nil {
			return
		}
		re, err := EncodeAggregateClaim(dec)
		if err != nil {
			t.Fatalf("decoded claim failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical decode: %x re-encoded as %x", data, re)
		}
		// The settlement gate: only the genuine bytes may ever settle.
		if m.VerifyAggregate(&dec) > 0 && !bytes.Equal(data, genuine) {
			t.Fatalf("forged aggregate claim verified: %x", data)
		}
	})
}

// FuzzReceiptVerify must never panic and never accept a receipt whose MAC
// does not match.
func FuzzReceiptVerify(f *testing.F) {
	m, err := NewReceiptMinter([]byte("fuzz-secret"))
	if err != nil {
		f.Fatal(err)
	}
	genuine := m.Mint(1, 2, 3)
	f.Add(1, 2, int64(3), genuine.MAC[:])
	f.Add(0, 0, int64(0), []byte{})
	f.Fuzz(func(t *testing.T, conn, hop int, fwd int64, mac []byte) {
		var r Receipt
		r.Conn = conn
		r.Hop = hop
		r.Forwarder = AccountID(fwd)
		copy(r.MAC[:], mac)
		if m.Verify(r) {
			want := m.Mint(conn, hop, AccountID(fwd))
			if r.MAC != want.MAC {
				t.Fatal("receipt with wrong MAC verified")
			}
		}
	})
}
