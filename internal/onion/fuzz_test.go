package onion

import (
	"testing"

	"p2panon/internal/overlay"
)

// FuzzOpenFromBatch feeds arbitrary ciphertexts to the record-opening
// path: it must never panic and never "successfully" open garbage.
func FuzzOpenFromBatch(f *testing.F) {
	bk, err := NewBatchKey(nil)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := SealToBatch(bk.Public(), encodeRecordBody(1, 1, 2, 3, 4), []byte("aad"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, []byte("aad"))
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 31), []byte("aad"))
	f.Add(make([]byte, 32), []byte("aad"))
	f.Add(make([]byte, 64), []byte(nil))
	f.Fuzz(func(t *testing.T, ct, aad []byte) {
		pt, err := bk.OpenFromBatch(ct, aad)
		if err == nil {
			// Only the seeded valid ciphertext with its exact AAD can
			// open; anything that opens must decode cleanly.
			if _, _, _, _, _, derr := decodeRecordBody(pt); derr != nil {
				t.Fatalf("opened ciphertext with undecodable body: %v", derr)
			}
		}
	})
}

// FuzzRecordBodyRoundTrip checks encode/decode inverse behaviour over the
// full field ranges, including the overlay.None sentinel.
func FuzzRecordBodyRoundTrip(f *testing.F) {
	f.Add(uint64(1), 1, int64(2), int64(-1), int64(4))
	f.Add(uint64(0), 1000000, int64(-1), int64(0), int64(1<<40))
	f.Fuzz(func(t *testing.T, cid uint64, hop int, self, pred, succ int64) {
		buf := encodeRecordBody(cid, hop, overlay.NodeID(self), overlay.NodeID(pred), overlay.NodeID(succ))
		gcid, ghop, gself, gpred, gsucc, err := decodeRecordBody(buf)
		if err != nil {
			t.Fatal(err)
		}
		if gcid != cid || ghop != hop || int64(gself) != self || int64(gpred) != pred || int64(gsucc) != succ {
			t.Fatalf("round trip mismatch: (%d %d %d %d %d) vs (%d %d %d %d %d)",
				cid, hop, self, pred, succ, gcid, ghop, gself, gpred, gsucc)
		}
	})
}

// FuzzRecreatePathNeverPanics throws malformed record sets at validation.
func FuzzRecreatePathNeverPanics(f *testing.F) {
	bk, err := NewBatchKey(nil)
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewSignedContract(9, 50, 100, bk.Public())
	if err != nil {
		f.Fatal(err)
	}
	rec, err := NewPathRecord(c, 1, 1, 5, 0, 9)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Sealed, rec.Sealed)
	f.Add([]byte{1, 2, 3}, []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		recs := []PathRecord{{Sealed: a}, {Sealed: b}}
		// Must not panic; errors are expected for almost every input.
		_, _ = bk.RecreatePath(c, 1, 0, 9, recs)
	})
}
