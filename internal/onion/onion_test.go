package onion

import (
	"bytes"
	"testing"
	"testing/quick"

	"p2panon/internal/overlay"
)

func TestHKDFDeterministicAndLengths(t *testing.T) {
	a := hkdf([]byte("secret"), []byte("salt"), []byte("info"), 64)
	b := hkdf([]byte("secret"), []byte("salt"), []byte("info"), 64)
	if !bytes.Equal(a, b) {
		t.Fatal("hkdf not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("length %d", len(a))
	}
	c := hkdf([]byte("secret"), []byte("salt"), []byte("other"), 64)
	if bytes.Equal(a, c) {
		t.Fatal("different info gave same output")
	}
	d := hkdf([]byte("secret"), nil, []byte("info"), 16)
	if len(d) != 16 {
		t.Fatalf("length %d", len(d))
	}
}

func TestBatchSealOpenRoundTrip(t *testing.T) {
	bk, err := NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := SealToBatch(bk.Public(), []byte("record"), []byte("batch-1"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bk.OpenFromBatch(ct, []byte("batch-1"))
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "record" {
		t.Fatal("mismatch")
	}
}

func TestBatchSealUnlinkable(t *testing.T) {
	// Two seals of the same plaintext differ (fresh ephemeral keys).
	bk, _ := NewBatchKey(nil)
	c1, _ := SealToBatch(bk.Public(), []byte("x"), nil)
	c2, _ := SealToBatch(bk.Public(), []byte("x"), nil)
	if bytes.Equal(c1, c2) {
		t.Fatal("deterministic sealing")
	}
}

func TestBatchOpenWrongKeyFails(t *testing.T) {
	bk1, _ := NewBatchKey(nil)
	bk2, _ := NewBatchKey(nil)
	ct, _ := SealToBatch(bk1.Public(), []byte("x"), nil)
	if _, err := bk2.OpenFromBatch(ct, nil); err == nil {
		t.Fatal("wrong batch key opened record")
	}
	if _, err := bk1.OpenFromBatch(ct[:10], nil); err == nil {
		t.Fatal("truncated record opened")
	}
}

func TestSignedContract(t *testing.T) {
	bk, _ := NewBatchKey(nil)
	c, err := NewSignedContract(7, 75, 150, bk.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Verify() {
		t.Fatal("fresh contract does not verify")
	}
	// Tamper with each field.
	for _, mutate := range []func(*SignedContract){
		func(c *SignedContract) { c.Pf = 99 },
		func(c *SignedContract) { c.Pr = 0 },
		func(c *SignedContract) { c.BatchID = 8 },
		func(c *SignedContract) { c.Sig[0] ^= 1 },
	} {
		mut := *c
		mut.Sig = append([]byte(nil), c.Sig...)
		mutate(&mut)
		if mut.Verify() {
			t.Fatal("tampered contract verified")
		}
	}
}

func TestSignedContractValidation(t *testing.T) {
	bk, _ := NewBatchKey(nil)
	if _, err := NewSignedContract(1, -1, 0, bk.Public()); err == nil {
		t.Fatal("negative Pf accepted")
	}
	if _, err := NewSignedContract(1, 1, 1, nil); err == nil {
		t.Fatal("nil batch key accepted")
	}
	empty := &SignedContract{}
	if empty.Verify() {
		t.Fatal("empty contract verified")
	}
}

// buildRecords creates records for the path I -> relays... -> R.
func buildRecords(t *testing.T, c *SignedContract, cid uint64, path []overlay.NodeID) []PathRecord {
	t.Helper()
	var out []PathRecord
	for i := 1; i < len(path)-1; i++ {
		rec, err := NewPathRecord(c, cid, i, path[i], path[i-1], path[i+1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

func contractKey(t *testing.T) (*SignedContract, *BatchKey) {
	t.Helper()
	bk, err := NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSignedContract(42, 75, 150, bk.Public())
	if err != nil {
		t.Fatal(err)
	}
	return c, bk
}

func TestRecreatePathInOrder(t *testing.T) {
	c, bk := contractKey(t)
	path := []overlay.NodeID{0, 5, 9, 3, 12}
	recs := buildRecords(t, c, 1, path)
	got, err := bk.RecreatePath(c, 1, 0, 12, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(path) {
		t.Fatalf("path %v", got)
	}
	for i := range path {
		if got[i] != path[i] {
			t.Fatalf("path %v != %v", got, path)
		}
	}
}

func TestRecreatePathShuffled(t *testing.T) {
	c, bk := contractKey(t)
	path := []overlay.NodeID{0, 5, 9, 3, 7, 12}
	recs := buildRecords(t, c, 1, path)
	// Reverse the record order — validation must not care.
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	got, err := bk.RecreatePath(c, 1, 0, 12, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(path) {
		t.Fatalf("path %v", got)
	}
}

func TestRecreatePathWithRevisit(t *testing.T) {
	// A node at two different positions produces two records and is
	// reconstructed at both positions (the Table 1 predecessor trick).
	c, bk := contractKey(t)
	path := []overlay.NodeID{0, 5, 9, 5, 3, 12} // 5 appears twice
	recs := buildRecords(t, c, 1, path)
	got, err := bk.RecreatePath(c, 1, 0, 12, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(path) {
		t.Fatalf("path %v != %v", got, path)
	}
	for i := range path {
		if got[i] != path[i] {
			t.Fatalf("path %v != %v", got, path)
		}
	}
}

func TestRecreatePathSingleForwarder(t *testing.T) {
	c, bk := contractKey(t)
	path := []overlay.NodeID{0, 4, 12}
	recs := buildRecords(t, c, 1, path)
	got, err := bk.RecreatePath(c, 1, 0, 12, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 4 {
		t.Fatalf("path %v", got)
	}
}

func TestRecreatePathDetectsMissingRecord(t *testing.T) {
	c, bk := contractKey(t)
	path := []overlay.NodeID{0, 5, 9, 3, 12}
	recs := buildRecords(t, c, 1, path)
	// Drop the middle forwarder's record.
	dropped := append(append([]PathRecord(nil), recs[0]), recs[2])
	if _, err := bk.RecreatePath(c, 1, 0, 12, dropped); err == nil {
		t.Fatal("missing record not detected")
	}
}

func TestRecreatePathDetectsForeignRecord(t *testing.T) {
	c, bk := contractKey(t)
	path := []overlay.NodeID{0, 5, 12}
	recs := buildRecords(t, c, 1, path)
	// A record from another connection of the same batch.
	foreign, err := NewPathRecord(c, 2, 1, 9, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bk.RecreatePath(c, 1, 0, 12, append(recs, foreign)); err == nil {
		t.Fatal("foreign-cid record not detected")
	}
}

func TestRecreatePathDetectsExtraRecord(t *testing.T) {
	c, bk := contractKey(t)
	path := []overlay.NodeID{0, 5, 12}
	recs := buildRecords(t, c, 1, path)
	// A forged "I also forwarded" record that does not chain.
	extra, err := NewPathRecord(c, 1, 2, 9, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bk.RecreatePath(c, 1, 0, 12, append(recs, extra)); err == nil {
		t.Fatal("non-chaining extra record not detected")
	}
}

func TestRecreatePathDetectsGarbledRecord(t *testing.T) {
	c, bk := contractKey(t)
	path := []overlay.NodeID{0, 5, 12}
	recs := buildRecords(t, c, 1, path)
	recs[0].Sealed[len(recs[0].Sealed)-1] ^= 1
	if _, err := bk.RecreatePath(c, 1, 0, 12, recs); err == nil {
		t.Fatal("garbled record not detected")
	}
}

func TestRecreatePathEmpty(t *testing.T) {
	c, bk := contractKey(t)
	if _, err := bk.RecreatePath(c, 1, 0, 12, nil); err == nil {
		t.Fatal("empty records accepted")
	}
}

func TestRecreatePathWrongBatchKey(t *testing.T) {
	c, _ := contractKey(t)
	other, _ := NewBatchKey(nil)
	path := []overlay.NodeID{0, 5, 12}
	recs := buildRecords(t, c, 1, path)
	if _, err := other.RecreatePath(c, 1, 0, 12, recs); err == nil {
		t.Fatal("wrong batch key validated records")
	}
}

// Property: any simple relay path reconstructs exactly, regardless of
// record order.
func TestQuickRecreateSimplePaths(t *testing.T) {
	c, bk := contractKey(t)
	cid := uint64(0)
	f := func(relaysRaw []uint8, rot uint8) bool {
		cid++
		// Build distinct relays in 1..200, path I=0 … R=255.
		seen := map[overlay.NodeID]bool{0: true, 255: true}
		path := []overlay.NodeID{0}
		for _, r := range relaysRaw {
			id := overlay.NodeID(int(r)%200 + 1)
			if seen[id] {
				continue
			}
			seen[id] = true
			path = append(path, id)
			if len(path) > 7 {
				break
			}
		}
		path = append(path, 255)
		if len(path) < 3 {
			return true
		}
		recs := buildRecords(t, c, cid, path)
		// Rotate record order.
		k := int(rot) % len(recs)
		recs = append(recs[k:], recs[:k]...)
		got, err := bk.RecreatePath(c, cid, 0, 255, recs)
		if err != nil {
			return false
		}
		if len(got) != len(path) {
			return false
		}
		for i := range path {
			if got[i] != path[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// failReader errors after n bytes, for exercising entropy-failure paths.
type failReader struct{ n int }

func (f *failReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFail
	}
	k := f.n
	if k > len(p) {
		k = len(p)
	}
	f.n -= k
	return k, nil
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "injected entropy failure" }

func TestNewBatchKeyEntropyFailure(t *testing.T) {
	if _, err := NewBatchKey(&failReader{n: 0}); err == nil {
		t.Fatal("batch key created without entropy")
	}
}

func TestNewPathRecordValidation(t *testing.T) {
	if _, err := NewPathRecord(nil, 1, 1, 2, 3, 4); err == nil {
		t.Fatal("nil contract accepted")
	}
	c, _ := contractKey(t)
	if _, err := NewPathRecord(c, 1, 0, 2, 3, 4); err == nil {
		t.Fatal("hop 0 accepted")
	}
	if _, err := NewPathRecord(c, 1, -3, 2, 3, 4); err == nil {
		t.Fatal("negative hop accepted")
	}
}

func TestDecodeRecordBodyWrongLength(t *testing.T) {
	if _, _, _, _, _, err := decodeRecordBody(make([]byte, 10)); err == nil {
		t.Fatal("short body accepted")
	}
}
