package netwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"p2panon/internal/overlay"
	"p2panon/internal/transport"
	"p2panon/internal/wire"
)

// FuzzFrameWire throws arbitrary byte strings at the frame decoder: it
// must never panic, and any frame it accepts must re-encode to exactly
// the input (canonical form). The seed corpus covers one valid frame of
// every kind plus the interesting boundaries — empty input, truncated
// header and body, a bad version byte, an oversized declared length,
// unknown flag bits and trailing garbage.
func FuzzFrameWire(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for k := KindHello; k < kindEnd; k++ {
		frame := randomFrame(f, rng, k)
		buf, err := frame.Encode()
		if err != nil {
			f.Fatalf("%s seed: %v", k, err)
		}
		f.Add(buf)
	}
	valid, err := (&Frame{Kind: KindProbe, Nonce: 7}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})                                    // empty
	f.Add([]byte{0, 0})                                // truncated length prefix
	f.Add(valid[:len(valid)-1])                        // truncated body
	f.Add(append(valid[:4:4], Version+1))              // bad version, truncated
	f.Add(append(append([]byte(nil), valid...), 0xff)) // trailing garbage

	badVersion := append([]byte(nil), valid...)
	badVersion[4] = Version + 9
	f.Add(badVersion)

	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, MaxFrameSize+1)
	f.Add(oversize)

	// Legal global length, absurd for the kind: a probe frame declaring a
	// 1 KiB body must trip the per-kind BodyCap in both decoders.
	fatProbe := make([]byte, 1024)
	fatProbe[0], fatProbe[1] = Version, byte(KindProbe)
	f.Add(encodeRaw(fatProbe))

	msg, err := (&Frame{Kind: KindForward, Batch: 3, Attempt: 8, Responder: 5, Remaining: 4}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	badFlags := append([]byte(nil), msg...)
	badFlags[4+2+72] = 0xff // flags byte: unknown bits
	f.Add(badFlags)

	// A hop budget past transport.MaxBudget and a negative hop index:
	// encodable, refused at decode.
	for _, bad := range []*Frame{
		{Kind: KindForward, Batch: 3, Attempt: 8, Responder: 5, Remaining: 1 << 40},
		{Kind: KindConfirm, Batch: 3, Attempt: 8, Responder: 5, Path: []overlay.NodeID{0, 5}, Hop: -1},
	} {
		buf, err := bad.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}

	// A NACK whose reason byte names no reason: refused at decode.
	nack, err := (&Frame{Kind: KindNack, Batch: 3, Attempt: 8, Responder: 5, Reason: transport.NackDeparted}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	nack[4+2+72+1+2] = 0xff
	f.Add(nack)

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := DecodeFrame(data)
		streamAgrees(t, data)
		if err != nil {
			if frame != nil {
				t.Fatal("decoder returned both a frame and an error")
			}
			return
		}
		out, err := frame.Encode()
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical accept:\n in  %x\n out %x", data, out)
		}
		// Appending behind a prefix is the prefix followed by the encoding.
		prefix := []byte("link buffer")
		if app, err := frame.AppendTo(prefix); err != nil || !bytes.Equal(app, append(prefix, out...)) {
			t.Fatalf("AppendTo(prefix) is not prefix followed by Encode(): %v", err)
		}
	})
}

// streamAgrees holds the stream readers — ReadFrame and a connection's
// read-ahead stream, fed whole and a byte at a time — to the buffer
// decoder: when data holds the whole frame its prefix declares, they
// return what DecodeFrame returns for exactly those bytes (an equal frame,
// or the same error: both run the same checks on the same bytes); when it
// does not, they fail.
func streamAgrees(t *testing.T, data []byte) {
	var want *Frame
	var wantErr error
	end, complete := len(data), false
	if len(data) >= wire.PrefixSize {
		if n := binary.BigEndian.Uint32(data); n > MaxFrameSize || int(n) <= len(data)-wire.PrefixSize {
			end, complete = min(len(data), wire.PrefixSize+int(n)), true
			want, wantErr = DecodeFrame(data[:end])
		}
	}
	check := func(name string, got *Frame, n int, err error) {
		switch {
		case !complete:
			if err == nil {
				t.Fatalf("%s accepted a frame cut short", name)
			}
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: %v, DecodeFrame: %v", name, err, wantErr)
			}
		default:
			if err != nil || n != end || !bytes.Equal(mustEncode(t, got), mustEncode(t, want)) {
				t.Fatalf("%s disagreed with DecodeFrame: n=%d of %d, err=%v", name, n, end, err)
			}
		}
	}
	g, n, err := ReadFrame(bytes.NewReader(data))
	check("ReadFrame", g, n, err)
	for name, src := range map[string]io.Reader{
		"read-ahead stream":                bytes.NewReader(data),
		"read-ahead stream, byte per read": iotest.OneByteReader(bytes.NewReader(data)),
	} {
		var f Frame
		path := make([]overlay.NodeID, 0, 4) // a reader's buffer, too short for some paths
		n, err := readFrame(envelope.NewStream(src, connBuf), &f, &path)
		check(name, &f, n, err)
	}
}
