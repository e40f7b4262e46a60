package netwire

import (
	"testing"

	"p2panon/internal/overlay"
	"p2panon/internal/payment"
)

// probeFrame is the benchmark harness's codec probe: the three-hop forward
// its netwire.frame_encode_ns / frame_decode_ns metrics time through the
// cold Encode and DecodeFrame.
func probeFrame() *Frame {
	return &Frame{
		Kind: KindForward, Batch: 1, Conn: 1, Attempt: 1,
		From: 3, Initiator: 0, Responder: 9, Remaining: 2, Hop: 3,
		Path: []overlay.NodeID{0, 1, 2, 3}, DeadlineMicros: 1_000_000,
	}
}

// claimFrame is a forwarder's aggregate claim over n forwarding instances,
// as the benchmark's live workloads put every claim through the codec
// once per batch.
func claimFrame(n int) *Frame {
	c := payment.AggregateClaim{Forwarder: 4, Entries: make([]payment.AggEntry, n)}
	for i := range c.Entries {
		c.Entries[i] = payment.AggEntry{Conn: i / 2, Hop: 1 + i%2}
		c.Chain[i%32] = byte(i)
	}
	return &Frame{Kind: KindClaim, Batch: 12, AggClaim: &c}
}

// TestFrameCodecColdAllocs pins what the cold codec forms cost per frame:
// Encode (a fresh buffer) and DecodeFrame (a fresh Frame) of the probe
// forward and of a 10-entry claim frame stay within the allocations they
// took when the three codecs still had private cursors.
func TestFrameCodecColdAllocs(t *testing.T) {
	for _, tc := range []struct {
		name           string
		f              *Frame
		encode, decode float64
	}{
		{"forward", probeFrame(), 5, 2},
		{"claim", claimFrame(10), 5, 3},
	} {
		buf := mustEncode(t, tc.f)
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := tc.f.Encode(); err != nil {
				t.Fatal(err)
			}
		}); allocs > tc.encode {
			t.Errorf("%s: Encode %v allocs, want <= %v", tc.name, allocs, tc.encode)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := DecodeFrame(buf); err != nil {
				t.Fatal(err)
			}
		}); allocs > tc.decode {
			t.Errorf("%s: DecodeFrame %v allocs, want <= %v", tc.name, allocs, tc.decode)
		}
	}
}

// TestClaimFrameEncodeAllocs pins a claim frame's Encode, one per claim
// per batch: one buffer, with and without trace context.
func TestClaimFrameEncodeAllocs(t *testing.T) {
	traced := claimFrame(10)
	traced.Trace, traced.Span = 7, 9
	for _, f := range []*Frame{claimFrame(10), traced} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := f.Encode(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("trace %d: claim frame Encode allocates %v times, want 1", f.Trace, allocs)
		}
	}
}

// TestDecodedForwardPathHasRoom pins the receiver's side of a FORWARD: the
// decoded path has room for the hop that receives it, so the append that
// opens Driver.handleForward allocates nothing.
func TestDecodedForwardPathHasRoom(t *testing.T) {
	const runs = 100
	buf := mustEncode(t, probeFrame())
	frames := make([]*Frame, runs+1) // AllocsPerRun calls once more to warm up
	for i := range frames {
		f, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		f := frames[i]
		i++
		f.Path = append(f.Path, 4)
	})
	if allocs != 0 {
		t.Fatalf("appending the receiving hop to a decoded FORWARD's path: %v allocs, want 0", allocs)
	}
	if got := frames[0].Path; len(got) != 5 || got[4] != 4 {
		t.Fatalf("path after the append: %v", got)
	}
}

// BenchmarkFrameCodec times the frame codec on its own, outside the
// benchmark module: the probe forward and a 10-entry claim frame, each
// through Encode, AppendTo into a warm buffer (a link writer's steady
// state) and DecodeFrame.
func BenchmarkFrameCodec(b *testing.B) {
	for _, tc := range []struct {
		name string
		f    *Frame
	}{
		{"forward", probeFrame()},
		{"claim10", claimFrame(10)},
	} {
		enc := mustEncode(b, tc.f)
		b.Run(tc.name+"/Encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.f.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/AppendTo", func(b *testing.B) {
			b.ReportAllocs()
			buf := append([]byte(nil), enc...)
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = tc.f.AppendTo(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/DecodeFrame", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeFrame(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
