package clusterd

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"p2panon/internal/faultsim"
	"p2panon/internal/wire"
)

// sampleMsgs covers every message kind with representative payloads.
func sampleMsgs() []*Msg {
	return []*Msg{
		{Kind: MsgHello, Worker: 2},
		{Kind: MsgConfig, Worker: 1, Workers: 3, Comp: []byte(`{"seed":7,"workers":3}`)},
		{Kind: MsgAddrs, Addrs: []AddrEntry{
			{Node: 0, Addr: "127.0.0.1:4001"},
			{Node: 3, Addr: "127.0.0.1:4002"},
			{Node: 6, Addr: "127.0.0.1:4003"},
		}},
		{Kind: MsgAddrs},
		{Kind: MsgSignal, Name: "ready"},
		{Kind: MsgRelease, Name: "start-3"},
		{Kind: MsgFault, Fault: "crash", Node: 5, Batch: 2},
		{Kind: MsgResult, Batch: 2, Credits: []faultsim.ClusterCredit{
			{Node: 2, Forwards: 1, PayoffBits: 0x407e000000000000},
			{Node: 4, Forwards: 2, PayoffBits: 0x4080000000000000},
		}},
		{Kind: MsgResult, Batch: 3, Failed: true},
		{Kind: MsgCollect, Batch: 2, Credits: []faultsim.ClusterCredit{{Node: 4, Forwards: 2, PayoffBits: 1}}},
		{Kind: MsgCollect, Batch: 2},
		{Kind: MsgArtifact, ArtifactKind: "spans", Data: []byte("{}\n{}\n")},
		{Kind: MsgArtifact, ArtifactKind: "telemetry"},
		{Kind: MsgShutdown},
		{Kind: MsgError, Text: "worker 1: join: address in use"},
	}
}

func TestMsgRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		body, err := encodeMsg(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Kind, err)
		}
		got, err := DecodeMsg(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Fatalf("%s: round trip:\n got %+v\nwant %+v", m.Kind, got, m)
		}
		// Canonical: re-encoding the decoded message is the identity.
		re, err := encodeMsg(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", m.Kind, err)
		}
		if !bytes.Equal(re, body) {
			t.Fatalf("%s: canonical re-encode diverges", m.Kind)
		}
	}
}

// normalize maps empty and nil slices together for comparison: the
// wire cannot tell them apart, by design.
func normalize(m *Msg) *Msg {
	c := *m
	if len(c.Addrs) == 0 {
		c.Addrs = nil
	}
	if len(c.Credits) == 0 {
		c.Credits = nil
	}
	if len(c.Comp) == 0 {
		c.Comp = nil
	}
	if len(c.Data) == 0 {
		c.Data = nil
	}
	return &c
}

func TestMsgFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMsgs()
	total := 0
	for _, m := range msgs {
		n, err := WriteMsg(&buf, m)
		if err != nil {
			t.Fatalf("%s: write: %v", m.Kind, err)
		}
		total += n
	}
	if buf.Len() != total {
		t.Fatalf("wrote %d bytes, counted %d", buf.Len(), total)
	}
	for _, want := range msgs {
		got, _, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("framing round trip:\n got %+v\nwant %+v", got, want)
		}
	}
	if _, _, err := ReadMsg(&buf); err != io.EOF {
		t.Fatalf("read past end: %v, want EOF", err)
	}
}

func TestEncodeMsgRejections(t *testing.T) {
	long := string(make([]byte, maxName+1))
	cases := []struct {
		name string
		m    *Msg
		want error
	}{
		{"unknown kind", &Msg{Kind: msgEnd}, ErrMsgKind},
		{"zero kind", &Msg{}, ErrMsgKind},
		{"negative worker", &Msg{Kind: MsgHello, Worker: -1}, ErrMsgField},
		{"config without comp", &Msg{Kind: MsgConfig, Workers: 3}, ErrMsgField},
		{"empty barrier name", &Msg{Kind: MsgSignal}, ErrMsgField},
		{"overlong barrier name", &Msg{Kind: MsgSignal, Name: long}, ErrMsgField},
		{"empty fault kind", &Msg{Kind: MsgFault, Node: 1}, ErrMsgField},
		{"empty error text", &Msg{Kind: MsgError}, ErrMsgField},
		{"unsorted addrs", &Msg{Kind: MsgAddrs, Addrs: []AddrEntry{
			{Node: 3, Addr: "a"}, {Node: 1, Addr: "b"},
		}}, ErrMsgOrder},
		{"duplicate addr node", &Msg{Kind: MsgAddrs, Addrs: []AddrEntry{
			{Node: 2, Addr: "a"}, {Node: 2, Addr: "b"},
		}}, ErrMsgOrder},
		{"empty addr", &Msg{Kind: MsgAddrs, Addrs: []AddrEntry{{Node: 0}}}, ErrMsgField},
		{"unsorted credits", &Msg{Kind: MsgCollect, Credits: []faultsim.ClusterCredit{
			{Node: 5}, {Node: 4},
		}}, ErrMsgOrder},
		{"negative forwards", &Msg{Kind: MsgCollect, Credits: []faultsim.ClusterCredit{
			{Node: 1, Forwards: -1},
		}}, ErrMsgField},
		{"empty artifact kind", &Msg{Kind: MsgArtifact, Data: []byte("x")}, ErrMsgField},
	}
	for _, tc := range cases {
		if _, err := encodeMsg(tc.m); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeMsgRejections(t *testing.T) {
	valid := func(m *Msg) []byte {
		t.Helper()
		b, err := encodeMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	hello := valid(&Msg{Kind: MsgHello, Worker: 1})
	signal := valid(&Msg{Kind: MsgSignal, Name: "ready"})
	result := valid(&Msg{Kind: MsgResult, Batch: 1})
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrMsgShort},
		{"version only", []byte{WireVersion}, ErrMsgShort},
		{"bad version", []byte{WireVersion + 1, byte(MsgHello), 0, 0, 0, 1}, ErrMsgVersion},
		{"zero kind", []byte{WireVersion, 0}, ErrMsgKind},
		{"unknown kind", []byte{WireVersion, byte(msgEnd)}, ErrMsgKind},
		{"truncated hello", hello[:len(hello)-1], ErrMsgShort},
		{"oversized hello", append(append([]byte(nil), hello...), 0), ErrMsgOversized},
		{"trailing signal bytes", append(append([]byte(nil), signal...), 0), ErrMsgTrailing},
		{"trailing shutdown bytes", []byte{WireVersion, byte(MsgShutdown), 7}, ErrMsgOversized},
		{"result failed flag 2", flipByte(result, 2+4, 2), ErrMsgField},
		{"truncated result credits", result[:len(result)-2], ErrMsgShort},
		// A credits count far beyond the entry bound, with no bytes
		// behind it.
		{"credit count bound", []byte{WireVersion, byte(MsgCollect),
			0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, ErrMsgEntryCount},
		{"addr count bound", []byte{WireVersion, byte(MsgAddrs),
			0xff, 0xff, 0xff, 0xff}, ErrMsgEntryCount},
		{"unsorted credits", []byte{WireVersion, byte(MsgCollect),
			0, 0, 0, 1, // batch
			0, 0, 0, 2, // two entries
			0, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // node 5
			0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // node 4: out of order
		}, ErrMsgOrder},
		{"zero-length barrier name", []byte{WireVersion, byte(MsgSignal), 0, 0}, ErrMsgField},
	}
	for _, tc := range cases {
		if _, err := DecodeMsg(tc.body); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// flipByte returns a copy of b with b[i] set to v.
func flipByte(b []byte, i int, v byte) []byte {
	c := append([]byte(nil), b...)
	c[i] = v
	return c
}

func TestReadMsgCaps(t *testing.T) {
	// Oversized frame header: rejected before any body allocation.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadMsg(bytes.NewReader(hdr)); !errors.Is(err, ErrMsgOversized) {
		t.Fatalf("oversized header: %v", err)
	}
	// Sub-minimal frame length.
	if _, _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 1, 9})); !errors.Is(err, ErrMsgShort) {
		t.Fatalf("short frame: %v", err)
	}
	// Truncated body after a plausible header.
	if _, _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 9, WireVersion, byte(MsgHello)})); err == nil {
		t.Fatal("truncated body: want error")
	}
	// A hello prologue declaring a 4 MiB body — within the global bound,
	// absurd for a hello: refused from the prefix and prologue alone, with
	// the declared body neither read nor allocated.
	src := bytes.NewReader(append([]byte{0x00, 0x40, 0x00, 0x00, WireVersion, byte(MsgHello)}, make([]byte, 100)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := ReadMsg(src)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMsgOversized) || n != 6 || src.Len() != 100 {
		t.Fatalf("fat hello: n=%d, %d bytes left unread, err=%v; want 6, 100 and ErrMsgOversized", n, src.Len(), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("fat hello made ReadMsg allocate %d bytes", grew)
	}
}

// FuzzBarrierWire pins the codec's canonical property: any body that
// decodes re-encodes to the identical bytes, and survives a framed
// write/read cycle unchanged. Malformed bodies must error, never
// panic or mis-parse.
func FuzzBarrierWire(f *testing.F) {
	for _, m := range sampleMsgs() {
		body, err := encodeMsg(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		if len(body) > 2 {
			f.Add(body[:len(body)-1])        // truncated
			f.Add(append(body, 0))           // trailing byte
			f.Add(flipByte(body, 0, 9))      // bad version
			f.Add(flipByte(body, 1, 0xee))   // bad kind
			f.Add(append(body, body[2:]...)) // oversized / trailing run
		}
	}
	f.Add([]byte{})
	f.Add([]byte{WireVersion})
	f.Add([]byte{WireVersion, byte(MsgShutdown)})
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeMsg(body)
		if err != nil {
			return
		}
		re, err := encodeMsg(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if !bytes.Equal(re, body) {
			t.Fatalf("canonical identity broken:\n in  %x\n out %x", body, re)
		}
		var buf bytes.Buffer
		if _, err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("frame write: %v", err)
		}
		got, n, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("frame read: %v", err)
		}
		if n != 4+len(body) {
			t.Fatalf("frame consumed %d bytes, want %d", n, 4+len(body))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("framed round trip diverges:\n got %+v\nwant %+v", got, m)
		}
	})
}

// encodeMsg renders the canonical body (version, kind, payload) for m: the
// frame WriteMsg writes, without its length prefix. It validates the same
// bounds DecodeMsg enforces, so every encodable message round-trips.
func encodeMsg(m *Msg) ([]byte, error) {
	frame, err := encodeFrame(m)
	if err != nil {
		return nil, err
	}
	return frame[wire.PrefixSize:], nil
}
