// Package clusterd is the multi-process cluster orchestrator: it
// launches real node processes from a declarative composition (the
// faultsim Plan schema plus a worker count), coordinates batch
// start/settle across them with a small length-prefixed sync/barrier
// protocol, injects the plan's crash/restart churn at batch boundaries,
// and collects every process's span log and telemetry snapshot into one
// causally merged run artifact. The data plane is internal/netwire
// unchanged — each worker hosts a subset of the world's nodes in its
// own netwire.Cluster and reaches remote peers through dial-back
// addresses the orchestrator broadcasts.
package clusterd

import (
	"errors"
	"fmt"
	"io"

	"p2panon/internal/faultsim"
	"p2panon/internal/wire"
)

// Control-protocol constants. Messages travel in internal/wire's frame
// envelope, the one netwire frames use: a 4-byte big-endian length
// prefix, then a body of version byte, kind byte, and a canonical
// payload. Canonical means decode∘encode is the identity on every valid
// body: fixed field order, minimal lengths, strictly ascending entry
// lists, no trailing bytes — the property FuzzBarrierWire pins.
const (
	WireVersion = 2

	maxBody         = 1 << 22 // absolute body bound (artifact uploads)
	maxName         = 128     // barrier names
	maxFaultKind    = 32
	maxArtifactKind = 32
	maxText         = 4096 // error messages
	maxAddr         = 256  // dial-back addresses
	maxEntries      = 1 << 16
	maxComp         = 1 << 20 // composition JSON
)

// MsgKind enumerates the control-protocol messages.
type MsgKind byte

const (
	// MsgHello introduces a worker to the orchestrator (worker index).
	MsgHello MsgKind = 1 + iota
	// MsgConfig carries the composition JSON and this worker's identity.
	// The node assignment is derived from (worker, workers) by both
	// sides, so it never travels.
	MsgConfig
	// MsgAddrs carries a node→address directory fragment: a worker's
	// dial-back addresses after joining its nodes, or the orchestrator's
	// merged directory, one message broadcast to every worker.
	MsgAddrs
	// MsgSignal is a worker's arrival at a named barrier.
	MsgSignal
	// MsgRelease opens a named barrier once every live worker signalled.
	MsgRelease
	// MsgFault directs a node fault: "crash" kills the node at its owner
	// and marks it dead everywhere; "restart" re-joins it at its owner.
	MsgFault
	// MsgResult reports a settled batch from the initiator's owner: the
	// outcome's forwarder set with per-node forwards and payoff bits.
	MsgResult
	// MsgCollect hands a worker the owed credits of its locally hosted
	// nodes; it signals the batch's done barrier once they have landed.
	MsgCollect
	// MsgArtifact uploads one run artifact (span JSONL, telemetry JSON,
	// debug log) from a worker during shutdown.
	MsgArtifact
	// MsgShutdown tells a worker to upload artifacts and exit.
	MsgShutdown
	// MsgError reports a fatal worker-side error to the orchestrator.
	MsgError

	msgEnd
)

// String names the kind for logs and errors.
func (k MsgKind) String() string {
	switch k {
	case MsgHello:
		return "hello"
	case MsgConfig:
		return "config"
	case MsgAddrs:
		return "addrs"
	case MsgSignal:
		return "signal"
	case MsgRelease:
		return "release"
	case MsgFault:
		return "fault"
	case MsgResult:
		return "result"
	case MsgCollect:
		return "collect"
	case MsgArtifact:
		return "artifact"
	case MsgShutdown:
		return "shutdown"
	case MsgError:
		return "error"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Codec errors: each names exactly one way a body can be malformed, so
// tests and the fuzzer can assert the right one. All but ErrMsgOrder are
// internal/wire's shared set under this package's names.
var (
	ErrMsgShort      = wire.ErrShort
	ErrMsgVersion    = wire.ErrVersion
	ErrMsgKind       = wire.ErrKind
	ErrMsgOversized  = wire.ErrOversized
	ErrMsgTrailing   = wire.ErrTrailing
	ErrMsgField      = wire.ErrField
	ErrMsgOrder      = errors.New("clusterd: entry list not strictly ascending")
	ErrMsgEntryCount = wire.ErrCount
)

// AddrEntry is one directory line: a node and its dial-back address.
type AddrEntry struct {
	Node int
	Addr string
}

// Msg is one control-protocol message; which fields matter depends on
// Kind (see the MsgKind constants).
type Msg struct {
	Kind MsgKind

	Worker  int // hello, config
	Workers int // config

	Comp []byte // config: composition JSON

	Addrs []AddrEntry // addrs: strictly ascending by Node

	Name string // signal, release: barrier name

	Fault string // fault: "crash" | "restart"
	Node  int    // fault

	Batch  int  // result, collect; fault boundary
	Failed bool // result

	// Credits (result, collect): strictly ascending by Node.
	Credits []faultsim.ClusterCredit

	ArtifactKind string // artifact
	Data         []byte // artifact
	Text         string // error
}

// bodyCap bounds a kind's body size, checked before any body is
// allocated: fixed-layout kinds get exact caps, variable kinds the global
// bound, unknown kinds -1.
func bodyCap(k byte) int {
	switch MsgKind(k) {
	case MsgHello:
		return 2 + 4
	case MsgShutdown:
		return 2
	case MsgSignal, MsgRelease:
		return 2 + 2 + maxName
	case MsgFault:
		return 2 + 2 + maxFaultKind + 4 + 4
	case MsgError:
		return 2 + 2 + maxText
	case MsgConfig, MsgAddrs, MsgResult, MsgCollect, MsgArtifact:
		return maxBody
	default:
		return -1
	}
}

// envelope is the control protocol's framing: its version and per-kind
// caps.
var envelope = wire.Envelope{Version: WireVersion, Max: maxBody, Cap: bodyCap}

// WriteMsg frames and writes one message, returning bytes written.
func WriteMsg(w io.Writer, m *Msg) (int, error) {
	frame, err := encodeFrame(m)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// encodeFrame renders m's whole frame: length prefix, then body.
func encodeFrame(m *Msg) ([]byte, error) {
	b, err := appendPayload(envelope.Begin(make([]byte, 0, 64), byte(m.Kind)), m)
	if err == nil {
		err = envelope.End(b, 0)
	}
	return b, err
}

func appendPayload(b []byte, m *Msg) ([]byte, error) {
	var err error
	switch m.Kind {
	case MsgHello:
		if m.Worker < 0 {
			return nil, ErrMsgField
		}
		b = wire.AppendU32(b, m.Worker)
	case MsgConfig:
		if m.Worker < 0 || m.Workers < 1 || len(m.Comp) == 0 {
			return nil, ErrMsgField
		}
		b = wire.AppendU32(b, m.Worker)
		b = wire.AppendU32(b, m.Workers)
		b, err = wire.AppendBytes32(b, m.Comp, maxComp)
	case MsgAddrs:
		if len(m.Addrs) > maxEntries {
			return nil, ErrMsgEntryCount
		}
		b = wire.AppendU32(b, len(m.Addrs))
		prev := -1
		for _, e := range m.Addrs {
			if e.Node <= prev {
				return nil, ErrMsgOrder
			}
			prev = e.Node
			if b, err = appendName(wire.AppendU32(b, e.Node), e.Addr, maxAddr); err != nil {
				return nil, err
			}
		}
	case MsgSignal, MsgRelease:
		b, err = appendName(b, m.Name, maxName)
	case MsgFault:
		if m.Node < 0 || m.Batch < 0 {
			return nil, ErrMsgField
		}
		if b, err = appendName(b, m.Fault, maxFaultKind); err == nil {
			b = wire.AppendU32(wire.AppendU32(b, m.Node), m.Batch)
		}
	case MsgResult:
		if m.Batch < 0 {
			return nil, ErrMsgField
		}
		b = wire.AppendU32(b, m.Batch)
		if m.Failed {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b, err = appendCredits(b, m.Credits)
	case MsgCollect:
		if m.Batch < 0 {
			return nil, ErrMsgField
		}
		b, err = appendCredits(wire.AppendU32(b, m.Batch), m.Credits)
	case MsgArtifact:
		if b, err = appendName(b, m.ArtifactKind, maxArtifactKind); err == nil {
			b, err = wire.AppendBytes32(b, m.Data, maxBody)
		}
	case MsgShutdown:
	case MsgError:
		b, err = appendName(b, m.Text, maxText)
	default:
		return nil, ErrMsgKind
	}
	return b, err
}

// appendName appends a string field that must be non-empty and at most
// max bytes; readName is its decoder.
func appendName(b []byte, s string, max int) ([]byte, error) {
	if s == "" {
		return b, ErrMsgField
	}
	return wire.AppendBytes16(b, s, max)
}

func readName(r *wire.Reader, max int) string {
	s := r.String16(max)
	r.Check(s != "", ErrMsgField)
	return s
}

func appendCredits(b []byte, entries []faultsim.ClusterCredit) ([]byte, error) {
	if len(entries) > maxEntries {
		return nil, ErrMsgEntryCount
	}
	b = wire.AppendU32(b, len(entries))
	prev := -1
	for _, e := range entries {
		if e.Node <= prev {
			return nil, ErrMsgOrder
		}
		if e.Forwards < 0 {
			return nil, ErrMsgField
		}
		prev = e.Node
		b = wire.AppendU32(b, e.Node)
		b = wire.AppendU32(b, e.Forwards)
		b = wire.AppendU64(b, e.PayoffBits)
	}
	return b, nil
}

// readCredits decodes a credit list, its entry count bounded and its
// bytes present before anything is allocated.
func readCredits(r *wire.Reader) []faultsim.ClusterCredit {
	n := r.U32()
	r.Check(n <= maxEntries, ErrMsgEntryCount)
	raw := wire.NewReader(r.Take(16 * n))
	if r.Err() != nil {
		return nil
	}
	entries := make([]faultsim.ClusterCredit, n)
	prev := -1
	for i := range entries {
		e := faultsim.ClusterCredit{Node: raw.U32(), Forwards: raw.U32(), PayoffBits: raw.U64()}
		r.Check(e.Node > prev, ErrMsgOrder)
		prev, entries[i] = e.Node, e
	}
	return entries
}

// DecodeMsg parses one canonical body. Every violation of the canonical
// form — wrong version, unknown kind, short or trailing bytes, overlong
// or empty fields, unsorted entries — is an error, never a guess.
func DecodeMsg(body []byte) (*Msg, error) {
	if err := envelope.Check(body); err != nil {
		return nil, err
	}
	r := wire.NewReader(body[2:])
	m := &Msg{Kind: MsgKind(body[1])}
	switch m.Kind {
	case MsgHello:
		m.Worker = r.U32()
	case MsgConfig:
		m.Worker, m.Workers = r.U32(), r.U32()
		r.Check(m.Workers >= 1, ErrMsgField)
		m.Comp = append([]byte(nil), r.Bytes32(maxComp)...)
		r.Check(len(m.Comp) > 0, ErrMsgField)
	case MsgAddrs:
		n := r.U32()
		r.Check(n <= maxEntries, ErrMsgEntryCount)
		prev := -1
		for i := 0; i < n && r.Err() == nil; i++ {
			e := AddrEntry{Node: r.U32(), Addr: readName(&r, maxAddr)}
			r.Check(e.Node > prev, ErrMsgOrder)
			prev = e.Node
			m.Addrs = append(m.Addrs, e)
		}
	case MsgSignal, MsgRelease:
		m.Name = readName(&r, maxName)
	case MsgFault:
		m.Fault = readName(&r, maxFaultKind)
		m.Node, m.Batch = r.U32(), r.U32()
	case MsgResult:
		m.Batch = r.U32()
		failed := r.U8()
		r.Check(failed <= 1, ErrMsgField)
		m.Failed = failed == 1
		m.Credits = readCredits(&r)
	case MsgCollect:
		m.Batch = r.U32()
		m.Credits = readCredits(&r)
	case MsgArtifact:
		m.ArtifactKind = readName(&r, maxArtifactKind)
		m.Data = append([]byte(nil), r.Bytes32(maxBody)...)
	case MsgError:
		m.Text = readName(&r, maxText)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadMsg reads one length-prefixed message — nothing past it — checking
// the declared length against the kind's body cap from the prologue
// alone, before any body allocation. Returns the message and bytes
// consumed.
func ReadMsg(r io.Reader) (*Msg, int, error) {
	body, n, err := envelope.NewStream(r, wire.HeadSize).Next()
	if err != nil {
		return nil, n, err
	}
	m, err := DecodeMsg(body)
	if err != nil {
		return nil, n, err
	}
	return m, n, nil
}
