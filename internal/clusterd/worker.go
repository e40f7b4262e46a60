package clusterd

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sort"
	"strconv"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/faultsim"
	"p2panon/internal/netwire"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// worker is one cluster process: a netwire runtime hosting its share of
// the world's nodes, driven entirely by the orchestrator's control
// connection. The control connection is also the worker's lifeline —
// when it dies, the worker exits, so a crashed orchestrator leaves no
// orphans behind.
type worker struct {
	conn    net.Conn
	index   int
	comp    Composition
	cluster *netwire.Cluster
	router  *RingRouter
	rec     *telemetry.SpanRecorder
	specs   []BatchSpec
	local   map[int]bool
	lastTo  map[int]string // last directory addr seen per remote node
	ready   bool
}

// RunWorker connects to the orchestrator at orchAddr as worker index
// and serves the control protocol until shutdown (clean exit) or the
// connection dies.
func RunWorker(orchAddr string, index int) error {
	conn, err := net.DialTimeout("tcp", orchAddr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("clusterd: worker %d: dial orchestrator: %w", index, err)
	}
	defer conn.Close()
	w := &worker{conn: conn, index: index, local: make(map[int]bool), lastTo: make(map[int]string)}
	if err := w.send(&Msg{Kind: MsgHello, Worker: index}); err != nil {
		return err
	}
	err = w.serve()
	if w.cluster != nil {
		w.cluster.Close()
	}
	if err != nil {
		// Best effort: tell the orchestrator why before dying.
		text := err.Error()
		if len(text) > maxText {
			text = text[:maxText]
		}
		w.send(&Msg{Kind: MsgError, Text: text})
	}
	return err
}

func (w *worker) send(m *Msg) error {
	_, err := WriteMsg(w.conn, m)
	return err
}

func (w *worker) recv() (*Msg, error) {
	m, _, err := ReadMsg(w.conn)
	return m, err
}

func (w *worker) serve() error {
	m, err := w.recv()
	if err != nil {
		return err
	}
	if m.Kind != MsgConfig || m.Worker != w.index {
		return fmt.Errorf("clusterd: worker %d: bad config message", w.index)
	}
	var comp Composition
	if err := faultsim.UnmarshalStrict(m.Comp, &comp); err != nil {
		return fmt.Errorf("clusterd: worker %d: composition: %w", w.index, err)
	}
	w.comp = comp.Normalize()
	w.specs = w.comp.Workload()

	w.cluster = netwire.NewCluster(netwire.Config{
		Latency: time.Duration(w.comp.Latency * float64(time.Second)),
	})
	w.cluster.SetRetry(w.comp.Retry())
	w.rec = telemetry.NewSpanRecorder(w.comp.TraceCap)
	w.rec.SetSeed(int64(w.comp.Seed))
	w.cluster.SetSpans(w.rec)
	w.router = NewRingRouter(w.comp.Nodes)

	addrs := make(map[int]string)
	for _, n := range w.comp.AssignedNodes(w.index) {
		if err := w.cluster.Join(overlay.NodeID(n), w.router); err != nil {
			return err
		}
		w.local[n] = true
		addrs[n] = w.cluster.Node(overlay.NodeID(n)).Addr()
	}
	if err := w.send(&Msg{Kind: MsgAddrs, Addrs: sortedAddrEntries(addrs)}); err != nil {
		return err
	}

	for {
		m, err := w.recv()
		if err != nil {
			return err
		}
		switch m.Kind {
		case MsgAddrs:
			w.applyAddrs(m)
			// The first directory broadcast doubles as the go-ahead to
			// report readiness; later broadcasts are restart updates.
			if !w.ready {
				w.ready = true
				if err := w.send(&Msg{Kind: MsgSignal, Name: "ready"}); err != nil {
					return err
				}
			}
		case MsgFault:
			if err := w.applyFault(m); err != nil {
				return err
			}
		case MsgRelease:
			var b int
			if n, _ := fmt.Sscanf(m.Name, "start-%d", &b); n == 1 {
				if b < 1 || b > len(w.specs) {
					return fmt.Errorf("clusterd: worker %d: release for batch %d of %d", w.index, b, len(w.specs))
				}
				if err := w.runBatch(w.specs[b-1]); err != nil {
					return err
				}
			}
		case MsgCollect:
			if err := w.collect(m); err != nil {
				return err
			}
		case MsgShutdown:
			return w.upload()
		default:
			return fmt.Errorf("clusterd: worker %d: unexpected %s", w.index, m.Kind)
		}
	}
}

// applyAddrs folds a directory broadcast in: remote nodes are
// registered for dial-back, and a node whose address changed (a
// restart moved its listener) is marked live again.
func (w *worker) applyAddrs(m *Msg) {
	for _, e := range m.Addrs {
		if w.local[e.Node] {
			continue
		}
		if w.lastTo[e.Node] == e.Addr {
			continue
		}
		first := w.lastTo[e.Node] == ""
		w.lastTo[e.Node] = e.Addr
		w.cluster.RegisterPeer(overlay.NodeID(e.Node), e.Addr)
		if !first {
			w.cluster.MarkLive(overlay.NodeID(e.Node))
		}
	}
}

// applyFault executes one boundary fault. Crashes kill the node at its
// owner and mark it dead on every worker; restarts re-join it at its
// owner (which reports the new address back) and mark it live
// everywhere — the address broadcast that follows lands before the
// next batch's release on every control connection.
func (w *worker) applyFault(m *Msg) error {
	id := overlay.NodeID(m.Node)
	switch m.Fault {
	case faultsim.FaultCrash:
		if w.local[m.Node] {
			w.cluster.RemovePeer(id)
		}
		w.cluster.MarkDead(id)
	case faultsim.FaultRestart:
		if w.local[m.Node] {
			if w.cluster.Node(id) == nil {
				if err := w.cluster.Join(id, w.router); err != nil {
					return err
				}
			}
			w.cluster.MarkLive(id)
			return w.send(&Msg{Kind: MsgAddrs, Addrs: []AddrEntry{
				{Node: m.Node, Addr: w.cluster.Node(id).Addr()},
			}})
		}
		w.cluster.MarkLive(id)
	default:
		return fmt.Errorf("clusterd: worker %d: unsupported fault %q", w.index, m.Fault)
	}
	return nil
}

// runBatch runs and settles one batch if this worker owns its
// initiator, then reports the outcome.
func (w *worker) runBatch(spec BatchSpec) error {
	if w.comp.Owner(int(spec.Initiator)) != w.index {
		return nil
	}
	res := &Msg{Kind: MsgResult, Batch: spec.Batch}
	out, err := w.cluster.RunBatch(spec.Initiator, spec.Responder, spec.Batch, spec.Conns, spec.Budget, spec.Timeout)
	if err != nil {
		res.Failed = true
		return w.send(res)
	}
	contract := core.Contract{Pf: float64(w.comp.Pf), Pr: float64(w.comp.Pr)}
	if _, err := w.cluster.SettleBatch(spec.Initiator, spec.Batch, out, contract); err != nil {
		res.Failed = true
		return w.send(res)
	}
	res.Credits = creditEntries(out, contract)
	return w.send(res)
}

// creditEntries renders the outcome's owed credits canonically.
func creditEntries(out *transport.BatchOutcome, contract core.Contract) []faultsim.ClusterCredit {
	ids := make([]overlay.NodeID, 0, len(out.Set))
	for id := range out.Set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	entries := make([]faultsim.ClusterCredit, 0, len(ids))
	for _, id := range ids {
		entries = append(entries, faultsim.ClusterCredit{
			Node:       int(id),
			Forwards:   out.Forwards[id],
			PayoffBits: math.Float64bits(out.Payoff(id, contract)),
		})
	}
	return entries
}

// collect polls the owed credits of this worker's nodes until they all
// landed (settle frames are asynchronous), then signals the batch's done
// barrier.
func (w *worker) collect(m *Msg) error {
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < len(m.Credits) && time.Now().Before(deadline); {
		e := m.Credits[i]
		if nd := w.cluster.Node(overlay.NodeID(e.Node)); nd != nil && math.Float64bits(nd.Credited(m.Batch)) == e.PayoffBits {
			i++
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
	return w.send(&Msg{Kind: MsgSignal, Name: fmt.Sprintf("done-%d", m.Batch)})
}

// upload ships the three artifacts the orchestrator waits for: the span
// log, the telemetry snapshot and how many spans the recorder dropped.
func (w *worker) upload() error {
	var spans bytes.Buffer
	if err := w.rec.WriteJSONL(&spans); err != nil {
		return err
	}
	if err := w.send(&Msg{Kind: MsgArtifact, ArtifactKind: "spans", Data: spans.Bytes()}); err != nil {
		return err
	}
	var tel bytes.Buffer
	if err := w.cluster.Telemetry().WriteJSON(&tel); err != nil {
		return err
	}
	if err := w.send(&Msg{Kind: MsgArtifact, ArtifactKind: "telemetry", Data: tel.Bytes()}); err != nil {
		return err
	}
	dropped := []byte(strconv.FormatUint(w.rec.Dropped(), 10))
	return w.send(&Msg{Kind: MsgArtifact, ArtifactKind: "dropped", Data: dropped})
}
