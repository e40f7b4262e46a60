package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"p2panon/internal/faultsim"
	"p2panon/internal/telemetry"
)

// SpawnFunc builds the (unstarted) command for one worker process. The
// command must eventually call RunWorker(orchAddr, worker) — typically
// by re-executing the current binary with a worker flag. The
// orchestrator attaches per-worker log files (when an artifact
// directory is set) and starts the command itself.
type SpawnFunc func(worker int, orchAddr string) (*exec.Cmd, error)

// RunResult is the merged artifact of one cluster run: every batch's
// outcome with the credits its contract owes, the causally merged span
// log, and the invariant violations found over the two.
type RunResult struct {
	Batches    []faultsim.ClusterBatch `json:"batches"`
	Violations []faultsim.Violation    `json:"violations,omitempty"`
	Duplicates int                     `json:"duplicate_spans"`
	Dropped    int                     `json:"dropped_spans,omitempty"`

	Spans []telemetry.Span `json:"-"` // written separately as spans.jsonl
}

// Orchestrator runs one composition across real worker processes: it
// spawns them, coordinates batch start/settle over the control
// protocol's signal/await/release barriers, applies the plan's
// crash/restart faults at batch boundaries, and collects every worker's
// span log and telemetry snapshot into the merged run artifact. Workers
// exit on their own when the control connection dies, so children
// never outlive a crashed orchestrator; Run additionally kills and
// reaps whatever is still running before it returns.
type Orchestrator struct {
	Comp  Composition
	Spawn SpawnFunc

	// Dir receives the run artifact: per-worker logs, span logs and
	// telemetry snapshots, the merged spans.jsonl and results.json.
	// Empty means nothing is written.
	Dir string

	// OpTimeout bounds each wait for one expected control message
	// (default 30s).
	OpTimeout time.Duration

	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Orchestrator) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// workerConn is the orchestrator's handle on one worker process: the
// control connection, a reader goroutine feeding the inbox, and a
// write lock.
type workerConn struct {
	index int
	conn  net.Conn
	inbox chan *Msg
	wmu   sync.Mutex
}

func (w *workerConn) readLoop() {
	for {
		m, _, err := ReadMsg(w.conn)
		if err != nil {
			close(w.inbox)
			return
		}
		w.inbox <- m
	}
}

func (w *workerConn) send(m *Msg) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	_, err := WriteMsg(w.conn, m)
	if err != nil {
		return fmt.Errorf("clusterd: worker %d: send %s: %w", w.index, m.Kind, err)
	}
	return nil
}

// recv waits for the worker's next control message, honoring the op
// timeout and the run context. A worker-reported MsgError surfaces as
// an error here, whatever was expected.
func (o *Orchestrator) recv(ctx context.Context, w *workerConn) (*Msg, error) {
	timeout := o.OpTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case m, ok := <-w.inbox:
		if !ok {
			return nil, fmt.Errorf("clusterd: worker %d: control connection closed", w.index)
		}
		if m.Kind == MsgError {
			return nil, fmt.Errorf("clusterd: worker %d: %s", w.index, m.Text)
		}
		return m, nil
	case <-t.C:
		return nil, fmt.Errorf("clusterd: worker %d: timed out waiting for control message", w.index)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// expect is recv constrained to one kind.
func (o *Orchestrator) expect(ctx context.Context, w *workerConn, kind MsgKind) (*Msg, error) {
	m, err := o.recv(ctx, w)
	if err != nil {
		return nil, err
	}
	if m.Kind != kind {
		return nil, fmt.Errorf("clusterd: worker %d: got %s, want %s", w.index, m.Kind, kind)
	}
	return m, nil
}

// barrier awaits every worker's signal for name, then releases them
// all — the await-N half of the sync protocol.
func (o *Orchestrator) barrier(ctx context.Context, workers []*workerConn, name string) error {
	for _, w := range workers {
		m, err := o.expect(ctx, w, MsgSignal)
		if err != nil {
			return fmt.Errorf("barrier %q: %w", name, err)
		}
		if m.Name != name {
			return fmt.Errorf("clusterd: worker %d signalled %q at barrier %q", w.index, m.Name, name)
		}
	}
	return broadcast(workers, &Msg{Kind: MsgRelease, Name: name})
}

// broadcast sends one message to every worker, in index order.
func broadcast(workers []*workerConn, m *Msg) error {
	for _, w := range workers {
		if err := w.send(m); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the composition and returns the merged artifact. An
// artifact file that cannot be written fails the run.
func (o *Orchestrator) Run(ctx context.Context) (*RunResult, error) {
	comp := o.Comp.Normalize()
	if err := comp.Validate(); err != nil {
		return nil, err
	}
	if o.Spawn == nil {
		return nil, fmt.Errorf("clusterd: no spawn function")
	}
	compJSON, err := json.Marshal(comp)
	if err != nil {
		return nil, err
	}
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, err
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	cmds := make([]*exec.Cmd, comp.Workers)
	workers := make([]*workerConn, comp.Workers)
	var logs []*os.File
	defer func() {
		// Teardown in dependency order: control connections first (a
		// worker that lost its connection exits by itself), then reap
		// every child that is still around.
		for _, w := range workers {
			if w != nil {
				w.conn.Close()
			}
		}
		reap(cmds)
		for _, f := range logs {
			f.Close()
		}
	}()

	// Spawn the worker processes.
	for i := range cmds {
		cmd, err := o.Spawn(i, ln.Addr().String())
		if err != nil {
			return nil, fmt.Errorf("clusterd: spawn worker %d: %w", i, err)
		}
		if o.Dir != "" && cmd.Stdout == nil && cmd.Stderr == nil {
			f, err := os.Create(filepath.Join(o.Dir, fmt.Sprintf("worker-%d.log", i)))
			if err != nil {
				return nil, err
			}
			logs = append(logs, f)
			cmd.Stdout, cmd.Stderr = f, f
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("clusterd: start worker %d: %w", i, err)
		}
		cmds[i] = cmd
	}
	o.logf("spawned %d workers", comp.Workers)

	// Accept each worker's control connection and hello.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(30 * time.Second))
	}
	for i := 0; i < comp.Workers; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("clusterd: waiting for workers: %w", err)
		}
		m, _, err := ReadMsg(conn)
		if err != nil || m.Kind != MsgHello {
			conn.Close()
			return nil, fmt.Errorf("clusterd: bad hello: %v", err)
		}
		if m.Worker < 0 || m.Worker >= comp.Workers || workers[m.Worker] != nil {
			conn.Close()
			return nil, fmt.Errorf("clusterd: unexpected worker index %d", m.Worker)
		}
		w := &workerConn{index: m.Worker, conn: conn, inbox: make(chan *Msg, 64)}
		workers[m.Worker] = w
		go w.readLoop()
	}

	// Configure, then merge each worker's dial-back directory fragment
	// into the one directory every worker receives.
	for _, w := range workers {
		if err := w.send(&Msg{Kind: MsgConfig, Worker: w.index, Workers: comp.Workers, Comp: compJSON}); err != nil {
			return nil, err
		}
	}
	dir := make(map[int]string)
	for _, w := range workers {
		m, err := o.expect(ctx, w, MsgAddrs)
		if err != nil {
			return nil, err
		}
		for _, e := range m.Addrs {
			dir[e.Node] = e.Addr
		}
	}
	if len(dir) != comp.Nodes {
		return nil, fmt.Errorf("clusterd: directory has %d nodes, want %d", len(dir), comp.Nodes)
	}
	if err := broadcast(workers, &Msg{Kind: MsgAddrs, Addrs: sortedAddrEntries(dir)}); err != nil {
		return nil, err
	}
	if err := o.barrier(ctx, workers, "ready"); err != nil {
		return nil, err
	}
	o.logf("cluster ready: %d nodes across %d workers", comp.Nodes, comp.Workers)

	// Drive the batch schedule.
	result := &RunResult{}
	for _, spec := range comp.Workload() {
		b := spec.Batch
		for _, f := range comp.BoundaryFaults(b) {
			if err := broadcast(workers, &Msg{Kind: MsgFault, Fault: f.Kind, Node: f.Node, Batch: b}); err != nil {
				return nil, err
			}
			if f.Kind == faultsim.FaultRestart {
				owner := workers[comp.Owner(f.Node)]
				m, err := o.expect(ctx, owner, MsgAddrs)
				if err != nil {
					return nil, fmt.Errorf("restart of node %d: %w", f.Node, err)
				}
				for _, e := range m.Addrs {
					dir[e.Node] = e.Addr
				}
				if err := broadcast(workers, &Msg{Kind: MsgAddrs, Addrs: sortedAddrEntries(dir)}); err != nil {
					return nil, err
				}
			}
			o.logf("batch %d: applied %s of node %d", b, f.Kind, f.Node)
		}

		// Per-connection ordering makes an await-free release safe here:
		// every fault and directory update above is already queued ahead
		// of it on each control connection.
		if err := broadcast(workers, &Msg{Kind: MsgRelease, Name: fmt.Sprintf("start-%d", b)}); err != nil {
			return nil, err
		}
		owner := workers[comp.Owner(int(spec.Initiator))]
		rm, err := o.expect(ctx, owner, MsgResult)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		if rm.Batch != b {
			return nil, fmt.Errorf("clusterd: result for batch %d, want %d", rm.Batch, b)
		}
		result.Batches = append(result.Batches, faultsim.ClusterBatch{
			Batch: b, Initiator: int(spec.Initiator), Responder: int(spec.Responder),
			Failed: rm.Failed, Expected: rm.Credits,
		})

		// Credit fence: each worker polls its nodes until the owed settle
		// frames landed, and the done barrier fences the batch off from
		// the next boundary.
		for _, w := range workers {
			var mine []faultsim.ClusterCredit
			for _, e := range rm.Credits {
				if comp.Owner(e.Node) == w.index {
					mine = append(mine, e)
				}
			}
			if err := w.send(&Msg{Kind: MsgCollect, Batch: b, Credits: mine}); err != nil {
				return nil, err
			}
		}
		if err := o.barrier(ctx, workers, fmt.Sprintf("done-%d", b)); err != nil {
			return nil, err
		}
		o.logf("batch %d settled: ‖π‖=%d failed=%v", b, len(rm.Credits), rm.Failed)
	}

	// Shutdown: every worker uploads its artifacts and exits.
	if err := broadcast(workers, &Msg{Kind: MsgShutdown}); err != nil {
		return nil, err
	}
	spansByWorker := make([][]telemetry.Span, comp.Workers)
	for _, w := range workers {
		var gotSpans, gotTel, gotDropped bool
		for !gotSpans || !gotTel || !gotDropped {
			m, err := o.recv(ctx, w)
			if err != nil {
				return nil, fmt.Errorf("collecting artifacts: %w", err)
			}
			if m.Kind != MsgArtifact {
				return nil, fmt.Errorf("clusterd: worker %d: got %s during shutdown", w.index, m.Kind)
			}
			name := fmt.Sprintf("worker-%d.%s", w.index, m.ArtifactKind)
			switch m.ArtifactKind {
			case "spans":
				spans, err := telemetry.ReadSpans(bytes.NewReader(m.Data))
				if err != nil {
					return nil, fmt.Errorf("clusterd: worker %d spans: %w", w.index, err)
				}
				spansByWorker[w.index] = spans
				gotSpans = true
				name += ".jsonl"
			case "telemetry":
				gotTel = true
				name += ".json"
			case "dropped":
				n, err := strconv.Atoi(string(m.Data))
				if err != nil {
					return nil, fmt.Errorf("clusterd: worker %d dropped-span count: %w", w.index, err)
				}
				result.Dropped += n
				gotDropped = true
				continue
			}
			if err := o.saveArtifact(name, m.Data); err != nil {
				return nil, err
			}
		}
	}

	merged, dups := telemetry.MergeSpans(spansByWorker...)
	result.Spans = merged
	result.Duplicates = dups
	result.Violations = faultsim.CheckClusterArtifact(comp.Plan, result.Batches, merged, result.Dropped)
	if o.Dir != "" {
		var buf bytes.Buffer
		if err := telemetry.WriteSpansJSONL(&buf, merged); err != nil {
			return nil, err
		}
		if err := o.saveArtifact("spans.jsonl", buf.Bytes()); err != nil {
			return nil, err
		}
		res, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := o.saveArtifact("results.json", append(res, '\n')); err != nil {
			return nil, err
		}
	}
	o.logf("run complete: %d spans (%d duplicate), %d violations", len(merged), dups, len(result.Violations))
	return result, nil
}

// saveArtifact writes one artifact file when a directory is set.
func (o *Orchestrator) saveArtifact(name string, data []byte) error {
	if o.Dir == "" {
		return nil
	}
	if err := os.WriteFile(filepath.Join(o.Dir, name), data, 0o644); err != nil {
		return fmt.Errorf("clusterd: save artifact: %w", err)
	}
	return nil
}

// reap waits briefly for every child, then kills and reaps whatever is
// left — the orchestrator never exits with live children behind it.
func reap(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(c *exec.Cmd) {
			c.Wait()
			close(done)
		}(cmd)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
}
