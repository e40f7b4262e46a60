package netwire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// Config parameterises the socket layer. The zero value of any field is
// replaced with its default; the protocol schedule (attempt windows,
// retry backoff) is configured separately, through the embedded Driver's
// SetRetry and SetClock, exactly like the in-process backend.
type Config struct {
	// Latency is an artificial per-send delay on the cluster clock,
	// mirroring transport.NewNetwork's link latency model (0 = none).
	Latency time.Duration
	// DialTimeout/HandshakeTimeout bound connection establishment;
	// WriteTimeout bounds one frame write; IdleTimeout retires a
	// connection an end has read nothing from for that long (that end
	// stops writing it, and the peer re-dials for its next frame);
	// EnqueueTimeout is how long a sender blocks on a full outbound queue
	// before the frame is refused. These socket guards, like Probe's
	// timeout, run on the real clock — the kernel does not speak virtual
	// time; only the protocol schedule and Latency follow SetClock.
	DialTimeout, HandshakeTimeout, WriteTimeout, IdleTimeout, EnqueueTimeout time.Duration
}

// queueCap bounds a link's outbound queue, in frames: once it is full a
// sender blocks for up to EnqueueTimeout and then the frame is refused —
// bounded backpressure instead of unbounded buffering.
const queueCap = 128

// DefaultConfig returns the loopback-tuned defaults.
func DefaultConfig() Config {
	return Config{
		DialTimeout:      2 * time.Second,
		HandshakeTimeout: 2 * time.Second,
		WriteTimeout:     5 * time.Second,
		IdleTimeout:      60 * time.Second,
		EnqueueTimeout:   2 * time.Second,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.DialTimeout <= 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = d.HandshakeTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = d.IdleTimeout
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = d.EnqueueTimeout
	}
}

// Cluster is the TCP backend: the shared connection driver
// (transport.Driver) over a link model of N nodes on ephemeral 127.0.0.1
// ports and a shared address directory. It implements
// transport.Conductor, so every caller that runs over the in-process
// backend runs over TCP unchanged.
type Cluster struct {
	*transport.Driver

	cfg     Config
	latency time.Duration

	mu    sync.RWMutex
	nodes map[overlay.NodeID]*Node
	addrs map[overlay.NodeID]string

	metrics *metrics

	probeMu sync.Mutex
	probes  map[uint64]chan struct{}

	nonce atomic.Uint64

	wg       sync.WaitGroup
	quit     chan struct{}
	quitOnce sync.Once

	logMu sync.Mutex
	logw  io.Writer
	logC  io.Closer
}

// NewCluster creates an empty cluster with the default retry policy and
// the real clock. When NETWIRE_LOG_DIR is set, a per-cluster debug log of
// dials, kills and frame errors is written there (the artifact CI uploads
// when a netwire job fails).
func NewCluster(cfg Config) *Cluster {
	cfg.fillDefaults()
	c := &Cluster{
		cfg:     cfg,
		latency: cfg.Latency,
		nodes:   make(map[overlay.NodeID]*Node),
		addrs:   make(map[overlay.NodeID]string),
		probes:  make(map[uint64]chan struct{}),
		quit:    make(chan struct{}),
	}
	c.Driver = transport.NewDriver(c, "netwire")
	c.metrics = newMetrics(c.Telemetry())
	if dir := os.Getenv("NETWIRE_LOG_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			name := filepath.Join(dir, fmt.Sprintf("netwire-%d-%d.log", os.Getpid(), time.Now().UnixNano()))
			if f, err := os.Create(name); err == nil {
				c.logw, c.logC = f, f
			}
		}
	}
	return c
}

// logf writes one debug-log line when logging is enabled.
func (c *Cluster) logf(format string, args ...any) {
	if c.logw == nil {
		return
	}
	c.logMu.Lock()
	fmt.Fprintf(c.logw, time.Now().Format("15:04:05.000000")+" "+format+"\n", args...)
	c.logMu.Unlock()
}

// Instrument rebinds the cluster's metrics into reg (nil keeps the
// current registry). Call before traffic starts.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	c.Driver.Instrument(reg)
	if reg != nil {
		c.metrics = newMetrics(reg)
	}
}

// Metrics returns the transport-compatible counter snapshot.
func (c *Cluster) Metrics() transport.MetricsSnapshot {
	s := c.Driver.Metrics()
	s.Sent = c.metrics.sent.Value()
	s.Dropped = c.metrics.dropped.Value()
	s.Expired = c.metrics.deadlineExpired.Value()
	s.QueueHighWater = c.metrics.queueDepth.Value()
	return s
}

// Join spins up a node: a listener on an ephemeral 127.0.0.1 port, the
// accept loop, and a directory entry its peers dial. ChurnAware routers
// are registered for liveness marks, like the in-process backend.
func (c *Cluster) Join(id overlay.NodeID, r transport.Router) error {
	if r == nil {
		return errors.New("netwire: nil router")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("netwire: listen: %w", err)
	}
	nd := &Node{
		Station: transport.NewStation(id, r),
		c:       c,
		ln:      ln,
		links:   make(map[overlay.NodeID]*link),
		conns:   make(map[net.Conn]struct{}),
		settled: make(map[int]float64),
		killed:  make(chan struct{}),
	}
	c.mu.Lock()
	if _, dup := c.nodes[id]; dup {
		c.mu.Unlock()
		ln.Close()
		return fmt.Errorf("netwire: duplicate node %d", id)
	}
	c.nodes[id] = nd
	c.addrs[id] = ln.Addr().String()
	c.mu.Unlock()
	c.Joined(id, r)
	c.logf("node %d: listening on %s", id, ln.Addr())
	c.wg.Add(1)
	go nd.acceptLoop()
	return nil
}

// Node returns the live node with the given ID, or nil.
func (c *Cluster) Node(id overlay.NodeID) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

// addrOf resolves a peer's dial address. The directory keeps entries for
// departed nodes — dialing a corpse fails with a refused connection,
// which is exactly the live failure-detection signal.
func (c *Cluster) addrOf(id overlay.NodeID) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.addrs[id]
	return a, ok
}

// RegisterPeer records the dial-back address of a node hosted outside
// this cluster — another Cluster in the same process or a spawned worker
// process. Links resolve addresses through the live directory on every
// dial, so registration (and re-registration after a remote restart)
// takes effect immediately. A node currently hosted locally keeps its
// own listener address; stale broadcasts cannot shadow it.
func (c *Cluster) RegisterPeer(id overlay.NodeID, addr string) {
	c.mu.Lock()
	if _, local := c.nodes[id]; !local {
		c.addrs[id] = addr
	}
	c.mu.Unlock()
}

// RemovePeer models an abrupt departure: the node's listener and every
// connection close immediately; peers discover the corpse by failed
// delivery and NACK/reform, just like the in-process backend. The
// directory entry survives so dials fail instead of being skipped.
func (c *Cluster) RemovePeer(id overlay.NodeID) {
	c.mu.Lock()
	nd, ok := c.nodes[id]
	if ok {
		delete(c.nodes, id)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	c.logf("node %d: killed", id)
	nd.kill()
}

// Close kills every node and waits for all cluster goroutines to drain.
func (c *Cluster) Close() {
	c.quitOnce.Do(func() { close(c.quit) })
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.nodes))
	for _, nd := range c.nodes {
		nodes = append(nodes, nd)
	}
	c.nodes = make(map[overlay.NodeID]*Node)
	c.mu.Unlock()
	for _, nd := range nodes {
		nd.kill()
	}
	c.wg.Wait()
	if c.logC != nil {
		c.logC.Close()
		c.logC, c.logw = nil, nil
	}
}

func (c *Cluster) isClosed() bool {
	select {
	case <-c.quit:
		return true
	default:
		return false
	}
}

// Local implements transport.Link: the station of a node hosted here.
func (c *Cluster) Local(id overlay.NodeID) *transport.Station {
	if nd := c.Node(id); nd != nil {
		return nd.Station
	}
	return nil
}

// Addressable implements transport.Link: a hosted node, or one hosted by
// another cluster whose dial-back address RegisterPeer recorded.
func (c *Cluster) Addressable(id overlay.NodeID) bool {
	_, ok := c.addrOf(id)
	return ok
}

// Send implements transport.Link: the message is encoded into a buffer of
// the link node from keeps to node to, and leaves through it. Nothing of
// m is kept. A node that is gone sends nothing.
func (c *Cluster) Send(from, to overlay.NodeID, m *transport.Message) bool {
	nd := c.Node(from)
	if nd == nil {
		return false
	}
	f := frameOf(m)
	return nd.sendMsg(to, &f, m.Deadline)
}

// SettleBatch distributes a completed batch's split payment over the
// wire: the batch closes on the initiator here, and every member of the
// forwarder set receives a Settle frame with its m·P_f + P_r/‖π‖ share
// and the batch root, which the receiving node lands (Driver.Settled) —
// so the credit, its count and its span are recorded where it actually
// happened, with the ids the in-process backend derives. Returns how
// many settle frames were accepted for delivery.
func (c *Cluster) SettleBatch(initiator overlay.NodeID, batch int, out *transport.BatchOutcome, contract core.Contract) (int, error) {
	trace, root, err := c.SettleInitiator(initiator, batch, out)
	nd := c.Node(initiator) // nil only if the initiator departed since
	if err != nil || nd == nil {
		return 0, err
	}
	sent := 0
	for id := range out.Forwards {
		f := &Frame{
			Kind:   KindSettle,
			Batch:  batch,
			Payoff: out.Payoff(id, contract),
			Trace:  trace,
			Span:   root,
		}
		if nd.sendMsg(id, f, 0) {
			sent++
		}
	}
	return sent, nil
}

// Probe sends a liveness probe from one node to another and reports
// whether the ProbeAck came back within the timeout — the wire-level
// availability check (the sim's probe.Set models the same signal). The
// timeout is a socket-level wait, so it runs on the real clock whatever
// SetClock was given.
func (c *Cluster) Probe(from, to overlay.NodeID, timeout time.Duration) bool {
	nd := c.Node(from)
	if nd == nil {
		return false
	}
	nonce := c.nonce.Add(1)
	ch := make(chan struct{}, 1)
	c.probeMu.Lock()
	c.probes[nonce] = ch
	c.probeMu.Unlock()
	defer func() {
		c.probeMu.Lock()
		delete(c.probes, nonce)
		c.probeMu.Unlock()
	}()
	if !nd.sendMsg(to, &Frame{Kind: KindProbe, Nonce: nonce}, 0) {
		return false
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
		return false
	}
}

// resolveProbe completes a pending probe.
func (c *Cluster) resolveProbe(nonce uint64) {
	c.probeMu.Lock()
	ch, ok := c.probes[nonce]
	c.probeMu.Unlock()
	if ok {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

var _ transport.Conductor = (*Cluster)(nil)
