package conformance

import (
	"reflect"
	"testing"
	"time"

	"p2panon/internal/netwire"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
	"p2panon/internal/vclock"
)

// Backends returns the four backends: the in-process runtime, which
// drains one FIFO of deliveries and starts no goroutine, the TCP loopback
// cluster, the partitioned multi-runtime topology behind the process
// cluster — every node lives in one of three netwire runtimes and frames
// between them cross dial-back TCP links, exactly as clusterd workers
// talk — and the in-process runtime on an engine clock, the runtime the
// fault world runs on.
func Backends() []Backend {
	return []Backend{
		{
			Name: "inproc",
			New: func(t testing.TB, latency time.Duration) transport.Conductor {
				n := transport.NewNetwork(latency)
				t.Cleanup(n.Close)
				return n
			},
		},
		{
			Name: "tcp",
			New: func(t testing.TB, latency time.Duration) transport.Conductor {
				c := netwire.NewCluster(netwire.Config{Latency: latency})
				t.Cleanup(c.Close)
				return c
			},
		},
		{
			Name: "multiproc",
			New: func(t testing.TB, latency time.Duration) transport.Conductor {
				m := NewMultiCluster(3, netwire.Config{Latency: latency})
				t.Cleanup(m.Close)
				return m
			},
		},
		{
			Name: "engine",
			New: func(t testing.TB, latency time.Duration) transport.Conductor {
				n := engineNetwork{transport.NewNetwork(latency), sim.NewEngine()}
				n.SetClock(vclock.Engine(n.eng))
				t.Cleanup(n.Close)
				return n
			},
		},
	}
}

// engineNetwork is the in-process network on a vclock.Engine clock. A
// connection runs the engine until it has finished; reading Metrics runs
// the rest of its queue, so a message still in flight when its
// connection ended meets its fate first, as it would in time on a
// backend whose clock runs by itself.
type engineNetwork struct {
	*transport.Network
	eng *sim.Engine
}

// Metrics runs the engine's queue dry, then reads the network's counters.
func (n engineNetwork) Metrics() transport.MetricsSnapshot {
	n.eng.Run()
	return n.Network.Metrics()
}

// TestBackendConformance runs the shared behavioral table against all
// backends and asserts the deterministic transcripts are byte-identical.
func TestBackendConformance(t *testing.T) {
	Run(t, Backends())
}

// detourRouter sends the initiator's FORWARD to first; every other hop
// routes as the pickRouter does, through its primary until that is
// learned dead. With the primary gone, the first forwarder makes a
// forward on an attempt that then fails mid-path.
type detourRouter struct {
	*pickRouter
	first overlay.NodeID
}

func (r detourRouter) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	if self == initiator {
		return r.first, false
	}
	return r.pickRouter.NextHop(self, pred, initiator, responder, batch, conn, remaining)
}

// TestHopSpansMatchOutcomeForwards pins the equality a cluster audit reads
// a forwarder's credited work by: each forwarding instance is one hop span
// at the node that made it, so a node's hop spans in a batch, at nodes
// other than the initiator, are the forwards the initiator's outcome
// credits it with — plus one per abandoned attempt that crossed it. Relay 2
// departs before the batch, so each backend's first attempt dies at relay
// 1 with a NACK and reforms through relay 3; the responder has none.
func TestHopSpansMatchOutcomeForwards(t *testing.T) {
	for _, b := range Backends()[:2] {
		t.Run(b.Name, func(t *testing.T) {
			cd := b.New(t, 0)
			r := detourRouter{newPickRouter(2, 3), 1}
			for id := 0; id < 5; id++ {
				if err := cd.Join(overlay.NodeID(id), r); err != nil {
					t.Fatal(err)
				}
			}
			cd.SetRetry(fastRetry)
			rec := attachSpans(cd)
			cd.RemovePeer(2)
			const batch = 7
			out, err := cd.RunBatch(0, 4, batch, 2, 8, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if out.Reformations != 1 {
				t.Fatalf("reformations = %d, want 1", out.Reformations)
			}
			hops := map[int]int{}
			for _, s := range rec.Spans() {
				if s.Kind == telemetry.SpanHop && s.Batch == batch && s.Node != 0 {
					hops[s.Node]++
				}
			}
			if want := map[int]int{1: out.Forwards[1] + 1, 3: out.Forwards[3]}; !reflect.DeepEqual(hops, want) {
				t.Fatalf("hop spans by node %v, want %v: relay 1's credited forwards %d plus the abandoned one, relay 3's %d",
					hops, want, out.Forwards[1], out.Forwards[3])
			}
		})
	}
}
