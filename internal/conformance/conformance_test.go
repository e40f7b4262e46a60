package conformance

import (
	"reflect"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/netwire"
	"p2panon/internal/overlay"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

// Backends returns the three production backends: the in-process
// runtime, which drains one FIFO of deliveries and starts no goroutine,
// the TCP loopback cluster, and the partitioned multi-runtime topology
// behind the process cluster — every node lives in one of three netwire
// runtimes and frames between them cross dial-back TCP links, exactly as
// clusterd workers talk.
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
	}
}

// TestBackendConformance runs the shared behavioral table against all
// backends and asserts the deterministic transcripts are byte-identical.
func TestBackendConformance(t *testing.T) {
	Run(t, Backends())
}

// detourRouter sends the initiator's FORWARD to first; every other hop
// routes as the pickRouter does, through its primary until that is
// learned dead. With the primary gone, the first forwarder counts a
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

// TestHopSpansCountStationForwards pins the equality a cluster audit reads
// a forwarder's credited work by: a station counts a forward exactly where
// it emits a hop span, so its forwarding count for a batch, read before the
// settle closes it, is its hop spans in the batch — abandoned attempts
// included. Relay 2 departs before the batch, so each backend's first
// attempt dies at relay 1 with a NACK and reforms through relay 3.
func TestHopSpansCountStationForwards(t *testing.T) {
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
			local := cd.(interface {
				Local(overlay.NodeID) *transport.Station
			})
			forwards := map[int]int{}
			for _, id := range []overlay.NodeID{1, 3, 4} {
				forwards[int(id)] = local.Local(id).Forwards(batch)
			}
			if forwards[1] != out.Forwards[1]+1 {
				t.Fatalf("relay 1 counts %d forwards, want the %d credited plus the abandoned one", forwards[1], out.Forwards[1])
			}
			if _, err := cd.SettleBatch(0, batch, out, core.Contract{Pf: 1, Pr: 10}); err != nil {
				t.Fatal(err)
			}
			hops := map[int]int{}
			for _, s := range rec.Spans() {
				if s.Kind == telemetry.SpanHop && s.Batch == batch && s.Node != 0 {
					hops[s.Node]++
				}
			}
			if !reflect.DeepEqual(hops, map[int]int{1: forwards[1], 3: forwards[3]}) || forwards[4] != 0 {
				t.Fatalf("hop spans by node %v, station forwards %v", hops, forwards)
			}
		})
	}
}
