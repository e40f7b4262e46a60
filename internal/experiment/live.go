package experiment

import (
	"fmt"
	"sort"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/stats"
	"p2panon/internal/telemetry"
	"p2panon/internal/trace"
	"p2panon/internal/transport"
)

// LiveSetup parameterises a live (message-passing) replay of a trace
// workload under mid-run churn, used to measure Prop. 1's reformation
// behaviour on the live runtime rather than in the deterministic
// simulator.
type LiveSetup struct {
	// N, Degree shape the overlay snapshot the live routers consult.
	N, Degree int
	// Pairs/Transmissions/MaxConnections are the trace workload knobs.
	Pairs, Transmissions, MaxConnections int
	// Budget is the per-connection hop budget; Timeout its deadline.
	Budget  int
	Timeout time.Duration
	// Latency is the per-link delay of the live runtime.
	Latency time.Duration
	// Removals is how many of the busiest interior forwarders are
	// removed halfway through the schedule (mid-batch departures).
	Removals int
	// Strategy picks the live router: core.Random, core.UtilityI or
	// core.UtilityII.
	Strategy core.Strategy
	// Seed drives all randomness.
	Seed uint64
	// Telemetry, when non-nil, receives the run's instruments — the
	// transport runtime's metrics plus overlay churn, probe updates and
	// the SPNE cache counters — so a caller can expose one registry for
	// the whole replay.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, is attached to the conductor so the replay
	// emits deterministic causal span trees (batch roots, launches, hops,
	// responds, nacks, reformations, delivers, settles) into it — the one
	// record of each connection's lifecycle, and the log cmd/tracetool
	// reads.
	Spans *telemetry.SpanRecorder
	// NewConductor, when non-nil, builds the forwarding backend the
	// replay runs over — e.g. a netwire TCP loopback cluster — with the
	// requested per-link latency. Nil uses the in-process
	// transport.Network. Either backend passes the same conformance
	// suite, so the study's measurements are comparable across wires.
	NewConductor func(latency time.Duration) transport.Conductor
}

// DefaultLive returns a compact live-churn study: 30 peers, 8 pairs of up
// to 10 recurring connections, two mid-run departures.
func DefaultLive() LiveSetup {
	return LiveSetup{
		N: 30, Degree: 6,
		Pairs: 8, Transmissions: 64, MaxConnections: 10,
		Budget:   5,
		Timeout:  5 * time.Second,
		Removals: 2,
		Strategy: core.UtilityI,
		Seed:     1,
	}
}

// LiveOutcome is the result of one live replay.
type LiveOutcome struct {
	Strategy          core.Strategy
	Completed, Failed int
	// Reformations counts relaunched connection attempts — the live
	// realisation of Prop. 1's path-reformation event.
	Reformations int
	// ReformationRate is Reformations per scheduled connection.
	ReformationRate float64
	// Removed lists the peers taken down mid-run.
	Removed []overlay.NodeID
	// Metrics is the transport's counter snapshot after the run.
	Metrics transport.MetricsSnapshot
	// Outcomes holds the per-pair batch outcomes.
	Outcomes []*transport.BatchOutcome
}

// RunLive builds an overlay, snapshots it into the live concurrent
// runtime, replays a trace workload over it, and removes the busiest
// interior forwarders halfway through — forcing mid-path departures whose
// reformations the transport counts.
func RunLive(s LiveSetup) (*LiveOutcome, error) {
	if s.N < 4 {
		return nil, fmt.Errorf("experiment: live N %d too small", s.N)
	}
	rng := dist.NewSource(s.Seed)
	net, topo, avail := transport.StaticWorld(s.N, s.Degree, rng, s.Telemetry)
	router, err := transport.NewRouter(s.Strategy, topo, core.ContractWithTau(75, 2), avail, rng)
	if err != nil {
		return nil, err
	}
	if r, ok := router.(*transport.UtilityIIRouter); ok {
		r.Instrument(s.Telemetry)
	}

	var live transport.Conductor
	if s.NewConductor != nil {
		live = s.NewConductor(s.Latency)
	} else {
		live = transport.NewNetwork(s.Latency)
	}
	defer live.Close()
	live.Instrument(s.Telemetry)
	live.SetSpans(s.Spans)
	for id := range topo {
		if err := live.Join(id, router); err != nil {
			return nil, err
		}
	}

	w := trace.Workload{
		Pairs:          s.Pairs,
		Transmissions:  s.Transmissions,
		MaxConnections: s.MaxConnections,
		PfLo:           50, PfHi: 100, Tau: 2,
	}
	pairs, err := w.Generate(net, rng.Split())
	if err != nil {
		return nil, err
	}
	endpoints := make(map[overlay.NodeID]struct{})
	for _, p := range pairs {
		endpoints[p.Initiator] = struct{}{}
		endpoints[p.Responder] = struct{}{}
	}

	total := trace.TotalConnections(pairs)
	out := &LiveOutcome{Strategy: s.Strategy}
	// Window the metrics around the replay: with a shared registry the
	// instruments may already carry counts from earlier runs, and Delta
	// keeps the outcome per-window regardless.
	pre := live.Metrics()
	res := transport.RunTrace(live.ConnectDetail, pairs, transport.TraceOptions{
		Budget:  s.Budget,
		Timeout: s.Timeout,
		Before: func(k int, sofar *transport.TraceResult) {
			if s.Removals <= 0 || k != total/2 {
				return
			}
			for _, victim := range busiestForwarders(sofar, endpoints, s.Removals) {
				live.RemovePeer(victim)
				out.Removed = append(out.Removed, victim)
			}
		},
	})
	out.Completed, out.Failed = res.Completed, res.Failed
	out.Reformations = res.Reformations
	if total > 0 {
		out.ReformationRate = float64(res.Reformations) / float64(total)
	}
	out.Outcomes = res.Outcomes
	out.Metrics = live.Metrics().Delta(pre)
	return out, nil
}

// LiveShape replays DefaultLive's workload, seeded with seed, under strat
// through the in-process backend and returns the live rule's point for
// Fig. 5 and Prop. 1: the mean forwarder-set size ‖π‖ and the mean
// new-edge rate E[X] over the replay's batches. The rate follows
// core.Batch.NewEdgeRate: the share of a batch's traversed edges absent
// from its earlier connections, an edge first seen earlier in the same
// connection counting as new once.
func LiveShape(seed uint64, strat core.Strategy) (setSize, newEdge float64, err error) {
	s := DefaultLive()
	s.Seed, s.Strategy = seed, strat
	out, err := RunLive(s)
	if err != nil {
		return 0, 0, err
	}
	type edge struct{ from, to overlay.NodeID }
	var sizes, rates []float64
	for _, o := range out.Outcomes {
		seen := make(map[edge]struct{})
		fresh, total := 0, 0
		for _, path := range o.Paths {
			for i := 1; i < len(path); i++ {
				e := edge{path[i-1], path[i]}
				total++
				if _, old := seen[e]; !old {
					seen[e] = struct{}{}
					fresh++
				}
			}
		}
		if total > 0 {
			sizes = append(sizes, float64(o.SetSize()))
			rates = append(rates, float64(fresh)/float64(total))
		}
	}
	return stats.Mean(sizes), stats.Mean(rates), nil
}

// busiestForwarders ranks interior forwarders by accumulated forwarding
// instances (ties to the lower ID) and returns the top n — the peers whose
// departure hits the most in-use paths, maximising observable mid-batch
// reformations.
func busiestForwarders(sofar *transport.TraceResult, endpoints map[overlay.NodeID]struct{}, n int) []overlay.NodeID {
	counts := make(map[overlay.NodeID]int)
	for _, out := range sofar.Outcomes {
		for id, m := range out.Forwards {
			if _, isEnd := endpoints[id]; isEnd {
				continue
			}
			counts[id] += m
		}
	}
	ids := make([]overlay.NodeID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}
