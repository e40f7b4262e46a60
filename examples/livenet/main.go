// Livenet runs the overlay as message-passing peers on the in-process
// transport: links with a small latency, and the same Utility Model I
// and II routing logic driving next-hop choices. It runs a batch of
// recurring connections for several (I, R) pairs concurrently, then — in a
// churn phase — removes the busiest forwarder mid-batch to show the
// transport NACKing, reforming paths around the corpse and counting every
// event in its metrics.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/report"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

func main() {
	rng := dist.NewSource(99)

	// Build the structural overlay, then snapshot it for the live runtime.
	net := overlay.NewNetwork(5, rng.Split())
	const n = 30
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	topo := transport.SnapshotTopology(net)
	// Every online node gets the same availability score, 1/n.
	avail := make(map[overlay.NodeID]float64, n)
	for _, id := range net.OnlineIDs() {
		avail[id] = 1.0 / float64(n)
	}

	contract := core.ContractWithTau(75, 2)
	// Utility Model I drives most peers; Model II (SPNE lookahead over the
	// snapshot) drives the peers with even IDs, showing both live routers
	// interoperating on one network.
	routerI := transport.NewUtilityRouter(topo, quality.DefaultWeights(), contract, avail)
	routerII := transport.NewUtilityIIRouter(topo, quality.DefaultWeights(), contract, avail)

	// One shared registry across the runtime and the SPNE router — the
	// final report shows the unified series — and one span recorder, the
	// causal record of every connection's lifecycle.
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanRecorder(8192)
	routerII.Instrument(reg)

	live := transport.NewNetwork(200 * time.Microsecond)
	defer live.Close()
	live.Instrument(reg)
	live.SetSpans(spans)
	for id := range topo {
		r := transport.Router(routerI)
		if id%2 == 0 {
			r = routerII
		}
		if err := live.Join(id, r); err != nil {
			log.Fatal(err)
		}
	}

	// Three concurrent (I, R) pairs, 15 recurring connections each.
	pairs := [][2]overlay.NodeID{{0, 29}, {3, 27}, {7, 21}}
	var wg sync.WaitGroup
	results := make([]*transport.BatchOutcome, len(pairs))
	errs := make([]error, len(pairs))
	start := time.Now()
	for i, pr := range pairs {
		wg.Add(1)
		go func(i int, I, R overlay.NodeID) {
			defer wg.Done()
			results[i], errs[i] = live.RunBatch(I, R, i+1, 15, 5, 10*time.Second)
		}(i, pr[0], pr[1])
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("livenet: %d peers, 200µs links, %d concurrent batches in %v\n\n",
		n, len(pairs), elapsed.Round(time.Millisecond))
	for i, pr := range pairs {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		out := results[i]
		fmt.Printf("pair %d (I=%d -> R=%d): ‖π‖ = %d over %d connections\n",
			i+1, pr[0], pr[1], out.SetSize(), len(out.Paths))
		fmt.Printf("  first path: %v\n", out.Paths[0])
		fmt.Printf("  last path:  %v\n", out.Paths[len(out.Paths)-1])
		for id, m := range out.Forwards {
			fmt.Printf("  forwarder %2d: m=%2d, payoff %.2f\n", id, m, out.Payoff(id, contract))
		}
	}

	// Churn phase: take down the busiest forwarder while fresh batches are
	// in flight. Its in-use paths break, the transport NACKs the
	// initiators, and every connection reforms around the corpse — the
	// metrics snapshot at the end shows the drops and reformations.
	victim := busiestForwarder(results, pairs)
	fmt.Printf("\nchurn phase: removing busiest forwarder %d mid-batch\n", victim)
	for i, pr := range pairs {
		wg.Add(1)
		go func(i int, I, R overlay.NodeID) {
			defer wg.Done()
			results[i], errs[i] = live.RunBatch(I, R, len(pairs)+i+1, 20, 5, 10*time.Second)
		}(i, pr[0], pr[1])
	}
	time.Sleep(500 * time.Microsecond)
	live.RemovePeer(victim)
	wg.Wait()

	reformed := 0
	for i := range pairs {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		reformed += results[i].Reformations
		for _, p := range results[i].Paths {
			for _, hop := range p {
				if hop == victim {
					log.Fatalf("recorded path %v crosses removed peer %d", p, victim)
				}
			}
		}
	}
	m := live.Metrics()
	fmt.Printf("all %d connections completed despite the departure\n", 20*len(pairs))
	fmt.Printf("  batch reformations: %d\n", reformed)
	fmt.Printf("  transport metrics:  %s\n", m)
	if m.Reformations == 0 || m.Dropped == 0 {
		log.Fatalf("expected non-zero reformation and drop counters, got %s", m)
	}

	// The unified telemetry view: every series both routers and the
	// runtime wrote, the latency distribution, and the span log's count
	// of NACKed attempts and delivered connections.
	fmt.Println()
	report.TelemetryTable("unified telemetry", reg.Snapshot()).Render(os.Stdout)
	fmt.Println()
	fmt.Print(report.HistogramChart("connect latency (seconds)", m.ConnectLatency, 40))
	var nacked, delivered int
	for _, sp := range spans.Spans() {
		switch sp.Kind {
		case telemetry.SpanNack:
			nacked++
		case telemetry.SpanDeliver:
			delivered++
		}
	}
	fmt.Printf("\nspan log: %d spans (%d NACKs, %d delivered, %d dropped by the recorder)\n",
		spans.Total(), nacked, delivered, spans.Dropped())
}

// busiestForwarder returns the non-endpoint peer with the most forwarding
// instances across the finished batches — the departure that hurts most.
func busiestForwarder(results []*transport.BatchOutcome, pairs [][2]overlay.NodeID) overlay.NodeID {
	endpoints := make(map[overlay.NodeID]bool)
	for _, pr := range pairs {
		endpoints[pr[0]], endpoints[pr[1]] = true, true
	}
	counts := make(map[overlay.NodeID]int)
	for _, out := range results {
		for id, m := range out.Forwards {
			if !endpoints[id] {
				counts[id] += m
			}
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
	return ids[0]
}
