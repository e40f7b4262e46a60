// Command anonsim runs one configurable simulation of the incentive-driven
// anonymity overlay and prints a run summary: per-strategy payoffs,
// forwarder-set sizes, reformation rates and a payoff histogram.
//
// Usage:
//
//	anonsim [-n 40] [-d 5] [-f 0.1] [-strategy utility-I] [-tau 2]
//	        [-pairs 100] [-tx 2000] [-maxconn 20] [-churn] [-seed 1] [-v]
//	        [-live] [-live-removals 2] [-net inproc|tcp]
//	        [-metrics-addr :9090] [-metrics-every 5s]
//	        [-span-out spans.jsonl] [-phase-report phases.json]
//	        [-faults plan.json | -faults gen:<seed>]
//
// With -faults, anonsim runs a deterministic fault-injection plan (see
// internal/faultsim) instead of the simulator: it loads the plan JSON (or
// generates one from a seed with gen:<seed>), replays the seeded world,
// checks every system invariant and exits non-zero on a violation (2 when
// the plan is rejected). The plan's settle_delay field is the
// virtual-clock delay after batch close at which the world settles the
// batch out of its escrow (default 0.5 s).
//
// -span-out captures the causal span log: in -faults mode the virtual-clock
// span trees of the deterministic world, its applied faults included
// (byte-identical across runs of the same plan), in -live mode the spans the conductor's nodes mint from
// carried trace context. Feed the file to cmd/tracetool to reconstruct each
// batch's I → forwarders → R → settlement tree, its critical path and the
// per-forwarder attribution. -phase-report profiles the simulator's stages
// (solve.induction, probe.tick, overlay.candidates, route.walk,
// escrow.settle) and writes the per-phase time/alloc breakdown JSON naming
// the dominant phase; with -metrics-addr the same brackets also feed the
// sim_phase_seconds histogram family.
//
// With -live, the simulator summary is followed by a live replay: the same
// strategy routes real connections over the in-process message-passing
// transport while the busiest forwarders are removed mid-run, and the resulting
// reformation counts and transport metrics are printed next to the
// simulator's new-edge rate (Prop. 1's two measurements side by side).
//
// With -net tcp the live replay runs over internal/netwire instead of the
// in-process runtime: every node listens on an ephemeral 127.0.0.1 port and
// every hop crosses a real TCP connection under the framed wire protocol of
// DESIGN.md §3e. -net tcp implies -live, and with -metrics-addr the
// netwire_* socket instruments (dials, frames, bytes, queue depth, deadline
// hits) appear on the same telemetry endpoint.
//
// The telemetry flags expose the run's unified instrument registry:
// -metrics-addr serves Prometheus text on /metrics (plus /metrics.json,
// net/http/pprof under /debug/pprof/ and, with -live, the span log so far
// on /trace), and -metrics-every logs a snapshot table to stderr on a
// fixed cadence. -trace-cap bounds the span recorder.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"p2panon/internal/clusterd"
	"p2panon/internal/core"
	"p2panon/internal/experiment"
	"p2panon/internal/netwire"
	"p2panon/internal/report"
	"p2panon/internal/stats"
	"p2panon/internal/telemetry"
	"p2panon/internal/transport"
)

func main() {
	n := flag.Int("n", 40, "node population N")
	d := flag.Int("d", 5, "neighbor-set size d")
	f := flag.Float64("f", 0.1, "malicious fraction")
	strat := flag.String("strategy", "utility-I", "routing strategy: random | utility-I | utility-II | fixed-path")
	tau := flag.Float64("tau", 2, "routing/forwarding benefit ratio tau")
	pairs := flag.Int("pairs", 100, "(I,R) pairs")
	tx := flag.Int("tx", 2000, "total transmissions")
	maxconn := flag.Int("maxconn", 20, "max connections per pair")
	churnOn := flag.Bool("churn", true, "enable node churn")
	crowdsPf := flag.Float64("crowds", 0, "use Crowds-coin termination with this p_f (0 = hop-budget)")
	posAware := flag.Bool("pos", false, "position-aware selectivity (§2.3 predecessor differentiation)")
	seed := flag.Uint64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print per-batch details")
	live := flag.Bool("live", false, "also replay the workload on the live transport under churn")
	liveRemovals := flag.Int("live-removals", 2, "busiest forwarders removed mid-run in the live replay")
	netBackend := flag.String("net", "inproc", "live-replay forwarding backend: inproc | tcp (real 127.0.0.1 sockets via internal/netwire; implies -live)")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry on this address (Prometheus /metrics, JSON /metrics.json, /trace, pprof); :0 picks a free port")
	traceCap := flag.Int("trace-cap", 65536, "span-recorder capacity; spans past it are counted as dropped")
	metricsEvery := flag.Duration("metrics-every", 0, "log a telemetry snapshot table to stderr at this interval (0 = off)")
	spanOut := flag.String("span-out", "", "write the causal span log as JSONL to this file (faultsim world or -live replay; read it with tracetool)")
	phaseReport := flag.String("phase-report", "", "profile the simulator's phases and write the per-phase breakdown JSON to this file")
	faults := flag.String("faults", "", "run a deterministic fault-injection plan instead of the simulator: a plan JSON path, or gen:<seed>")
	clusterWorker := flag.String("cluster-worker", "", "run as a clusterd worker process: the orchestrator's control address (see cmd/clusterd)")
	clusterIndex := flag.Int("cluster-index", 0, "this process's worker index under -cluster-worker")
	flag.Parse()

	if *clusterWorker != "" {
		if err := clusterd.RunWorker(*clusterWorker, *clusterIndex); err != nil {
			fmt.Fprintf(os.Stderr, "anonsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *faults != "" {
		os.Exit(runFaults(*faults, *spanOut))
	}

	switch *netBackend {
	case "inproc":
	case "tcp":
		*live = true // the TCP backend only exists in the live replay
	default:
		fmt.Fprintf(os.Stderr, "unknown -net backend %q (want inproc or tcp)\n", *netBackend)
		os.Exit(2)
	}

	// The unified registry and the span recorder back every instrumented
	// layer of the run; they stay nil (all hooks no-ops) unless a
	// telemetry flag asks for them.
	var reg *telemetry.Registry
	if *metricsAddr != "" || *metricsEvery > 0 {
		reg = telemetry.NewRegistry()
	}
	var spanRec *telemetry.SpanRecorder
	if *spanOut != "" && !*live {
		fmt.Fprintln(os.Stderr, "anonsim: -span-out captures spans from the -live replay or a -faults run; enabling -live")
		*live = true
	}
	if *spanOut != "" || (*metricsAddr != "" && *live) {
		spanRec = telemetry.NewSpanRecorder(*traceCap)
		spanRec.SetSeed(int64(*seed))
	}
	var srv *telemetry.Server
	if *metricsAddr != "" {
		var err error
		srv, err = telemetry.Serve(*metricsAddr, reg, spanRec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "anonsim: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving http://%s/metrics (also /metrics.json, /trace, /debug/pprof/)\n", srv.Addr())
	}
	if *metricsEvery > 0 {
		go func() {
			for range time.Tick(*metricsEvery) {
				report.TelemetryTable(fmt.Sprintf("telemetry snapshot %s", time.Now().Format(time.TimeOnly)),
					reg.Snapshot()).Render(os.Stderr)
			}
		}()
	}

	var strategy core.Strategy
	switch *strat {
	case "random":
		strategy = core.Random
	case "utility-I":
		strategy = core.UtilityI
	case "utility-II":
		strategy = core.UtilityII
	case "fixed-path":
		strategy = core.FixedPath
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strat)
		os.Exit(2)
	}

	s := experiment.Default()
	s.N = *n
	s.Degree = *d
	s.MaliciousFraction = *f
	s.Strategy = strategy
	s.Workload.Pairs = *pairs
	s.Workload.Transmissions = *tx
	s.Workload.MaxConnections = *maxconn
	s.Workload.Tau = *tau
	s.Churn = *churnOn
	s.Seed = *seed
	if *crowdsPf > 0 {
		s.Core.Termination = core.CrowdsCoin
		s.Core.ForwardProb = *crowdsPf
		s.Core.MaxHops = 12
	}
	s.Core.PositionAware = *posAware
	s.Telemetry = reg

	var prof *telemetry.PhaseProfiler
	if *phaseReport != "" {
		prof = telemetry.NewPhaseProfiler()
		prof.Instrument(reg) // nil-safe: feeds sim_phase_seconds when serving
		s.Profile = prof
	}

	res, err := experiment.Run(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "anonsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("anonsim: N=%d d=%d f=%.2f strategy=%s tau=%g churn=%v seed=%d\n\n",
		*n, *d, *f, strategy, *tau, *churnOn, *seed)

	iv := res.AvgGoodPayoff()
	fmt.Printf("batches completed:        %d (skipped connections: %d)\n", len(res.Batches), res.Skipped)
	fmt.Printf("avg good-node payoff:     %s\n", iv)
	fmt.Printf("avg forwarder set ‖π‖:    %.2f\n", res.AvgSetSize())
	fmt.Printf("routing efficiency:       %.2f\n", res.RoutingEfficiency())
	fmt.Printf("avg new-edge rate (E[X]): %.4f\n", stats.Mean(res.NewEdgeRates))
	fmt.Printf("declined requests:        %d\n\n", res.TotalDeclines)

	if len(res.GoodPayoffs) > 0 {
		cdf := res.PayoffCDF()
		fmt.Printf("payoff quantiles: p10=%.1f p50=%.1f p90=%.1f max=%.1f\n",
			cdf.Quantile(0.1), cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Max())
		h := stats.NewHistogram(0, cdf.Max()+1, 12)
		for _, p := range res.GoodPayoffs {
			h.Add(p)
		}
		fmt.Println()
		fmt.Print(report.Histogram("good-node payoff distribution", h, 40))
	}

	if *verbose {
		fmt.Println("\nper-batch details (worst path quality first):")
		batches := res.Batches
		sort.Slice(batches, func(i, j int) bool { return batches[i].Quality < batches[j].Quality })
		for _, b := range batches {
			fmt.Printf("  pair %3d: I=%d R=%d conns=%d ‖π‖=%d L=%.2f Q=%.3f newEdge=%.3f\n",
				b.Pair.Index, b.Pair.Initiator, b.Pair.Responder,
				b.Pair.Connections, b.SetSize, b.AvgLen, b.Quality, b.NewEdgeRate)
		}
	}

	if *live {
		runLive(strategy, *netBackend, *n, *d, *pairs, *tx, *maxconn, *liveRemovals, *seed,
			stats.Mean(res.NewEdgeRates), reg, spanRec)
	}

	if reg != nil {
		fmt.Println()
		report.TelemetryTable("telemetry totals", reg.Snapshot()).Render(os.Stdout)
	}
	if srv != nil {
		scrapeSummary(srv.Addr())
	}
	if *spanOut != "" {
		if err := spanRec.DumpJSONL(*spanOut); err != nil {
			fmt.Fprintf(os.Stderr, "anonsim: writing span log: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: wrote %d spans to %s (%d dropped); tracetool %s renders the causal trees\n",
			spanRec.Total(), *spanOut, spanRec.Dropped(), *spanOut)
	}
	if prof != nil {
		if err := prof.DumpJSON(*phaseReport); err != nil {
			fmt.Fprintf(os.Stderr, "anonsim: writing phase report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("phases: wrote breakdown to %s (dominant: %s)\n", *phaseReport, prof.Dominant())
		sv := res.Solver
		fmt.Printf("solver: %d memo resets (%d discarded a filled memo), %d connections reused the memo, %d cells computed\n",
			sv.Solves, sv.Fallbacks, sv.Incremental, sv.FrontierCells)
	}
}

// scrapeSummary fetches the live /metrics endpoint once and reports which
// metric families it is exposing — a self-check that the exposition works
// end to end while the server is still up.
func scrapeSummary(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "anonsim: scraping own metrics: %v\n", err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "anonsim: reading own metrics: %v\n", err)
		return
	}
	families := 0
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
	}
	fmt.Printf("scrape: GET http://%s/metrics -> %s, %d bytes, %d metric families\n",
		addr, resp.Status, len(body), families)
}

// runLive replays the workload shape on the concurrent transport with
// mid-run removals and prints the live reformation counters alongside the
// simulator's new-edge rate. With backend "tcp" the replay runs over a
// netwire loopback cluster — real sockets, the same Conductor surface.
func runLive(strategy core.Strategy, backend string, n, d, pairs, tx, maxconn, removals int, seed uint64,
	simNewEdge float64, reg *telemetry.Registry, spans *telemetry.SpanRecorder) {
	if strategy == core.FixedPath {
		fmt.Println("\nlive replay: fixed-path has no live router; use random/utility-I/utility-II")
		return
	}
	ls := experiment.DefaultLive()
	ls.N, ls.Degree = n, d
	ls.Pairs, ls.Transmissions, ls.MaxConnections = pairs, tx, maxconn
	ls.Removals = removals
	ls.Strategy = strategy
	ls.Seed = seed
	ls.Telemetry = reg
	ls.Spans = spans
	if backend == "tcp" {
		ls.NewConductor = func() transport.Conductor {
			return netwire.NewCluster(netwire.Config{})
		}
	}
	out, err := experiment.RunLive(ls)
	if err != nil {
		fmt.Fprintf(os.Stderr, "anonsim: live replay: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nlive replay (%s over %s, %d mid-run removals %v):\n", strategy, backend, len(out.Removed), out.Removed)
	fmt.Printf("  connections completed:  %d (failed: %d)\n", out.Completed, out.Failed)
	fmt.Printf("  path reformations:      %d (rate %.4f vs sim E[X] %.4f)\n",
		out.Reformations, out.ReformationRate, simNewEdge)
	fmt.Printf("  transport metrics:      %s\n", out.Metrics)
	if reg != nil {
		fmt.Println()
		fmt.Print(report.HistogramChart("connect latency (seconds)", out.Metrics.ConnectLatency, 40))
		fmt.Println()
		fmt.Print(report.HistogramChart("realised path length (nodes)", out.Metrics.PathLength, 40))
	}
}
