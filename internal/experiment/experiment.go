// Package experiment is the reproduction harness: it wires the overlay,
// churn, probing, workload and incentive core together, runs complete
// simulations, and exposes one function per table/figure of the paper's
// evaluation (§3) returning typed rows/series:
//
//	Fig. 3/4  — average good-node payoff vs malicious fraction (UM-I/UM-II)
//	Table 2   — routing efficiency over the τ × f grid
//	Fig. 5    — average forwarder-set size per routing strategy
//	Fig. 6/7  — CDF of good-node payoffs at f = 0.1 / 0.5
//
// plus the propositions (participation thresholds, reformation rates), the
// ablations called out in DESIGN.md, and the attack studies.
package experiment

import (
	"fmt"

	"p2panon/internal/churn"
	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
	"p2panon/internal/stats"
	"p2panon/internal/telemetry"
	"p2panon/internal/trace"
)

// Simulator metric names (bound when Setup.Telemetry is set).
const (
	metricSimConnections = "sim_connections_total" // label result: ok|skipped
	metricSimSetSize     = "sim_batch_set_size"    // per-batch ‖π‖
	metricSimQuality     = "sim_batch_quality"     // per-batch Q(π) = L/‖π‖
	metricSimNewEdgeRate = "sim_new_edge_rate"     // per-batch Prop. 1 E[X]
)

// Setup fully describes one simulation run. The zero value is not valid;
// start from Default().
type Setup struct {
	// N is the node population (paper: 40); Degree the neighbor-set size
	// (paper: 5).
	N, Degree int
	// MaliciousFraction f of nodes route randomly as adversaries.
	MaliciousFraction float64
	// Strategy is the routing strategy good nodes use.
	Strategy core.Strategy
	// Workload is the (I,R)-pair/connection schedule.
	Workload trace.Workload
	// Core is the routing-mechanism configuration.
	Core core.Config
	// Churn enables node churn; when false the overlay is static.
	Churn bool
	// ChurnConfig is used when Churn is true (N and MaliciousFraction are
	// overridden from this Setup).
	ChurnConfig churn.Config
	// ProbePeriod is the availability-probing period T.
	ProbePeriod sim.Time
	// WarmupProbes ticks the estimators before the workload starts so
	// availability scores are informative from the first connection.
	WarmupProbes int
	// Seed drives all randomness.
	Seed uint64
	// Telemetry, when non-nil, receives the run's instruments: overlay
	// churn transitions, probe estimator updates, and sim_* connection
	// and batch-outcome series. Nil leaves the run uninstrumented (the
	// per-event cost is a nil check).
	Telemetry *telemetry.Registry
	// Profile, when non-nil, receives the run's per-phase wall-time and
	// allocation brackets (SPNE solve, probe ticks, candidate
	// gathering, route walk, settlement). Purely observational: it never
	// draws randomness or alters routing, so transcripts are unchanged.
	Profile *telemetry.PhaseProfiler
}

// Default returns the paper's §3 experimental setup (strategy and
// malicious fraction left for the caller to sweep).
func Default() Setup {
	return Setup{
		N:            40,
		Degree:       5,
		Strategy:     core.UtilityI,
		Workload:     trace.DefaultWorkload(),
		Core:         core.DefaultConfig(),
		Churn:        true,
		ChurnConfig:  churn.DefaultConfig(),
		ProbePeriod:  probe.DefaultPeriod,
		WarmupProbes: 5,
		Seed:         1,
	}
}

// Quick returns a scaled-down setup for unit tests and smoke benches:
// 12 pairs × up to 10 connections over a 30-node static overlay.
func Quick() Setup {
	s := Default()
	s.N = 30
	s.Churn = false
	s.Workload.Pairs = 12
	s.Workload.Transmissions = 120
	s.Workload.MaxConnections = 10
	return s
}

// BatchStats summarises one completed batch.
type BatchStats struct {
	Pair        trace.Pair
	SetSize     int
	AvgLen      float64
	Quality     float64 // Q(π) = L/‖π‖
	NewEdgeRate float64
	Declines    int
	// GoodIncomes holds each good member's income m·P_f + P_r/‖π‖.
	GoodIncomes []float64
	// GoodNets holds the matching net payoffs (income − cost).
	GoodNets []float64
}

// Result aggregates one full simulation run.
type Result struct {
	Setup   Setup
	Batches []BatchStats
	// GoodPayoffs pools every (batch, good member) income sample — the
	// population behind Figs. 3 and 4 ("average payoff for a
	// non-malicious node" per batch membership).
	GoodPayoffs []float64
	// GoodNodeTotals holds, for every good node that ever existed in the
	// run, its total income across all batches (zero if it never
	// forwarded) — the per-node population behind Figs. 6 and 7's "CDF
	// of payoff for good nodes".
	GoodNodeTotals []float64
	// SetSizes pools per-batch ‖π‖ values (Fig. 5, Table 2 denominator).
	SetSizes []float64
	// NewEdgeRates pools per-batch Prop. 1 empirical E[X].
	NewEdgeRates []float64
	// Skipped counts connections skipped because an endpoint was offline.
	Skipped int
	// TotalDeclines counts NULL plays across all batches.
	TotalDeclines int
	// Solver aggregates the run's SPNE solve statistics: memo resets,
	// connections that reused the memo, and the cells the cones computed
	// (-phase-report surfaces it).
	Solver core.SolverStats
}

// AvgGoodPayoff returns the mean and 95% CI of the good-payoff samples.
func (r *Result) AvgGoodPayoff() stats.Interval {
	var a stats.Accumulator
	a.AddAll(r.GoodPayoffs)
	return a.Summary()
}

// AvgSetSize returns the mean forwarder-set size across batches.
func (r *Result) AvgSetSize() float64 { return stats.Mean(r.SetSizes) }

// RoutingEfficiency returns Table 2's metric: average payoff divided by
// the average number of forwarders.
func (r *Result) RoutingEfficiency() float64 {
	den := r.AvgSetSize()
	if den == 0 {
		return 0
	}
	return r.AvgGoodPayoff().Mean / den
}

// PayoffCDF returns the empirical CDF over the good-payoff samples.
func (r *Result) PayoffCDF() *stats.CDF { return stats.NewCDF(r.GoodPayoffs) }

// harness is the assembled simulation: overlay, churn, probes, system,
// workload and the scheduled connection events, with optional hooks for
// attacker instrumentation.
type harness struct {
	s       Setup
	engine  *sim.Engine
	net     *overlay.Network
	sys     *core.System
	pairs   []trace.Pair
	batches []*core.Batch
	horizon sim.Time
	skipped int

	// beforeConnection runs before a scheduled connection attempt (even
	// if it is skipped); afterConnection runs after a successful one.
	beforeConnection func(pairIdx int)
	afterConnection  func(pairIdx int, res *core.PathResult)

	// Telemetry instruments; nil (no-op) unless Setup.Telemetry was set.
	connOK, connSkipped       *telemetry.Counter
	setSize, quality, newEdge *telemetry.Histogram
}

// newHarness builds the full simulation but does not run it.
func newHarness(s Setup) (*harness, error) {
	if s.N < 2 {
		return nil, fmt.Errorf("experiment: N=%d", s.N)
	}
	rng := dist.NewSource(s.Seed)
	net := overlay.NewNetwork(s.Degree, rng.Split())
	// Instrument before the churn driver joins the initial population so
	// those transitions are counted too.
	net.Instrument(s.Telemetry)
	engine := sim.NewEngine()

	cc := s.ChurnConfig
	cc.N = s.N
	cc.MaliciousFraction = s.MaliciousFraction
	if !s.Churn {
		cc = churn.Config{N: s.N, MaliciousFraction: s.MaliciousFraction, Static: true}
	}
	drv := churn.NewDriver(cc, net, rng.Split())
	drv.Start(engine)

	probes := probe.NewSet(net, rng.Split(), s.ProbePeriod)
	probes.Prof = s.Profile
	probes.Instrument(s.Telemetry)
	for i := 0; i < s.WarmupProbes; i++ {
		probes.TickAll()
	}
	probes.Attach(engine)

	sys, err := core.NewSystem(s.Core, net, probes, rng.Split())
	if err != nil {
		return nil, err
	}
	sys.Prof = s.Profile
	sys.Instrument(s.Telemetry)

	pairs, err := s.Workload.Generate(net, rng.Split())
	if err != nil {
		return nil, err
	}

	h := &harness{s: s, engine: engine, net: net, sys: sys, pairs: pairs}
	if reg := s.Telemetry; reg != nil {
		reg.Help(metricSimConnections, "scheduled connections run (result=ok) or skipped for an offline endpoint (result=skipped)")
		reg.Help(metricSimSetSize, "per-batch forwarder-set size ‖π‖")
		reg.Help(metricSimQuality, "per-batch anonymity quality Q(π) = L/‖π‖")
		reg.Help(metricSimNewEdgeRate, "per-batch empirical new-edge (reformation) rate E[X]")
		h.connOK = reg.Counter(metricSimConnections, telemetry.Labels{"result": "ok"})
		h.connSkipped = reg.Counter(metricSimConnections, telemetry.Labels{"result": "skipped"})
		h.setSize = reg.Histogram(metricSimSetSize, telemetry.LinearBuckets(1, 1, 16), nil)
		h.quality = reg.Histogram(metricSimQuality, telemetry.LinearBuckets(0.25, 0.25, 16), nil)
		h.newEdge = reg.Histogram(metricSimNewEdgeRate, telemetry.LinearBuckets(0.1, 0.1, 10), nil)
	}
	h.batches = make([]*core.Batch, len(pairs))
	for i, p := range pairs {
		b, err := sys.NewBatch(p.Initiator, p.Responder, p.Contract, s.Strategy)
		if err != nil {
			return nil, err
		}
		h.batches[i] = b
	}

	// Schedule each pair's recurring connections: the pair starts at a
	// random offset within the first mean-gap window, then repeats with
	// exponential gaps (recurring HTTP/FTP-style traffic).
	workRng := rng.Split()
	for i, p := range pairs {
		i, p := i, p
		gap := s.Workload.MeanGap
		if gap <= 0 {
			gap = 1
		}
		at := sim.Time(workRng.Uniform(0, gap))
		for c := 0; c < p.Connections; c++ {
			at += sim.Time(workRng.Exponential(1 / gap))
			engine.Schedule(at, sim.EventFunc(func(e *sim.Engine) {
				if h.beforeConnection != nil {
					h.beforeConnection(i)
				}
				if !h.net.Online(p.Initiator) || !h.net.Online(p.Responder) {
					h.skipped++
					h.connSkipped.Inc()
					return
				}
				// Keep the initiator's neighbor view repaired under churn.
				h.net.RefreshNeighbors(p.Initiator)
				res := h.batches[i].RunConnection()
				h.connOK.Inc()
				if h.afterConnection != nil {
					h.afterConnection(i, res)
				}
			}))
			if at > h.horizon {
				h.horizon = at
			}
		}
	}
	return h, nil
}

// run executes the simulation to just past the last scheduled connection.
func (h *harness) run() error {
	h.engine.RunUntil(h.horizon + 1)
	return nil
}

// result settles every batch and aggregates the run.
func (h *harness) result() *Result {
	res := &Result{Setup: h.s, Skipped: h.skipped, Solver: h.sys.SolverStats()}
	nodeTotals := make(map[overlay.NodeID]float64)
	for i, b := range h.batches {
		if b.Connections() == 0 {
			continue
		}
		fs := b.ForwarderSet()
		bs := BatchStats{
			Pair:        h.pairs[i],
			SetSize:     fs.Size(),
			AvgLen:      fs.AvgLen(),
			Quality:     fs.Quality(),
			NewEdgeRate: b.NewEdgeRate(),
			Declines:    b.Declines(),
		}
		for _, p := range b.GoodPayoffs() {
			bs.GoodIncomes = append(bs.GoodIncomes, p.Income)
			bs.GoodNets = append(bs.GoodNets, p.Net)
			res.GoodPayoffs = append(res.GoodPayoffs, p.Income)
			nodeTotals[p.Node] += p.Income
		}
		res.SetSizes = append(res.SetSizes, float64(bs.SetSize))
		res.NewEdgeRates = append(res.NewEdgeRates, bs.NewEdgeRate)
		h.setSize.Observe(float64(bs.SetSize))
		h.quality.Observe(bs.Quality)
		h.newEdge.Observe(bs.NewEdgeRate)
		res.TotalDeclines += bs.Declines
		res.Batches = append(res.Batches, bs)
	}
	// Per-node totals over every good node in the run (zeros included):
	// the paper's Figs. 6-7 population.
	for _, id := range h.net.AllIDs() {
		if !h.net.Node(id).Malicious {
			res.GoodNodeTotals = append(res.GoodNodeTotals, nodeTotals[id])
		}
	}
	return res
}

// Run executes one full simulation described by s.
func Run(s Setup) (*Result, error) {
	h, err := newHarness(s)
	if err != nil {
		return nil, err
	}
	if err := h.run(); err != nil {
		return nil, err
	}
	return h.result(), nil
}

// RunTrials runs the same setup with trial-indexed seeds, one trial at a
// time, and returns all results (RunTrialsParallel with one worker).
func RunTrials(s Setup, trials int) ([]*Result, error) {
	return RunTrialsParallel(s, trials, 1)
}

// PoolPayoffs concatenates the good-payoff samples of several results.
func PoolPayoffs(rs []*Result) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.GoodPayoffs...)
	}
	return out
}

// PoolSetSizes concatenates per-batch ‖π‖ samples of several results.
func PoolSetSizes(rs []*Result) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.SetSizes...)
	}
	return out
}

// PoolNodeTotals concatenates the per-good-node total payoffs of several
// results (the Figs. 6-7 population).
func PoolNodeTotals(rs []*Result) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.GoodNodeTotals...)
	}
	return out
}
