// Package core implements the paper's primary contribution: incentive-driven
// forwarding and routing for a P2P anonymity overlay.
//
// An initiator I that wants a batch π of k recurring connections to a
// responder R publishes a Contract: a forwarding benefit P_f paid per
// forwarding instance and a routing benefit P_r shared by the whole
// forwarder set. Forwarders pick successors to maximise their utility:
//
//	Model I  (edge-local):    U_i(j) = P_f + q(i,j)·P_r − (C^p_i + C^t(i,j))
//	Model II (path-lookahead): U_i(j) = P_f + q(π(i,j,R))·P_r − (C^p_i + C^t(i,j))
//
// with edge quality q combining history selectivity and probed
// availability (quality package) and Model II's path quality derived from
// the SPNE of the L-stage path game (game package). The package tracks
// forwarder sets, forwarding counts, reformation statistics and payoffs —
// everything the paper's evaluation (§3) measures.
package core

import (
	"fmt"

	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/quality"
	"p2panon/internal/telemetry"
)

// Strategy selects how a (good) node routes. Malicious nodes always route
// randomly regardless of the configured strategy, per the paper's
// adversary model.
type Strategy uint8

const (
	// Random routing: uniform choice among candidates (the baseline and
	// the adversary behaviour).
	Random Strategy = iota
	// UtilityI is edge-local utility maximisation (Utility Model I).
	UtilityI
	// UtilityII is path-lookahead utility maximisation via the SPNE of
	// the stage game (Utility Model II).
	UtilityII
	// FixedPath is the Figueiredo-Shapiro-Towsley [13] style baseline the
	// paper's related work discusses: the initiator source-routes one
	// fixed path and reuses it for every connection of the batch,
	// re-forming (randomly) only when a path member goes offline. It
	// requires the initiator to know the intermediate nodes — the
	// limitation the paper's mechanism removes.
	FixedPath
)

// String returns the strategy name as used in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case Random:
		return "random"
	case UtilityI:
		return "utility-I"
	case UtilityII:
		return "utility-II"
	case FixedPath:
		return "fixed-path"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Termination selects how a connection decides to stop forwarding and
// deliver to R. The paper notes "both Crowds like probabilistic forwarding
// and hop-distance based forwarding are applicable to our model" (§2.2);
// both are implemented.
type Termination uint8

const (
	// HopBudget draws a per-connection hop budget in [MinHops, MaxHops]
	// and delivers when it is exhausted. Because every strategy shares
	// the drawn budget, forwarder-set comparisons are length-normalised.
	HopBudget Termination = iota
	// CrowdsCoin flips a coin at every interior hop: with probability
	// ForwardProb the payload is forwarded, otherwise it is delivered to
	// R (Crowds' p_f rule). MaxHops still caps runaway paths.
	CrowdsCoin
)

// String returns the termination-mode name.
func (t Termination) String() string {
	switch t {
	case HopBudget:
		return "hop-budget"
	case CrowdsCoin:
		return "crowds-coin"
	default:
		return fmt.Sprintf("Termination(%d)", uint8(t))
	}
}

// Contract is the initiator's published payment commitment for one batch.
type Contract struct {
	Pf float64 // forwarding benefit per forwarding instance
	Pr float64 // routing benefit shared by the forwarder set
}

// Payoff is the paper's payout to a member of a forwarder set of size
// members that forwarded m times: m·P_f + P_r/‖π‖. Every payout is
// computed here, so payoffs agree to the bit wherever they are checked.
func (c Contract) Payoff(m, size int) float64 {
	return float64(m)*c.Pf + c.Pr/float64(size)
}

// ContractWithTau builds a contract from a forwarding benefit and τ.
func ContractWithTau(pf, tau float64) Contract {
	return Contract{Pf: pf, Pr: tau * pf}
}

// Config holds the routing-mechanism parameters shared by all batches.
type Config struct {
	// Weights are the (w_s, w_a) edge-quality weights; the paper's
	// experiments use 0.5/0.5.
	Weights quality.Weights
	// Cost is the peer cost model (C^p, C^t).
	Cost game.CostModel
	// MinHops and MaxHops bound the per-connection hop budget: each
	// connection draws a budget uniformly in [MinHops, MaxHops], and the
	// holder delivers to R when it is exhausted. All strategies share the
	// drawn budget so forwarder-set comparisons are length-normalised, as
	// the paper's Q(π) = L/‖π‖ metric intends.
	MinHops, MaxHops int
	// Termination selects hop-budget or Crowds-coin delivery (§2.2).
	Termination Termination
	// ForwardProb is Crowds' p_f, used when Termination is CrowdsCoin.
	ForwardProb float64
	// PositionAware switches Utility Model I's selectivity to the
	// predecessor-differentiated form of §2.3: a node occupying two
	// positions on the same recurring path scores each position's
	// outgoing edges from its own history rows only. (Model II's stage
	// game is position-free by construction.)
	PositionAware bool
	// TopKJitter is the §5 availability-attack countermeasure: instead of
	// deterministically playing the argmax neighbor, a Model-I forwarder
	// picks uniformly among its top-K utility candidates. K = 0 or 1 is
	// the paper's pure argmax; K > 1 trades a slightly larger forwarder
	// set for unpredictability an always-online adversary cannot park on.
	TopKJitter int
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		Weights: quality.DefaultWeights(),
		Cost:    game.UniformCost(5, 2),
		MinHops: 2,
		MaxHops: 6,
	}
}

func (c Config) validate() error {
	if err := c.Weights.Validate(); err != nil {
		return err
	}
	if c.MinHops < 1 || c.MaxHops < c.MinHops {
		return fmt.Errorf("core: hop bounds [%d, %d]", c.MinHops, c.MaxHops)
	}
	if c.Termination == CrowdsCoin && (c.ForwardProb <= 0 || c.ForwardProb >= 1) {
		return fmt.Errorf("core: Crowds forward probability %g outside (0, 1)", c.ForwardProb)
	}
	if c.TopKJitter < 0 {
		return fmt.Errorf("core: top-K jitter %d", c.TopKJitter)
	}
	return nil
}

// System ties together the overlay and the per-node probing estimators,
// and stamps out batches; each batch keeps its own history.
type System struct {
	Net    *overlay.Network
	Probes *probe.Set

	// Prof, when non-nil, receives per-phase wall-time and allocation
	// brackets from the routing loop (telemetry phase taxonomy: the
	// solve.* pair, overlay.candidates and route.walk). Nil costs one
	// branch per bracket site; it never affects routing decisions or
	// randomness, so transcripts are identical with or without it.
	Prof *telemetry.PhaseProfiler

	cfg     Config
	rng     *dist.Source
	batches int

	// minCt memoises minTransmission per node; the whole memo is keyed to
	// the overlay's structural version, so any churn or neighbor edit
	// invalidates it exactly.
	minCt        map[overlay.NodeID]float64
	minCtVersion uint64

	// open counts batches not yet closed; the solve state below is
	// released when the last one closes.
	open int

	// memo is the one demand-driven SPNE memo (game.SolveFrom), shared by
	// every batch: it holds cells of the last solve's stage game, and
	// every solve resets it first.
	memo game.Memo

	// stage is the Model-II stage game, its Adjacency bound once and its
	// row rule set by every memo reset. A row is the node's base row, read
	// in place, or — for a node whose edges the solving batch's history
	// names — the same successors with a σ overlay, the one copy a row
	// gets. Rows are set on first use since the memo reset (fill, the
	// solving batch's Batch.row), so a cone solve touches the rows of the
	// cone's nodes at stage 2 and above only. rowAt[i] says how node i's row is
	// set: unset (0, or rowHolder for a history holder), its base row
	// (rowBase), or k+1 for an overlay scored into overlay[k:].
	stage   game.PathGame
	rowAt   []int32
	overlay []float64
	fill    func(i int)

	// base holds the batch-independent part of every node's row (see
	// baseRow), revalidated per use rather than per overlay or probe
	// version: one churn event or probe round invalidates only the rows it
	// actually touched. It outlives the memo.
	base baseRows

	// solverStats accumulates the solve counters system-wide.
	solverStats SolverStats

	// Solve telemetry; nil (no-op) until Instrument binds it.
	mCells *telemetry.Counter
}

// SolverStats accumulates what the Utility Model II solver did across a
// System's lifetime, mirroring the solve_* telemetry for callers without
// a registry (anonsim's phase report).
type SolverStats struct {
	// Solves counts solves, each from a reset memo.
	Solves int
	// Incremental always reads 0: no solve reuses the memo. It stays
	// while the benchmark's core.incremental_hit_ratio reads it.
	Incremental int
	// Fallbacks counts the solves that discarded a memo an earlier solve
	// had filled (every solve but the first after a release).
	Fallbacks int
	// FrontierCells totals the cells computed: the cones' cells at stages
	// ≥ 1, not the table. A cone solve never fills stage 0.
	FrontierCells int
}

// SolverStats returns the accumulated solve counters.
func (s *System) SolverStats() SolverStats { return s.solverStats }

// metricSolveCells is the solver's metric name (see System.Instrument).
const metricSolveCells = "solve_cells_total"

// Instrument binds the solver's telemetry into reg: the cells computed by
// demand-driven solves.
func (s *System) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Help(metricSolveCells, "stage-game cells computed by demand-driven SPNE solves (the cones, not the full tables)")
	s.mCells = reg.Counter(metricSolveCells, nil)
}

// NewSystem constructs a routing system over an existing overlay. Probing
// must be driven by the caller (probe.Set.Attach or TickAll); the system
// only consumes the estimates.
func NewSystem(cfg Config, net *overlay.Network, probes *probe.Set, rng *dist.Source) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if net == nil || probes == nil || rng == nil {
		return nil, fmt.Errorf("core: nil dependency (net=%v probes=%v rng=%v)", net == nil, probes == nil, rng == nil)
	}
	s := &System{
		Net:    net,
		Probes: probes,
		cfg:    cfg,
		rng:    rng,
		minCt:  make(map[overlay.NodeID]float64),
	}
	// The stage game's Adjacency: node i's base row, with its σ
	// overlay's qualities when it has one. baseRow returns a row whose
	// inputs have not moved after two compares. A closure, not a method
	// value, so that a solve's per-cell lookup is one call.
	adjacency := func(i int) ([]int32, []float64) {
		at := s.rowAt[i]
		if at <= 0 && at != rowBase {
			s.fill(i)
			at = s.rowAt[i]
		}
		off, n := s.baseRow(overlay.NodeID(i))
		if at == rowBase {
			return s.base.succ[off : off+n], s.base.qual[off : off+n]
		}
		return s.base.succ[off : off+n], s.overlay[at-1 : at-1+n]
	}
	s.stage = game.PathGame{Adjacency: adjacency, Cost: cfg.Cost, MaxHops: cfg.MaxHops}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// minTransmission returns the minimum C^t over node's online neighbors
// (or 0 when it has none — delivery to R is then its only move). The
// result is memoised per node against the overlay's structural version:
// participation checks run once per candidate per hop, and between churn
// events the answer cannot change.
func (s *System) minTransmission(node overlay.NodeID) float64 {
	if v := s.Net.Version(); v != s.minCtVersion {
		clear(s.minCt)
		s.minCtVersion = v
	}
	if ct, ok := s.minCt[node]; ok {
		return ct
	}
	min := -1.0
	for _, v := range s.Net.Node(node).Neighbors {
		if !s.Net.Online(v) {
			continue
		}
		ct := s.cfg.Cost.Transmission(int(node), int(v))
		if min < 0 || ct < min {
			min = ct
		}
	}
	if min < 0 {
		min = 0
	}
	s.minCt[node] = min
	return min
}

// createEstimators gives every online node other than r its probe
// estimator, in ascending ID order. Creation splits the probe set's RNG
// and fixes which neighbors the estimator starts out knowing, so when it
// happens is part of the transcript; Batch.spneTable says when. Free when
// no node lacks one.
func (s *System) createEstimators(r overlay.NodeID) {
	n := s.Net.Len()
	if s.Probes.Len() == n {
		return
	}
	for id := overlay.NodeID(0); int(id) < n; id++ {
		if id != r && s.Net.Online(id) {
			s.Probes.For(id)
		}
	}
}

// baseRows holds every node's base row, the batch-independent part of
// its stage-game row, in one flat arena, and beside it each
// successor's position in the owner's estimator list
// (probe.Estimator.Index). Node id's row is the arena slot meta[id]
// names; a row that outgrows its slot moves to the arena's end.
type baseRows struct {
	succ []int32
	qual []float64
	at   []int32
	meta []baseMeta
}

// baseMeta is one row's slot and stamps. The row is current while the
// owner's neighbor list (nbrVer, the overlay's NeighborsVersion stamp)
// and the probe set (probeVer, its Version + 1; 0 = never built) are
// unchanged: two dense compares. Past them, the successors are valid
// while nbrVer holds; at while in addition the estimator's list is
// unchanged (lists); the qualities while, in addition, the estimator has
// not ticked (probes). A probe round alone therefore only rescores the
// row, in O(d).
type baseMeta struct {
	nbrVer, probeVer uint64
	lists            uint64
	probes           int
	off, n, cap      int32
}

// baseRow returns the arena span of id's base row, rebuilding in place
// what is stale.
func (s *System) baseRow(id overlay.NodeID) (off, n int32) {
	br := &s.base
	m := &br.meta[id]
	probeVer := s.Probes.Version() + 1
	if nv := s.Net.NeighborsVersion(id); m.nbrVer != nv || m.probeVer != probeVer {
		est := s.Probes.For(id)
		stale := m.nbrVer != nv || m.probeVer == 0
		if stale {
			nbrs := s.Net.Node(id).Neighbors
			if len(nbrs) > int(m.cap) {
				m.off, m.cap = int32(len(br.succ)), int32(len(nbrs))
				br.succ = append(br.succ, make([]int32, len(nbrs))...)
				br.qual = append(br.qual, make([]float64, len(nbrs))...)
				br.at = append(br.at, make([]int32, len(nbrs))...)
			}
			succ := br.succ[m.off:m.off]
			for _, u := range nbrs {
				if u != id {
					succ = append(succ, int32(u))
				}
			}
			m.n = int32(game.SortUnique(succ))
		}
		lo, hi := m.off, m.off+m.n
		if stale || m.lists != est.Lists() {
			m.lists = est.Lists()
			for a, v := range br.succ[lo:hi] {
				br.at[lo+int32(a)] = int32(est.Index(overlay.NodeID(v)))
			}
			stale = true
		}
		if stale || m.probes != est.Probes() {
			m.probes = est.Probes()
			for a, k := range br.at[lo:hi] {
				br.qual[lo+int32(a)] = s.cfg.Weights.Edge(0, est.AvailabilityAt(int(k)))
			}
		}
		m.nbrVer, m.probeVer = nv, probeVer
	}
	return m.off, m.n
}

// rowBase and rowHolder are System.rowAt's marks: a row set to its base
// row, and the unset row of a node whose edges the solving batch's
// history names.
const rowBase, rowHolder = -1, -2

// resetMemo forgets every solved cell and set row and sizes the solve
// state for the game of b: in the simulator every online node other than
// R holds a row, the initiator is dropped from every row, and every
// holder may deliver to R. b's history holders are snapshotted into
// rowAt, one mark per node instead of a map lookup per row. Base rows
// survive: they revalidate themselves.
func (s *System) resetMemo(b *Batch) {
	n := s.Net.Len()
	s.memo.Reset(n, s.cfg.MaxHops)
	s.stage.Rule = game.RowRule{Holds: s.Net.Up(), Initiator: int(b.Initiator), Deliver: true}
	if len(s.rowAt) != n {
		s.rowAt = make([]int32, n)
	}
	clear(s.rowAt) // four bytes per node: noise beside the solve it serves
	for id := range b.histNodes {
		s.rowAt[id] = rowHolder
	}
	s.overlay, s.fill = s.overlay[:0], b.fill
	if len(s.base.meta) < n {
		s.base.meta = append(s.base.meta, make([]baseMeta, n-len(s.base.meta))...)
	}
}

// releaseSolve drops the solve state a closed batch no longer needs: the
// memo, the overlays and the holder snapshot. Base rows are kept: they
// belong to the node like the estimators they are read from.
func (s *System) releaseSolve() {
	s.memo = game.Memo{}
	s.rowAt, s.overlay, s.fill = nil, nil, nil
	s.stage.Rule = game.RowRule{}
}
