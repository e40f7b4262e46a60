// Package probe implements the paper's active-probing availability
// estimator (§2.3, following Bustamante & Qiao). Each peer periodically
// checks the liveness of its neighbors:
//
//   - when a peer first joins, it initialises the observed session time of
//     every neighbor to 0;
//   - at the start of each probing period of length T, a live neighbor's
//     session time is advanced, t_new = t_old + T;
//   - a newly discovered neighbor's session time is initialised to a
//     uniform random value in (0, T);
//   - the availability of neighbor u as seen by s is the normalised share
//     α_s(u) = t_s(u) / Σ_{v∈D(s)} t_s(v).
//
// A dead (offline) neighbor's estimate decays rather than resetting to
// zero, so a flapping node keeps a credible — but reduced — score; the
// relative ordering the routing layer needs ("higher observed session time
// ⇒ higher availability") is preserved.
package probe

import (
	"fmt"
	"slices"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
	"p2panon/internal/telemetry"
)

// Probe metric names (see Set.Instrument / Estimator.Instrument).
const (
	metricTicksTotal   = "probe_ticks_total"   // probing rounds run
	metricUpdatesTotal = "probe_updates_total" // label result: credit|decay|init
)

// DefaultPeriod is the default probing period T (60 simulated seconds).
const DefaultPeriod = sim.Time(60)

// DecayOnMiss is the multiplicative decay applied to the observed session
// time of a neighbor that fails a probe. 1.0 would keep stale estimates
// forever; 0 would forget instantly. 0.5 halves the score per missed probe.
const DecayOnMiss = 0.5

// Estimator tracks one observer's availability estimates for its neighbor
// set. Create one per node with NewEstimator and call Tick once per probing
// period (a Set's Attach schedules every node's on a sim engine).
type Estimator struct {
	owner  overlay.NodeID
	net    *overlay.Network
	rng    *dist.Source
	period sim.Time

	// nbr and session are the tracked neighbors, in the order of the
	// neighbor list the last Tick saw (the overlay keeps it duplicate
	// free), and their observed session times t_s(u), index-aligned. A
	// Tick whose list changed rebuilds them into spareNbr/spareSession and
	// swaps the pairs, so no round allocates once both have grown to d.
	nbr          []overlay.NodeID
	session      []float64
	spareNbr     []overlay.NodeID
	spareSession []float64
	probes       int
	// lists counts the rounds that changed the tracked list, so an index
	// into it (Index) can be kept until the next one.
	lists uint64

	// total caches Σ_v t_s(v), summed in nbr order, so Availability scans
	// only for the neighbor it is asked about (the routing layer queries
	// it once per candidate per hop). Invalidated by every Tick.
	total      float64
	totalValid bool

	// setVersion, when non-nil, is the owning Set's change counter; Tick
	// bumps it so availability-keyed caches (e.g. solved SPNE tables) can
	// invalidate.
	setVersion *uint64

	// nil (no-op) until Instrument binds them.
	ticks, credits, decays, inits *telemetry.Counter
}

// NewEstimator creates an estimator for owner's neighbor set. Session times
// start at zero, as the paper specifies for a freshly joined peer.
func NewEstimator(owner overlay.NodeID, net *overlay.Network, rng *dist.Source, period sim.Time) *Estimator {
	if period <= 0 {
		panic(fmt.Sprintf("probe: period %v", period))
	}
	if rng == nil {
		panic("probe: nil rng")
	}
	nbr := slices.Clone(net.Node(owner).Neighbors)
	return &Estimator{
		owner:   owner,
		net:     net,
		rng:     rng,
		period:  period,
		nbr:     nbr,
		session: make([]float64, len(nbr)),
	}
}

// Instrument binds the estimator's update counters into reg:
// probe_ticks_total and probe_updates_total{result=credit|decay|init}.
// Estimators sharing a registry share the series (their counts sum).
func (est *Estimator) Instrument(reg *telemetry.Registry) {
	reg.Help(metricTicksTotal, "probing rounds run across all estimators")
	reg.Help(metricUpdatesTotal, "per-neighbor estimate updates: T credited, decayed on miss, or rand(0,T) initialised")
	est.ticks = reg.Counter(metricTicksTotal, nil)
	est.credits = reg.Counter(metricUpdatesTotal, telemetry.Labels{"result": "credit"})
	est.decays = reg.Counter(metricUpdatesTotal, telemetry.Labels{"result": "decay"})
	est.inits = reg.Counter(metricUpdatesTotal, telemetry.Labels{"result": "init"})
}

// Probes returns how many probing rounds have run.
func (est *Estimator) Probes() int { return est.probes }

// Lists returns how many probing rounds changed the tracked neighbor list.
// A position Index returned stays valid while it is unchanged.
func (est *Estimator) Lists() uint64 { return est.lists }

// Tick runs one probing period in one pass over the neighbor list: a new
// neighbor gets a rand(0,T) initial session time, a known one is credited
// T when live and decayed when dead; neighbors that vanished from the list
// are then forgotten. A neighbor first seen this tick keeps its rand(0,T)
// initialisation and is not also credited T — crediting both would let a
// fresh neighbor outrank a node with one full observed period, inverting
// the paper's "higher observed session time ⇒ higher availability"
// ordering. A steady round never allocates, nor does one after a
// neighbor replacement once both session buffers have grown.
func (est *Estimator) Tick() {
	est.probes++
	est.totalValid = false
	if est.setVersion != nil {
		*est.setVersion++
	}
	// The owner's own list, not a copy: Tick only reads the overlay.
	current := est.net.Node(est.owner).Neighbors
	var credits, decays, inits int64
	if slices.Equal(current, est.nbr) {
		// The common round: same neighbors in the same order, updated in
		// place.
		for k, v := range current {
			if est.net.Online(v) {
				est.session[k] += est.period.Seconds()
				credits++
			} else {
				est.session[k] *= DecayOnMiss
				decays++
			}
		}
	} else {
		// The list changed: rebuild the session times in its order, drawing
		// rand(0,T) for each new neighbor in that order.
		session := est.spareSession[:0]
		for _, v := range current {
			switch k := slices.Index(est.nbr, v); {
			case k < 0:
				// New neighbor: initialise to rand(0, T) per the paper; the
				// init stands in for the unobserved partial period.
				session = append(session, est.rng.Uniform(0, est.period.Seconds()))
				inits++
			case est.net.Online(v):
				session = append(session, est.session[k]+est.period.Seconds())
				credits++
			default:
				session = append(session, est.session[k]*DecayOnMiss)
				decays++
			}
		}
		nbr := append(est.spareNbr[:0], current...)
		est.spareNbr, est.spareSession = est.nbr, est.session
		est.nbr, est.session = nbr, session
		est.lists++
	}
	est.ticks.Inc()
	est.credits.Add(credits)
	est.decays.Add(decays)
	est.inits.Add(inits)
}

// Availability returns α_s(u) = t_s(u) / Σ_v t_s(v), the paper's
// normalised availability estimate, in [0, 1]. Before any session time has
// accumulated it returns an uninformative uniform 1/|D(s)| so that routing
// has a well-defined score from the first connection. The sum runs in
// neighbor-list order, so equal estimators give bit-equal shares.
func (est *Estimator) Availability(u overlay.NodeID) float64 {
	return est.AvailabilityAt(est.Index(u))
}

// Index returns u's position in the tracked neighbor list, or −1 when u
// is not tracked: the argument AvailabilityAt takes, valid while Lists is
// unchanged.
func (est *Estimator) Index(u overlay.NodeID) int { return slices.Index(est.nbr, u) }

// AvailabilityAt is Availability of the neighbor at position k of the
// tracked list (Index), 0 for k < 0, in O(1): a caller that keeps the
// positions of a fixed set of neighbors rescores them without a scan.
func (est *Estimator) AvailabilityAt(k int) float64 {
	if k < 0 {
		return 0
	}
	if !est.totalValid {
		est.sum()
	}
	if est.total <= 0 {
		return 1 / float64(len(est.nbr))
	}
	return est.session[k] / est.total
}

// sum caches Σ_v t_s(v), summed in list order.
func (est *Estimator) sum() {
	total := 0.0
	for _, t := range est.session {
		total += t
	}
	est.total = total
	est.totalValid = true
}

// Snapshot returns the availability of every tracked neighbor. The shares
// sum to 1 whenever any session time has accumulated.
func (est *Estimator) Snapshot() map[overlay.NodeID]float64 {
	out := make(map[overlay.NodeID]float64, len(est.nbr))
	for _, v := range est.nbr {
		out[v] = est.Availability(v)
	}
	return out
}

// Set is a convenience bundle of one estimator per node, used by the
// simulator to give every peer its own observation stream.
type Set struct {
	net    *overlay.Network
	rng    *dist.Source
	period sim.Time
	reg    *telemetry.Registry

	// byNode[id] is id's estimator, nil until For first asks; n counts the
	// non-nil entries.
	byNode []*Estimator
	n      int

	// Prof, when non-nil, brackets every TickAll round under the
	// telemetry probe.tick phase. It observes only wall time and global
	// alloc counters — never the estimators — so transcripts are
	// unchanged.
	Prof *telemetry.PhaseProfiler

	// version counts estimate updates across the whole set: every Tick of
	// a member estimator advances it. Equal versions guarantee unchanged
	// availability scores.
	version uint64
}

// Version returns the set-wide estimate-change counter.
func (s *Set) Version() uint64 { return s.version }

// Len returns how many estimators the set holds; equal to the overlay's
// node count, no node is missing one.
func (s *Set) Len() int { return s.n }

// Instrument binds every current and future estimator in the set into
// reg (they share the probe_* series).
func (s *Set) Instrument(reg *telemetry.Registry) {
	s.reg = reg
	for _, est := range s.byNode {
		if est != nil {
			est.Instrument(reg)
		}
	}
}

// NewSet creates an empty estimator set.
func NewSet(net *overlay.Network, rng *dist.Source, period sim.Time) *Set {
	return &Set{
		net:    net,
		rng:    rng,
		period: period,
	}
}

// For returns (creating on first use) the estimator owned by id.
func (s *Set) For(id overlay.NodeID) *Estimator {
	if id >= 0 && int(id) < len(s.byNode) && s.byNode[id] != nil {
		return s.byNode[id]
	}
	est := NewEstimator(id, s.net, s.rng.Split(), s.period)
	est.setVersion = &s.version
	if s.reg != nil {
		est.Instrument(s.reg)
	}
	if int(id) >= len(s.byNode) {
		s.byNode = append(s.byNode, make([]*Estimator, int(id)+1-len(s.byNode))...)
	}
	s.byNode[id] = est
	s.n++
	return est
}

// TickAll runs one probing period for every online node, creating
// estimators lazily for nodes that appeared since the previous round.
// This is the batch-mode equivalent of attaching every estimator to the
// engine, and is what the discrete-event simulator uses. All estimators
// are created first, in ascending ID order (creation splits the set RNG),
// and then ticked in that order: two passes over the overlay's online
// flags, so a round allocates nothing once every node has its estimator.
func (s *Set) TickAll() {
	ph := s.Prof.Start(telemetry.PhaseProbeTick)
	defer ph.End()
	up := s.net.Up()
	for id, online := range up {
		if online {
			s.For(overlay.NodeID(id))
		}
	}
	for id, online := range up {
		if online {
			s.byNode[id].Tick()
		}
	}
}

// Attach schedules TickAll every probing period. It returns a cancel
// function.
func (s *Set) Attach(e *sim.Engine) (cancel func()) {
	return e.Every(s.period, func(*sim.Engine) bool {
		s.TickAll()
		return true
	})
}
