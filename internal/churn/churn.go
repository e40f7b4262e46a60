// Package churn drives node join/leave dynamics for an overlay network,
// following the paper's simulation setup: node joins form a Poisson
// process, session times are Pareto-distributed with a 60-minute median
// (matching the measurements of Saroiu et al. that the paper cites), and
// off-times between sessions are exponential. Each node lives for a
// geometrically distributed number of sessions before departing for good,
// which yields the "lifetime vs session time" availability structure of
// §2.1.
package churn

import (
	"fmt"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/sim"
)

// Config parameterises a churn process.
type Config struct {
	// N is the target population size: the driver seeds N initial nodes
	// and keeps Poisson arrivals replacing departures. The paper uses 40.
	N int

	// MaliciousFraction f of nodes are adversary-controlled.
	MaliciousFraction float64

	// ArrivalRate is the Poisson rate (nodes/second) of new-node joins
	// after the initial seeding. Zero disables late arrivals.
	ArrivalRate float64

	// Session is the session-time distribution. The paper's median is 60
	// minutes.
	Session dist.Pareto

	// MeanOffTime is the mean of the exponential off-time between two
	// sessions of the same node, in seconds.
	MeanOffTime float64

	// DepartProb is the probability that a session ending is the node's
	// final departure (geometric number of sessions, mean 1/DepartProb).
	// Zero means nodes never depart permanently.
	DepartProb float64

	// Static disables all leave events: nodes join once and stay online.
	// Used for no-churn baselines and unit tests.
	Static bool
}

// DefaultConfig returns the paper's simulation parameters: N=40 nodes,
// Pareto sessions with a 60-minute median (shape 1.5), 10-minute mean
// off-times, and a 10% chance that any session end is final.
func DefaultConfig() Config {
	return Config{
		N:           40,
		Session:     dist.ParetoFromMedian(sim.Minutes(60).Seconds(), 1.5),
		MeanOffTime: sim.Minutes(10).Seconds(),
		DepartProb:  0.1,
		ArrivalRate: 1.0 / sim.Minutes(30).Seconds(),
	}
}

// Driver attaches a churn process to an overlay network on a simulation
// engine.
type Driver struct {
	cfg Config
	net *overlay.Network
	rng *dist.Source
}

// NewDriver creates a churn driver. It panics on invalid configuration.
func NewDriver(cfg Config, net *overlay.Network, rng *dist.Source) *Driver {
	if cfg.N < 1 {
		panic(fmt.Sprintf("churn: N=%d", cfg.N))
	}
	if cfg.MaliciousFraction < 0 || cfg.MaliciousFraction > 1 {
		panic(fmt.Sprintf("churn: malicious fraction %g", cfg.MaliciousFraction))
	}
	if !cfg.Static && cfg.Session.Xm <= 0 {
		panic("churn: session distribution unset")
	}
	if rng == nil {
		panic("churn: nil rng")
	}
	return &Driver{cfg: cfg, net: net, rng: rng}
}

// Start seeds the initial population at the engine's current time,
// schedules all future churn, and then tops up every node's neighbour
// set: a node that joined early found only the few nodes before it, so
// without the top-up every edge would point to an earlier joiner. Exactly
// ⌈f·N⌉ of the initial nodes are malicious, matching the paper's "a
// certain fraction f of nodes are selected as adversaries".
func (d *Driver) Start(e *sim.Engine) {
	malicious := int(d.cfg.MaliciousFraction*float64(d.cfg.N) + 0.5)
	flags := make([]bool, d.cfg.N)
	for i := 0; i < malicious; i++ {
		flags[i] = true
	}
	dist.Shuffle(d.rng, flags)
	for i := 0; i < d.cfg.N; i++ {
		d.spawn(e, flags[i])
	}
	if !d.cfg.Static && d.cfg.ArrivalRate > 0 {
		d.scheduleArrival(e)
	}
	for _, id := range d.net.AllIDs() {
		d.net.RefreshNeighbors(id)
	}
}

// spawn joins a brand-new node and schedules the end of its first session.
func (d *Driver) spawn(e *sim.Engine, malicious bool) {
	node := d.net.Join(e.Now(), malicious)
	if !d.cfg.Static {
		d.scheduleSessionEnd(e, node.ID)
	}
}

// scheduleArrival schedules the next Poisson arrival.
func (d *Driver) scheduleArrival(e *sim.Engine) {
	gap := d.rng.Exponential(d.cfg.ArrivalRate)
	e.AfterFunc(sim.Time(gap), func(e *sim.Engine) {
		// New arrivals are malicious with the configured probability so
		// the adversary fraction stays roughly constant under churn.
		d.spawn(e, d.rng.Bernoulli(d.cfg.MaliciousFraction))
		d.scheduleArrival(e)
	})
}

// scheduleSessionEnd draws a session duration and schedules the leave.
func (d *Driver) scheduleSessionEnd(e *sim.Engine, id overlay.NodeID) {
	dur := d.cfg.Session.Sample(d.rng)
	e.AfterFunc(sim.Time(dur), func(e *sim.Engine) {
		// The node may already have been forced offline by other logic in
		// exotic setups; only act if it is still online.
		if !d.net.Online(id) {
			return
		}
		final := d.rng.Bernoulli(d.cfg.DepartProb)
		d.net.Leave(e.Now(), id, final)
		if final {
			return
		}
		off := d.cfg.MeanOffTime
		if off <= 0 {
			off = 1
		}
		gap := d.rng.Exponential(1 / off)
		e.AfterFunc(sim.Time(gap), func(e *sim.Engine) {
			if d.net.Node(id).State != overlay.Offline {
				return
			}
			d.net.Rejoin(e.Now(), id)
			d.scheduleSessionEnd(e, id)
		})
	})
}
