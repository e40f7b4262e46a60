// Intersection demonstrates the §2.1 intersection attack and how the
// incentive mechanism changes the attacker's position. An observer
// correlates the set of online nodes across the recurring connections of
// one (I, R) pair; separately, a coalition of malicious forwarders pools
// its history observations to guess the initiator (the §5 cid-linking
// attack). Both channels are shown for random vs utility routing.
package main

import (
	"fmt"
	"log"

	"p2panon/internal/adversary"
	"p2panon/internal/attack"
	"p2panon/internal/churn"
	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
)

func main() {
	for _, strat := range []core.Strategy{core.Random, core.UtilityI} {
		demo(strat)
		fmt.Println()
	}
}

func demo(strat core.Strategy) {
	rng := dist.NewSource(11)
	net := overlay.NewNetwork(5, rng.Split())
	engine := sim.NewEngine()

	cc := churn.DefaultConfig()
	cc.MaliciousFraction = 0.2
	// Nodes flap between online and offline but do not depart for good:
	// the classic intersection-attack setting (a stable population whose
	// members are intermittently online).
	cc.DepartProb = 0
	cc.ArrivalRate = 0
	drv := churn.NewDriver(cc, net, rng.Split())
	drv.Start(engine)

	probes := probe.NewSet(net, rng.Split(), probe.DefaultPeriod)
	for i := 0; i < 5; i++ {
		probes.TickAll()
	}
	probes.Attach(engine)

	sys, err := core.NewSystem(core.DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		log.Fatal(err)
	}

	// One recurring pair: pick good endpoints.
	good := net.GoodOnline()
	initiator, responder := good[0], good[len(good)-1]
	batch, err := sys.NewBatch(initiator, responder, core.ContractWithTau(75, 2), strat)
	if err != nil {
		log.Fatal(err)
	}

	// The attacker intersects active sets; the coalition watches from
	// inside the paths.
	intersector := attack.NewIntersector()
	var members []overlay.NodeID
	for _, id := range net.AllIDs() {
		if net.Node(id).Malicious {
			members = append(members, id)
		}
	}
	coalition := adversary.NewCoalition(members)

	fmt.Printf("strategy %s: I=%d R=%d, coalition of %d malicious nodes\n",
		strat, initiator, responder, coalition.Members())

	// Run until k connections actually happen: a recurring client retries
	// when it (or the responder) is offline, and the attacker only
	// observes rounds where traffic flows.
	const k = 20
	ran := 0
	for attempts := 0; ran < k && attempts < 400; attempts++ {
		engine.RunUntil(engine.Now() + sim.Minutes(10))
		// The endpoints are client machines with a user behind them: when
		// the user wants the next transaction, the client comes back
		// online (this is what makes intersection attacks work — I is
		// online whenever traffic flows).
		for _, ep := range []overlay.NodeID{initiator, responder} {
			if net.Node(ep).State == overlay.Offline {
				net.Rejoin(engine.Now(), ep)
			}
		}
		if !net.Online(initiator) || !net.Online(responder) {
			continue // departed for good: the demo ends early
		}
		net.RefreshNeighbors(initiator)
		intersector.Observe(net.OnlineIDs())
		res := batch.RunConnection()
		coalition.ObservePath(res)
		ran++
		if ran%5 == 1 {
			fmt.Printf("  round %2d: anonymity set %2d, degree %.3f, ‖π‖ so far %d\n",
				ran, intersector.AnonymitySetSize(),
				intersector.DegreeOfAnonymity(net.Len()), batch.ForwarderSet().Size())
		}
	}

	exposed, observed := coalition.FirstHopExposures(initiator)
	fmt.Printf("  after %d connections: anonymity set %d (of %d nodes), identified: %v\n",
		ran, intersector.AnonymitySetSize(), net.Len(), intersector.Identified(initiator))
	fmt.Printf("  coalition saw %d/%d connections with I as direct predecessor; guess accuracy %.2f\n",
		exposed, observed, coalition.GuessAccuracy(initiator))
	fmt.Printf("  forwarder set ‖π‖ = %d (smaller = fewer distinct nodes for the attacker to own)\n",
		batch.ForwarderSet().Size())
}
