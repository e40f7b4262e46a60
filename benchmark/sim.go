package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
	"p2panon/internal/telemetry"
)

const (
	simNodes      = 2000
	simDegree     = 6
	simConcurrent = 16 // UM-II batches in flight, interleaved round-robin
	simChurnSet   = 64 // nodes that take turns leaving and rejoining
	simTickEvery  = 8  // connections per probe round
)

// simBatch is one settled simulator batch, kept for the after-window
// checks. offline[c] is the node that was down while connection c formed
// (overlay.None when the churn set was whole).
type simBatch struct {
	i, r    overlay.NodeID
	paths   [][]overlay.NodeID
	offline []overlay.NodeID
	payoffs []core.NodePayoff
}

// simWorld is the discrete simulator under interleaved batches, churn and
// probing — no transport and no bank.
type simWorld struct {
	tr     *tracer
	net    *overlay.Network
	probes *probe.Set
	sys    *core.System
	prof   *telemetry.PhaseProfiler // attached to sys and probes while a traced step runs

	sched   [][2]overlay.NodeID // (I, R) of every batch this world will run
	started int                 // batches started so far
	churn   []overlay.NodeID
	now     sim.Time
	events  int // churn events so far; one per connection
	batches []simBatch
	s       samples
}

func newSimWorld(p plan) (world, error) {
	rng := dist.NewSource(worldSeed)
	net := overlay.NewNetwork(simDegree, rng.Split())
	net.GrowUniform(0, simNodes)
	probes := probe.NewSet(net, rng.Split(), probe.DefaultPeriod)
	for i := 0; i < 2; i++ {
		probes.TickAll()
	}
	order := dist.NewSource(p.seed)
	sys, err := core.NewSystem(core.DefaultConfig(), net, probes, order.Split())
	if err != nil {
		return nil, err
	}
	w := &simWorld{tr: p.tr, net: net, probes: probes, sys: sys}
	if p.tr != nil {
		w.prof = telemetry.NewPhaseProfiler()
	}
	// The churn set is fixed and its rotation seeded; endpoints come from
	// the other nodes, so a live batch never loses its initiator or
	// responder.
	inChurn := make(map[overlay.NodeID]bool, simChurnSet)
	for _, i := range dist.SampleWithoutReplacement(rng, simNodes, simChurnSet) {
		w.churn = append(w.churn, overlay.NodeID(i))
		inChurn[overlay.NodeID(i)] = true
	}
	dist.Shuffle(order, w.churn)
	var stable []overlay.NodeID
	for i := 0; i < simNodes; i++ {
		if !inChurn[overlay.NodeID(i)] {
			stable = append(stable, overlay.NodeID(i))
		}
	}
	w.sched = schedule(p, stable)
	return w, nil
}

func (w *simWorld) close() {}

func (w *simWorld) samples() *samples { return &w.s }

func (w *simWorld) reset() {
	w.batches = nil
	w.s = samples{}
	w.prof.Reset()
}

// step runs one generation: 16 fresh batches, their 10 connections each
// interleaved round-robin — every connection preceded by one churn event,
// every 8th by a probe round — then each batch settled and closed. All
// 160 connections therefore belong to batches that settled.
func (w *simWorld) step() (batches, conns int, err error) {
	if w.tr.on() {
		w.sys.Prof, w.probes.Prof = w.prof, w.prof
	} else {
		w.sys.Prof, w.probes.Prof = nil, nil
	}
	contract := core.Contract{Pf: contractPf, Pr: contractPr}
	live := make([]*core.Batch, simConcurrent)
	recs := make([]simBatch, simConcurrent)
	if w.started+simConcurrent > len(w.sched) {
		return 0, 0, fmt.Errorf("schedule of %d batches exhausted", len(w.sched))
	}
	for k := range live {
		i, r := w.sched[w.started][0], w.sched[w.started][1]
		w.started++
		sp := w.tr.start(spanNewBatch, 0)
		b, err := w.sys.NewBatch(i, r, contract, core.UtilityII)
		if err != nil {
			return 0, 0, err
		}
		sp.trace = b.ID
		sp.end()
		live[k], recs[k] = b, simBatch{i: i, r: r}
	}
	for c := 0; c < connsPerBatch; c++ {
		for k, b := range live {
			w.now += 60
			id := w.churn[(w.events/2)%len(w.churn)]
			offline := overlay.None
			sp := w.tr.start(spanChurnEvent, b.ID)
			if w.events%2 == 0 {
				w.net.Leave(w.now, id, false)
				offline = id
			} else {
				w.net.Rejoin(w.now, id)
			}
			sp.end()
			if w.events%simTickEvery == 0 {
				sp = w.tr.start(spanTickAll, b.ID)
				w.probes.TickAll()
				sp.end()
			}
			w.events++

			sp = w.tr.start(spanRunConn, b.ID)
			t0 := time.Now()
			res := b.RunConnection()
			w.s.connectMs = append(w.s.connectMs, sinceMs(t0))
			sp.end()
			recs[k].paths = append(recs[k].paths, res.Nodes)
			recs[k].offline = append(recs[k].offline, offline)
		}
	}
	for k, b := range live {
		sp := w.tr.start(spanCoreSettle, b.ID)
		t0 := time.Now()
		recs[k].payoffs = b.Settle()
		b.Close()
		w.s.settleMs = append(w.s.settleMs, sinceMs(t0))
		sp.end()
	}
	w.batches = append(w.batches, recs...)
	return simConcurrent, simConcurrent * connsPerBatch, nil
}

// verify checks every path against the overlay (neighbor sets never
// change: nobody departs for good) and every payoff against the paper's
// rule, and returns the transcript hash.
func (w *simWorld) verify() (string, error) {
	h := sha256.New()
	maxHops := w.sys.Config().MaxHops
	for bi, b := range w.batches {
		fmt.Fprintf(h, "batch %d %d\n", b.i, b.r)
		forwards := make(map[overlay.NodeID]int)
		for c, p := range b.paths {
			if err := checkPath(p, b.i, b.r, maxHops, w.net.IsNeighbor); err != nil {
				return "", fmt.Errorf("batch #%d conn %d: %w", bi, c+1, err)
			}
			for _, f := range p[1 : len(p)-1] {
				if f == b.offline[c] {
					return "", fmt.Errorf("batch #%d conn %d: path %v crosses offline node %d", bi, c+1, p, f)
				}
				forwards[f]++
			}
			fmt.Fprintf(h, "path %v\n", p)
		}
		if len(b.payoffs) != len(forwards) {
			return "", fmt.Errorf("batch #%d: %d payoffs for ‖π‖=%d", bi, len(b.payoffs), len(forwards))
		}
		for _, po := range b.payoffs {
			m := forwards[po.Node]
			want := float64(m)*contractPf + contractPr/float64(len(forwards))
			if m == 0 || po.Forwards != m || po.Income != want {
				return "", fmt.Errorf("batch #%d: node %d income %v for m=%d, want %v for m=%d",
					bi, po.Node, po.Income, po.Forwards, want, m)
			}
			fmt.Fprintf(h, "pay %d %d %016x\n", po.Node, po.Forwards, math.Float64bits(po.Income))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func (w *simWorld) counters() map[string]float64 {
	st := w.sys.SolverStats()
	return map[string]float64{
		"solves":         float64(st.Solves),
		"incremental":    float64(st.Incremental),
		"fallbacks":      float64(st.Fallbacks),
		"frontier_cells": float64(st.FrontierCells),
	}
}

func (w *simWorld) gauges() map[string]float64 {
	g := make(map[string]float64)
	for _, ps := range w.prof.Snapshot() {
		g["phase_ns."+ps.Phase] = float64(ps.NS)
	}
	return g
}
