package transport

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/game"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
	"p2panon/internal/sim"
)

// oracleWorld is the static world of the differential routing oracle: no
// churn, zero latency, zero costs, every node accepting, a fixed hop
// budget, no jitter, position-free scores. Both sides read the same
// availability: the overlay is circulant — node s's neighbours are s+o mod
// n for d offsets o of distinct residues mod d, with d dividing n — and
// node u was offline for the first c(u mod d) of the probing rounds before
// the batches, so every observer holds the same session times over one
// permutation of the same residues and α_s(u) is a function of u alone,
// bit for bit. The live routers get that one score per target.
type oracleWorld struct {
	net    *overlay.Network
	probes *probe.Set
	avail  map[overlay.NodeID]float64
	rng    *dist.Source
	budget int
}

func newOracleWorld(t *testing.T, seed uint64) *oracleWorld {
	t.Helper()
	rng := dist.NewSource(seed)
	d := 3 + rng.Intn(3)
	n := d * (4 + rng.Intn(5))
	net := overlay.NewNetwork(d, rng.Split())
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	offsets := make([]int, d)
	for r := range offsets {
		// An offset of residue r mod d in [1, n−1].
		offsets[r] = r + d*rng.Intn(n/d)
		if offsets[r] == 0 {
			offsets[r] = d
		}
	}
	for i := range offsets {
		j := i + rng.Intn(d-i)
		offsets[i], offsets[j] = offsets[j], offsets[i]
	}
	for s := 0; s < n; s++ {
		nbs := make([]overlay.NodeID, d)
		for a, o := range offsets {
			nbs[a] = overlay.NodeID((s + o) % n)
		}
		net.Node(overlay.NodeID(s)).Neighbors = nbs
	}
	net.Touch()

	const rounds = 4
	offline := make([]int, d)
	for r := range offline {
		offline[r] = rng.Intn(rounds)
	}
	probes := probe.NewSet(net, rng.Split(), probe.DefaultPeriod)
	for _, id := range net.AllIDs() {
		probes.For(id)
	}
	for round := 0; round < rounds; round++ {
		for _, id := range net.AllIDs() {
			switch up := round >= offline[int(id)%d]; {
			case up && !net.Online(id):
				net.Rejoin(sim.Time(round), id)
			case !up && net.Online(id):
				net.Leave(sim.Time(round), id, false)
			}
		}
		for _, id := range net.AllIDs() {
			probes.For(id).Tick()
		}
	}
	for _, id := range net.AllIDs() {
		if !net.Online(id) {
			net.Rejoin(rounds, id)
		}
	}

	avail := make(map[overlay.NodeID]float64, n)
	for _, s := range net.AllIDs() {
		for _, u := range net.Node(s).Neighbors {
			a := probes.For(s).Availability(u)
			if prev, seen := avail[u]; seen && math.Float64bits(prev) != math.Float64bits(a) {
				t.Fatalf("seed %d: α(%d) is %v at one observer and %v at another", seed, u, prev, a)
			}
			avail[u] = a
		}
	}
	return &oracleWorld{net: net, probes: probes, avail: avail, rng: rng, budget: 2 + rng.Intn(4)}
}

// routed is one side's record of a batch: per connection its path and the
// quality each edge was chosen at, and per forwarder its payoff.
type routed struct {
	paths   [][]overlay.NodeID
	quals   [][]float64
	payoffs map[overlay.NodeID]float64
}

// oracleBatch is one (I, R) batch both sides run.
type oracleBatch struct {
	initiator, responder overlay.NodeID
	k                    int
	contract             core.Contract
}

func (w *oracleWorld) batches() []oracleBatch {
	n := w.net.Len()
	out := make([]oracleBatch, 3)
	for i := range out {
		b := &out[i]
		b.initiator = overlay.NodeID(w.rng.Intn(n))
		b.responder = overlay.NodeID(w.rng.Intn(n - 1))
		if b.responder >= b.initiator {
			b.responder++
		}
		b.k = 6 + w.rng.Intn(5)
		b.contract = core.ContractWithTau(float64(50+w.rng.Intn(51)), []float64{0.5, 1, 2, 4}[w.rng.Intn(4)])
	}
	return out
}

// runSim plays the batches through core.Batch.RunConnection.
func (w *oracleWorld) runSim(t *testing.T, strat core.Strategy, bs []oracleBatch) []routed {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Cost = game.CostModel{}
	cfg.MinHops, cfg.MaxHops = w.budget, w.budget
	sys, err := core.NewSystem(cfg, w.net, w.probes, dist.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]routed, len(bs))
	for i, ob := range bs {
		b, err := sys.NewBatch(ob.initiator, ob.responder, ob.contract, strat)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < ob.k; c++ {
			res := b.RunConnection()
			out[i].paths = append(out[i].paths, res.Nodes)
			out[i].quals = append(out[i].quals, res.EdgeQualities)
		}
		out[i].payoffs = make(map[overlay.NodeID]float64)
		for _, p := range b.Settle() {
			if math.Float64bits(p.Net) != math.Float64bits(p.Income) {
				t.Fatalf("zero-cost settle charged %v to %d", p.Cost, p.Node)
			}
			out[i].payoffs[p.Node] = p.Income
		}
		b.Close()
	}
	return out
}

// qualityTap is a Router that records, per (batch, conn), the quality
// each hop was chosen at.
type qualityTap struct {
	choose func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, float64, bool)
	mu     sync.Mutex
	quals  map[[2]int][]float64
}

func (t *qualityTap) NextHop(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, bool) {
	next, q, deliver := t.choose(self, pred, initiator, responder, batch, conn, remaining)
	t.mu.Lock()
	t.quals[[2]int{batch, conn}] = append(t.quals[[2]int{batch, conn}], q)
	t.mu.Unlock()
	return next, deliver
}

// liveChooser returns the live router of strat over the world's snapshot
// as a hop chooser that reports the quality of its choice.
func (w *oracleWorld) liveChooser(strat core.Strategy, c core.Contract) func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, float64, bool) {
	topo := SnapshotTopology(w.net)
	weights := core.DefaultConfig().Weights
	if strat == core.UtilityII {
		return NewUtilityIIRouter(topo, weights, c, w.avail).nextHop
	}
	r := NewUtilityRouter(topo, weights, c, w.avail)
	return func(self, pred, initiator, responder overlay.NodeID, batch, conn, remaining int) (overlay.NodeID, float64, bool) {
		return r.route(core.Hop{Cur: self, Pred: pred, Initiator: initiator, Responder: responder, Prescribed: overlay.None}, batch, conn)
	}
}

// runLive plays the batches through transport.Driver over the in-process
// backend, one router per batch (a router holds one contract).
func (w *oracleWorld) runLive(t *testing.T, strat core.Strategy, bs []oracleBatch) []routed {
	t.Helper()
	out := make([]routed, len(bs))
	for i, ob := range bs {
		tap := &qualityTap{choose: w.liveChooser(strat, ob.contract), quals: make(map[[2]int][]float64)}
		live := NewNetwork(0)
		for _, id := range w.net.AllIDs() {
			if err := live.Join(id, tap); err != nil {
				t.Fatal(err)
			}
		}
		batch := i + 1
		bo, err := live.RunBatch(ob.initiator, ob.responder, batch, ob.k, w.budget, 10*time.Second)
		live.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bo.Reformations != 0 {
			t.Fatalf("static world reformed %d times", bo.Reformations)
		}
		for c, path := range bo.Paths {
			qs := tap.quals[[2]int{batch, c + 1}]
			if len(qs) < len(path)-1 {
				qs = append(qs, 1) // the budget ran out: delivery without a choice
			}
			out[i].paths = append(out[i].paths, path)
			out[i].quals = append(out[i].quals, qs)
		}
		out[i].payoffs = make(map[overlay.NodeID]float64)
		for id := range bo.Set {
			out[i].payoffs[id] = bo.Payoff(id, ob.contract)
		}
	}
	return out
}

// divergences lists, per batch, the first connection where the two sides
// part — path, then edge qualities — and any payoff that differs, each
// tagged with its class.
func divergences(bs []oracleBatch, simSide, liveSide []routed) []string {
	var out []string
	for i := range bs {
		s, l := simSide[i], liveSide[i]
		for c := range s.paths {
			if c >= len(l.paths) {
				out = append(out, fmt.Sprintf("[conns] batch %d: live ran %d connections, sim %d", i+1, len(l.paths), len(s.paths)))
				break
			}
			if fmt.Sprint(s.paths[c]) != fmt.Sprint(l.paths[c]) {
				out = append(out, fmt.Sprintf("[path] batch %d conn %d: sim %v, live %v", i+1, c+1, s.paths[c], l.paths[c]))
				break
			}
			if !sameFloatBits(s.quals[c], l.quals[c]) {
				out = append(out, fmt.Sprintf("[quality] batch %d conn %d path %v: sim %v, live %v", i+1, c+1, s.paths[c], s.quals[c], l.quals[c]))
				break
			}
		}
		ids := make([]overlay.NodeID, 0, len(s.payoffs)+len(l.payoffs))
		for id := range s.payoffs {
			ids = append(ids, id)
		}
		for id := range l.payoffs {
			if _, both := s.payoffs[id]; !both {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			sp, sok := s.payoffs[id]
			lp, lok := l.payoffs[id]
			if sok != lok || math.Float64bits(sp) != math.Float64bits(lp) {
				out = append(out, fmt.Sprintf("[payoff] batch %d node %d: sim %v (member %v), live %v (member %v)", i+1, id, sp, sok, lp, lok))
			}
		}
	}
	return out
}

// historyScored counts the batch's hops whose quality is not what an edge
// no history names scores: the hops σ > 0 decided.
func (w *oracleWorld) historyScored(b oracleBatch, r routed) (n int) {
	weights := core.DefaultConfig().Weights
	for c, path := range r.paths {
		for e, next := range path[1:] {
			if next != b.responder && r.quals[c][e] != weights.Edge(0, w.avail[next]) {
				n++
			}
		}
	}
	return n
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// oracleSeeds is how many static worlds each model runs.
const oracleSeeds = 24

// TestDifferentialRoutingOracle runs the same batches — (I, R) pairs, k,
// contracts, budget — through the simulator (core.Batch.RunConnection)
// and the live stack (transport.Driver over the in-process backend with
// the live routers) in a static world, and requires every connection's
// path, the quality each edge was chosen at and every forwarder's payoff
// to be equal bit for bit, for Models I and II.
func TestDifferentialRoutingOracle(t *testing.T) {
	for _, strat := range []core.Strategy{core.UtilityI, core.UtilityII} {
		t.Run(strat.String(), func(t *testing.T) {
			classes := map[string]int{}
			var conns, scored int
			for seed := 1; seed <= oracleSeeds; seed++ {
				w := newOracleWorld(t, uint64(seed))
				bs := w.batches()
				simSide := w.runSim(t, strat, bs)
				liveSide := w.runLive(t, strat, bs)
				for i, b := range bs {
					conns += b.k
					scored += w.historyScored(b, simSide[i])
				}
				for _, d := range divergences(bs, simSide, liveSide) {
					classes[d[1:strings.IndexByte(d, ']')]]++
					t.Errorf("seed %d: %s", seed, d)
				}
			}
			if len(classes) > 0 {
				t.Errorf("%d connections compared; divergences by class: %v", conns, classes)
			}
			if scored == 0 {
				t.Errorf("no hop of %d connections was scored with σ > 0", conns)
			}
		})
	}
}
