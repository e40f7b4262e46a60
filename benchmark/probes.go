package main

import (
	"sort"
	"time"

	"p2panon/internal/game"
	"p2panon/internal/netwire"
	"p2panon/internal/overlay"
	"p2panon/internal/payment"
	"p2panon/internal/quality"
)

// Stand-alone probes: one layer's primitive called in isolation on the
// workload's own world, in the traced run only and after the window's
// numbers have been read. They name the primitive an optimisation of that
// layer would change, where the spans can only time the harness's call
// into the layer as a whole.

const probeCalls = 51 // median of an odd count is a measured value

// medianOf times fn probeCalls times and returns the median duration.
func medianOf(fn func()) time.Duration {
	ds := make([]time.Duration, probeCalls)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[probeCalls/2]
}

func (w *liveWorld) probeLayers(m map[string]float64) {
	if w.shape.um2 {
		m["game.dense_solve_us"] = float64(medianOf(w.denseSolve())) / 1e3
	}
	if w.shape.blind {
		w.probeTokens(m)
	}
	if w.cluster != nil {
		w.probeWire(m)
	}
}

// denseSolve returns one cold solve of the stage game the UM-II router
// builds per connection: dense EdgeQuality over the topology snapshot,
// availability-only qualities (a batch's first connection has no history).
func (w *liveWorld) denseSolve() func() {
	weights := quality.DefaultWeights()
	responder := w.shape.nodes - 1
	adjacent := make([][]bool, w.shape.nodes)
	for u, nbs := range w.topo {
		adjacent[u] = make([]bool, w.shape.nodes)
		for _, v := range nbs {
			adjacent[u][v] = true
		}
	}
	g := &game.PathGame{
		Nodes:     w.shape.nodes,
		Responder: responder,
		EdgeQuality: func(i, j int) float64 {
			switch {
			case i == j || i == responder:
				return -1
			case j == responder:
				return 1
			case !adjacent[i][j]:
				return -1
			}
			return weights.Edge(0, w.avail[overlay.NodeID(j)])
		},
		Pf: contractPf, Pr: contractPr,
		MaxHops: w.shape.budget,
	}
	return func() { g.Solve() }
}

// probeTokens times one blind-token withdrawal and one batched deposit
// per token, on the workload's bank (2048-bit fixture key).
func (w *liveWorld) probeTokens(m map[string]float64) {
	const amount = 255 // eight power-of-two tokens
	var reqs []payment.DepositRequest
	withdraw := medianOf(func() {
		tokens, err := w.bank.WithdrawAmount(0, amount, nil)
		if err != nil {
			panic(err) // account 0 holds 2^40 credits
		}
		for _, tk := range tokens {
			reqs = append(reqs, payment.DepositRequest{Account: 1, Token: tk})
		}
	})
	per := len(reqs) / probeCalls
	deposit := medianOf(func() {
		w.bank.DepositBatch(reqs[:per])
		reqs = reqs[per:]
	})
	m["payment.withdraw_us_per_token"] = float64(withdraw) / 1e3 / float64(per)
	m["payment.deposit_us_per_token"] = float64(deposit) / 1e3 / float64(per)
}

// probeWire times the frame codec on a three-hop forward frame and the
// probe round trip between two nodes whose link the run has warmed.
func (w *liveWorld) probeWire(m map[string]float64) {
	const reps = 1000
	f := &netwire.Frame{
		Kind: netwire.KindForward, Batch: 1, Conn: 1, Attempt: 1,
		From: 3, Initiator: 0, Responder: 9, Remaining: 2, Hop: 3,
		Path: []overlay.NodeID{0, 1, 2, 3}, DeadlineMicros: 1_000_000,
	}
	wire, err := f.Encode()
	if err != nil {
		panic(err) // a literal frame of a known kind
	}
	m["netwire.frame_encode_ns"] = float64(medianOf(func() {
		for i := 0; i < reps; i++ {
			f.Encode()
		}
	})) / reps
	m["netwire.frame_decode_ns"] = float64(medianOf(func() {
		for i := 0; i < reps; i++ {
			netwire.DecodeFrame(wire)
		}
	})) / reps

	from := overlay.NodeID(0)
	to := w.topo[from][0]
	w.cluster.Probe(from, to, time.Second) // dial if the window never used this link
	m["netwire.link_rtt_us"] = float64(medianOf(func() { w.cluster.Probe(from, to, time.Second) })) / 1e3
}

func (w *simWorld) probeLayers(m map[string]float64) {
	m["game.sparse_solve_us"] = float64(medianOf(w.sparseSolve())) / 1e3
}

// sparseSolve returns one cold solve of the stage game core.Batch builds:
// CSR candidate rows over the 2000-node overlay in ascending order, the
// delivery edge to R at quality 1, solved to the configured MaxHops into
// a reused table.
func (w *simWorld) sparseSolve() func() {
	weights := w.sys.Config().Weights
	responder := overlay.NodeID(simNodes - 1)
	row := make([]int32, simNodes+1)
	var succ []int32
	var qual []float64
	for i := 0; i < simNodes; i++ {
		row[i] = int32(len(succ))
		id := overlay.NodeID(i)
		if id == responder || !w.net.Online(id) {
			continue
		}
		cands := append(w.net.NeighborsOf(id), responder)
		sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
		est := w.probes.For(id)
		for k, v := range cands {
			if v == id || !w.net.Online(v) || (k > 0 && cands[k-1] == v) {
				continue
			}
			succ = append(succ, int32(v))
			if v == responder {
				qual = append(qual, 1)
			} else {
				qual = append(qual, weights.Edge(0, est.Availability(v)))
			}
		}
	}
	row[simNodes] = int32(len(succ))
	cfg := w.sys.Config()
	g := &game.PathGame{
		Nodes:     simNodes,
		Responder: int(responder),
		Adjacency: func(i int) ([]int32, []float64) {
			return succ[row[i]:row[i+1]], qual[row[i]:row[i+1]]
		},
		Pf: contractPf, Pr: contractPr,
		Cost:    cfg.Cost,
		MaxHops: cfg.MaxHops,
	}
	var table [][]game.Decision
	return func() { table = g.SolveInto(table) }
}
