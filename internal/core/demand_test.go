package core

import (
	"fmt"
	"sort"
	"testing"

	"p2panon/internal/overlay"
)

// runRootedScript runs eight connections on each of six batches, round
// robin, so every solve finds the shared memo in another batch's hands,
// and holds each connection, and each batch's settled payoffs, to the
// dense oracle (equivRun.runConnection). The initiators are malicious
// nodes picked for having the most malicious neighbors: a malicious
// holder routes at random without reading the table, so these connections
// often record two hops — I's and a malicious first relay's — before the
// first prescription is read. It returns how many did.
func runRootedScript(t *testing.T) (lateReads int) {
	t.Helper()
	const n, batches, conns = 80, 6, 8
	sys := equivSystem(t, n, 9)
	bad := func(id overlay.NodeID) bool { return sys.Net.Node(id).Malicious }
	var initiators []overlay.NodeID
	badNeighbors := map[overlay.NodeID]int{}
	for _, id := range sys.Net.AllIDs() {
		if bad(id) {
			initiators = append(initiators, id)
			for _, v := range sys.Net.Node(id).Neighbors {
				if bad(v) {
					badNeighbors[id]++
				}
			}
		}
	}
	sort.SliceStable(initiators, func(a, b int) bool {
		return badNeighbors[initiators[a]] > badNeighbors[initiators[b]]
	})
	live := make([]*Batch, batches)
	runs := make([]*equivRun, batches)
	for k := range live {
		r := overlay.NodeID(n - 1 - 7*k) // 79, 72, …: none is ≡ 3 (mod 7)
		b, err := sys.NewBatch(initiators[k], r, Contract{Pf: 75, Pr: 150}, UtilityII)
		if err != nil {
			t.Fatal(err)
		}
		live[k], runs[k] = b, &equivRun{}
	}
	for c := 0; c < conns; c++ {
		for k, b := range live {
			label := fmt.Sprintf("batch %d", k)
			res, known := runs[k].runConnection(t, label, b)
			rooted := false
			for h := range known {
				// Stage 1 is read for any node; a solved root is stage ≥ 2.
				rooted = rooted || h >= 2 && known[h][res.Nodes[0]]
			}
			if !rooted {
				t.Fatalf("%s conn %d: no cell of the initiator is solved", label, res.Conn)
			}
			if p := res.Nodes; len(p) > 3 && isMalicious(p[1]) {
				lateReads++
			}
		}
	}
	for k, b := range live {
		requireOraclePayoffs(t, fmt.Sprintf("batch %d", k), b, runs[k])
	}
	return lateReads
}

// TestDemandSolveRootedAtConnectionStart pins the two rules that keep the
// demand-driven solver's transcripts identical to a full solve per
// connection.
//
// Rooted at connection start: rows read history, so the cone must be
// solved before the first hop is recorded. A solver that builds rows
// lazily during the walk scores the rows of holders already passed with
// the walk's own hops in their history, and the cells it then computes
// differ from the oracle's.
//
// Creation precedes every solve: a batch whose memo another batch has
// since taken over solves again from nothing, and its creation pass over
// an unchanged online set creates no estimator.
func TestDemandSolveRootedAtConnectionStart(t *testing.T) {
	t.Run("interleaved malicious initiators", func(t *testing.T) {
		if lateReads := runRootedScript(t); lateReads < 3 {
			t.Fatalf("only %d connections recorded two hops before the first table read; the script no longer exercises the rule", lateReads)
		}
	})

	t.Run("memo changes hands with no input changed", func(t *testing.T) {
		sys := equivSystem(t, 60, 5)
		a, err := sys.NewBatch(0, 59, Contract{Pf: 75, Pr: 150}, UtilityII)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.NewBatch(1, 58, Contract{Pf: 75, Pr: 150}, UtilityII)
		if err != nil {
			t.Fatal(err)
		}
		sys.Net.Join(1, false) // a newcomer: the one node without an estimator
		a.spneTable(a.Initiator, 3)
		created := sys.Probes.Len()
		if created != sys.Net.Len() {
			t.Fatalf("the creation pass left %d of %d nodes with estimators", created, sys.Net.Len())
		}
		b.spneTable(b.Initiator, 3)
		before := sys.SolverStats()

		// Nothing moved, but the memo holds b's game.
		a.spneTable(a.Initiator, 4)
		if st := sys.SolverStats(); st.Solves != before.Solves+1 || st.Fallbacks != before.Fallbacks+1 {
			t.Fatalf("a memo in other hands was not reset: %+v → %+v", before, st)
		}
		if sys.Probes.Len() != created {
			t.Fatalf("estimators went from %d to %d with no input changed", created, sys.Probes.Len())
		}
		requireSameTable(t, "a after b", fullTable(a), solveDense(a).table)
		requireSameTable(t, "b after a", fullTable(b), solveDense(b).table)
	})
}

// isMalicious mirrors equivSystem's marking.
func isMalicious(id overlay.NodeID) bool { return id%7 == 3 }
