package game_test

import (
	"fmt"

	"p2panon/internal/game"
)

// The participation condition of Proposition 2: with participation cost 5,
// transmission cost 2, N = 40 peers, average path length 4 and k = 20
// recurring connections, a forwarding benefit above 4.5 induces peers to
// participate: 50 does, 4.5 itself does not (the inequality is strict).
func ExampleParticipationThreshold() {
	th := game.ParticipationThreshold(5, 2, 40, 4, 20)
	fmt.Printf("threshold: %.2f\n", th)
	fmt.Println(50 > th, 4.5 > th)
	// Output:
	// threshold: 4.50
	// true false
}

// Proposition 3's dominance condition: forwarding dominates when the
// per-instance benefit exceeds the per-instance cost.
func ExampleForwardingDominant() {
	fmt.Println(game.ForwardingDominant(75, 5, 2))
	fmt.Println(game.ForwardingDominant(6, 5, 2))
	// Output:
	// true
	// false
}

// Solving the L-stage path game on a 4-node chain: backward induction
// yields the subgame-perfect route 0 → 1 → 2 → 3.
func ExamplePathGame_BestPath() {
	g := &game.PathGame{
		Nodes:     4,
		Responder: 3,
		EdgeQuality: func(i, j int) float64 {
			if j == i+1 {
				return 0.5
			}
			return -1
		},
		Pf: 10, Pr: 20,
		Cost:    game.UniformCost(1, 1),
		MaxHops: 4,
	}
	fmt.Println(g.BestPath(0))
	// Output: [0 1 2 3]
}

// A solved table always passes the one-shot deviation check — the
// certificate that it is a subgame-perfect Nash equilibrium.
func ExamplePathGame_VerifySubgamePerfect() {
	g := &game.PathGame{
		Nodes:     3,
		Responder: 2,
		EdgeQuality: func(i, j int) float64 {
			if j == i+1 {
				return 0.8
			}
			return -1
		},
		Pf: 5, Pr: 10, MaxHops: 3,
	}
	table := g.Solve()
	fmt.Println(len(g.VerifySubgamePerfect(table)))
	// Output: 0
}
