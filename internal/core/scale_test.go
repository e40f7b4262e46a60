package core

import (
	"runtime"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
)

// scaleSystem builds a static overlay of n nodes (bulk-joined, degree 5)
// with warmed probes and one UM-II batch, the configuration the cold-solve
// allocation pin and the working-memory tests share.
func scaleSystem(tb testing.TB, n int, seed uint64) (*System, *Batch) {
	tb.Helper()
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(5, rng.Split())
	net.GrowUniform(0, n)
	probes := probe.NewSet(net, rng.Split(), 60)
	for i := 0; i < 2; i++ {
		probes.TickAll()
	}
	sys, err := NewSystem(DefaultConfig(), net, probes, rng.Split())
	if err != nil {
		tb.Fatal(err)
	}
	b, err := sys.NewBatch(0, overlay.NodeID(n-1), Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		tb.Fatal(err)
	}
	return sys, b
}

// TestScaleFrontierWorkingMemory is the acceptance alloc test for the
// demand-driven solve: a single UM-II batch at N = 10⁵ must complete with
// O(n·d) working memory. It pins two things: (a) the retained rows are
// linear in n·d — a dense n×n float slab at this size would be 80 GB and
// fail the cap bound by four orders of magnitude; (b) a re-solve after a
// topology invalidation allocates a small constant amount, i.e. nothing
// on the solve path materialises an n×n structure or rebuilds the memo.
func TestScaleFrontierWorkingMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("N=1e5 build in -short mode")
	}
	const n = 100_000
	sys, b := scaleSystem(t, n, 11)
	b.RunConnection() // warm: builds memo, rows, base rows, scorers

	// (a) retained rows are O(n·d): every node has ≤ degree+1 slots.
	maxSlots := n * (sys.Net.Degree() + 1)
	if c := cap(sys.rowSucc); c == 0 || c > maxSlots {
		t.Fatalf("solve rows hold %d candidate slots, O(n·d) bound is %d", c, maxSlots)
	}

	// (b) re-solves stay allocation-light. TotalAlloc is monotonic and
	// unaffected by GC, so the delta is exactly what the re-solve +
	// connection allocated.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		sys.Net.Touch() // force a re-solve of the stage game
		b.RunConnection()
	}
	runtime.ReadMemStats(&after)
	delta := after.TotalAlloc - before.TotalAlloc
	// Three re-solves at n=1e5. The budget (rows of nodes a longer budget
	// reaches for the first time, history rows, path bookkeeping) is well
	// under 8 MB; one n×n float64 slab alone would be 80 GB.
	if limit := uint64(32 << 20); delta > limit {
		t.Fatalf("3 re-solves allocated %d bytes (> %d): solve path is not O(n·d)", delta, limit)
	}
}

// TestSolveScratchReleasedOnClose pins that the system's shared solve
// scratch — memo and rows — outlives a Close while another batch is still
// open (no re-allocation on every Close) and is dropped entirely when the
// last one closes: a finished large run must not pin its working set for
// the process lifetime.
func TestSolveScratchReleasedOnClose(t *testing.T) {
	sys, b := scaleSystem(t, 500, 6)
	other, err := sys.NewBatch(1, 2, Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		t.Fatal(err)
	}
	b.RunConnection()
	held := func() bool {
		return sys.memo.Table() != nil && sys.rowBuilt != nil && sys.rowSucc != nil
	}
	if !held() {
		t.Fatal("no solve state after a UM-II connection")
	}
	b.Settle()
	b.Close()
	b.Close() // idempotent: must not count the batch out twice
	if !held() || sys.memoOwner != b.ID {
		t.Fatal("Batch.Close released the solve state while another batch is open")
	}
	other.Close()
	if sys.memo.Table() != nil || sys.dense != nil || sys.memoOwner != 0 {
		t.Fatal("closing the last batch left the memo pinned")
	}
	if sys.rowBuilt != nil || sys.rowOff != nil || sys.rowLen != nil || sys.rowSucc != nil || sys.rowQual != nil {
		t.Fatal("closing the last batch left the rows pinned")
	}
}

// TestScorersBoundedByLiveBatches is the regression for the scorer leak:
// over 50 open/run/settle/close cycles with two batches live at a time,
// the scorers held anywhere must stay bounded by what the live batches
// can have touched — one per holder of one of their hops — and a closed
// batch must hold none.
func TestScorersBoundedByLiveBatches(t *testing.T) {
	const conns = 4
	sys, first := scaleSystem(t, 300, 21)
	all := []*Batch{first}
	live := []*Batch{first}
	for cycle := 0; cycle < 50; cycle++ {
		b, err := sys.NewBatch(overlay.NodeID(1+cycle), overlay.NodeID(299-cycle), Contract{Pf: 75, Pr: 150}, UtilityII)
		if err != nil {
			t.Fatal(err)
		}
		all, live = append(all, b), append(live, b)
		for c := 0; c < conns; c++ {
			for _, lb := range live {
				lb.RunConnection()
			}
		}
		live[0].Settle()
		live[0].Close()
		live = live[1:]

		held := 0
		for _, ab := range all {
			held += len(ab.scorers)
		}
		// Each connection has at most MaxHops+1 holders, and a live batch
		// has run at most 2·conns connections.
		if bound := len(live) * 2 * conns * (sys.cfg.MaxHops + 1); held == 0 || held > bound {
			t.Fatalf("cycle %d: %d scorers held for %d live batches (bound %d)", cycle, held, len(live), bound)
		}
		for _, ab := range all[:len(all)-len(live)] {
			if ab.scorers != nil {
				t.Fatalf("cycle %d: closed batch %d still holds %d scorers", cycle, ab.ID, len(ab.scorers))
			}
		}
	}
}

// TestColdSolveAllocsFlatInN pins the scale frontier's allocation count:
// one topology invalidation plus one UM-II connection — a demand-driven
// solve from nothing — allocates the same at N = 10² and N = 10⁴, and no
// more than coldSolveAllocs. The cone of a budget ≤ 6 holds a few
// thousand cells whatever N is; a solve that allocated per node of the
// population would show here first.
func TestColdSolveAllocsFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("N=1e4 build in -short mode")
	}
	const coldSolveAllocs = 9
	var first float64
	for i, n := range []int{100, 10_000} {
		sys, b := scaleSystem(t, n, 11)
		b.RunConnection() // warm: builds memo, rows, base rows, scorers
		allocs := testing.AllocsPerRun(1, func() {
			sys.Net.Touch()
			b.RunConnection()
		})
		t.Logf("N=%d: %.0f allocations per cold solve", n, allocs)
		if allocs > coldSolveAllocs {
			t.Errorf("N=%d: a cold solve allocates %.0f times, want <= %d", n, allocs, coldSolveAllocs)
		}
		if i == 0 {
			first = allocs
		} else if allocs != first {
			t.Errorf("N=%d: a cold solve allocates %.0f times, %.0f at N=100", n, allocs, first)
		}
	}
}
