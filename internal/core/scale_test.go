package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"p2panon/internal/dist"
	"p2panon/internal/overlay"
	"p2panon/internal/probe"
)

// scaleDegree is the neighbor-set size of scaleSystem's overlay.
const scaleDegree = 5

// scaleSystem builds a static overlay of n nodes (bulk-joined, degree
// scaleDegree) with warmed probes and one UM-II batch, the configuration
// the cold-solve allocation pin and the working-memory tests share.
func scaleSystem(tb testing.TB, n int, seed uint64) (*System, *Batch) {
	tb.Helper()
	rng := dist.NewSource(seed)
	net := overlay.NewNetwork(scaleDegree, rng.Split())
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
	b.RunConnection() // warm: builds memo, rows, base rows

	// (a) retained rows are O(n·d): every row the solver read holds ≤
	// degree+1 entries, as does every row that lists I or R, and the
	// storage behind them — base rows, σ overlays — at most degree+1 slots
	// per node.
	d := scaleDegree
	for i := 0; i < n; i++ {
		read := false
		for h := 2; h <= sys.cfg.MaxHops; h++ {
			read = read || sys.memo.Known(h, i)
		}
		nbrs := sys.Net.Node(overlay.NodeID(i)).Neighbors
		if read || slices.Contains(nbrs, b.Initiator) || slices.Contains(nbrs, b.Responder) {
			requireRowShape(t, "cone", &sys.stage, i, d+1)
		}
	}
	maxSlots := n * (d + 1)
	if c := cap(sys.base.succ) + cap(sys.overlay); c == 0 || c > maxSlots {
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
// scratch — memo, rows and the rule they are read under — outlives a
// Close while another batch is still open (no re-allocation on every
// Close), every row the solver reads still well formed, and is dropped
// entirely when the last one closes: a finished large run must not pin
// its working set for the process lifetime.
func TestSolveScratchReleasedOnClose(t *testing.T) {
	sys, b := scaleSystem(t, 500, 6)
	other, err := sys.NewBatch(1, 2, Contract{Pf: 75, Pr: 150}, UtilityII)
	if err != nil {
		t.Fatal(err)
	}
	b.RunConnection()
	held := func() bool {
		if reflect.ValueOf(sys.memo).IsZero() || sys.rowAt == nil || sys.stage.Rule.Holds == nil {
			return false
		}
		rows := 0
		for i := 0; i < sys.Net.Len(); i++ {
			if succ, _, _, _ := requireRowShape(t, "held", &sys.stage, i, scaleDegree+1); len(succ) > 0 {
				rows++
			}
		}
		return rows > 0
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
	if !reflect.ValueOf(sys.memo).IsZero() || sys.memoOwner != 0 {
		t.Fatal("closing the last batch left the memo pinned")
	}
	if sys.rowAt != nil || sys.overlay != nil || sys.fill != nil || !reflect.ValueOf(sys.stage.Rule).IsZero() {
		t.Fatal("closing the last batch left the rows pinned")
	}
}

// TestScorersBoundedByLiveBatches is the regression for the scorer leak,
// now over the batches' history tables: over 50 open/run/settle/close
// cycles with two batches live at a time, a table is held by each live
// batch and by no closed one, and a live table names no more edges out of
// its holders than the batch's hops — so history stays bounded by the
// batches open, not by the run's length.
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

		for _, lb := range live {
			if lb.hist == nil {
				t.Fatalf("cycle %d: live batch %d holds no table", cycle, lb.ID)
			}
			edges := 0
			for _, id := range sys.Net.AllIDs() {
				edges += len(lb.hist.Successors(id))
			}
			// Each connection has at most MaxHops+1 hops, and a live batch
			// has run at most 2·conns connections.
			if bound := 2 * conns * (sys.cfg.MaxHops + 1); edges == 0 || edges > bound {
				t.Fatalf("cycle %d: batch %d holds %d edges (bound %d)", cycle, lb.ID, edges, bound)
			}
		}
		for _, ab := range all[:len(all)-len(live)] {
			if ab.hist != nil {
				t.Fatalf("cycle %d: closed batch %d still holds its table", cycle, ab.ID)
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
	const coldSolveAllocs = 8
	var first float64
	for i, n := range []int{100, 10_000} {
		sys, b := scaleSystem(t, n, 11)
		b.RunConnection() // warm: builds memo, rows, base rows
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
