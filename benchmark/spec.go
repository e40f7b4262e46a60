package main

// The benchmark's contract in one place: workload names and sizes, the
// end-to-end metrics with their regression bounds, and the per-layer
// metric names. BENCHMARK.json at the repository root repeats the names,
// units, directions and bounds; bench_test.go fails if the two drift.

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" | "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is reported by every workload with tracing off. The bounds
// follow what identical code did on the shared 2-core box (BASELINE.json,
// README "Noise"): wall-clock metrics moved with the box by far more than
// the 10 % first planned, so they carry the largest bound the benchmark
// contract allows; allocs_per_conn repeats to four digits and keeps 1 %.
var endToEnd = []metricSpec{
	{"conns_per_s", "1/s", "higher", 0.25},
	{"connect_p50_ms", "ms", "lower", 0.25},
	{"settle_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_conn", "count", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by every workload's traced run. A layer the
// workload does not cross reports 0 (netwire.* off TCP, core.* off the
// simulator, and so on), so one list serves all four workloads.
var perLayer = []metricSpec{
	{Name: "transport.connect_self_us_per_conn", Unit: "us", Better: "lower"},
	{Name: "transport.msgs_per_conn", Unit: "count", Better: "lower"},
	{Name: "transport.reformations_per_conn", Unit: "count", Better: "lower"},
	{Name: "transport.settle_notify_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "transport.connect_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "transport.router.next_hop_us_per_conn", Unit: "us", Better: "lower"},
	{Name: "transport.router.calls_per_conn", Unit: "count", Better: "lower"},
	{Name: "transport.router.spne_solves_per_conn", Unit: "count", Better: "lower"},
	{Name: "transport.router.spne_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "game.dense_solve_us", Unit: "us", Better: "lower"},
	{Name: "game.sparse_solve_us", Unit: "us", Better: "lower"},

	{Name: "core.run_connection_us_per_conn", Unit: "us", Better: "lower"},
	{Name: "core.solves_per_conn", Unit: "count", Better: "lower"},
	{Name: "core.incremental_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.frontier_cells_per_conn", Unit: "count", Better: "lower"},
	{Name: "core.new_batch_us", Unit: "us", Better: "lower"},
	{Name: "core.settle_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "core.solve_rows_us_per_conn", Unit: "us", Better: "lower"},
	{Name: "core.solve_induction_us_per_conn", Unit: "us", Better: "lower"},
	{Name: "core.route_walk_us_per_conn", Unit: "us", Better: "lower"},
	{Name: "overlay.churn_event_us", Unit: "us", Better: "lower"},
	{Name: "probe.tick_all_us", Unit: "us", Better: "lower"},

	{Name: "netwire.bytes_per_conn", Unit: "bytes", Better: "lower"},
	{Name: "netwire.frames_per_conn", Unit: "count", Better: "lower"},
	{Name: "netwire.dials_total", Unit: "count", Better: "lower"},
	{Name: "netwire.frame_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "netwire.frame_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "netwire.link_rtt_us", Unit: "us", Better: "lower"},

	{Name: "payment.mint_chain_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "payment.claim_codec_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "payment.claim_bytes_per_batch", Unit: "bytes", Better: "lower"},
	{Name: "payment.escrow_open_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "payment.verify_settle_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "payment.tokens_per_batch", Unit: "count", Better: "lower"},
	{Name: "payment.withdraw_us_per_token", Unit: "us", Better: "lower"},
	{Name: "payment.deposit_us_per_token", Unit: "us", Better: "lower"},
	{Name: "payment.spent_serials_end", Unit: "count", Better: "lower"},
	{Name: "payment.rejected_receipts", Unit: "count", Better: "lower"},

	{Name: "telemetry.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.spans_recorded", Unit: "count", Better: "lower"},
	{Name: "telemetry.budget_coverage", Unit: "ratio", Better: "higher"},
	{Name: "telemetry.untraced_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "runtime.cpu_ms_per_conn", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_mb_end", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "runtime.ref_work_us", Unit: "us", Better: "lower"},
}

// Every batch is k recurring connections of one (I, R) pair under one
// contract with integer benefits, so payment amounts are exact.
const (
	connsPerBatch = 10
	contractPf    = 75
	contractPr    = 150
)

// worldSeed fixes everything that decides how much work a run is: each
// workload's overlay and probe state, and the population of (I, R) pairs
// its warm-up and its window draw from. The --seed flag decides the order
// the pairs arrive in (and batch secrets, the churn rotation, the
// simulator's routing draws), so two seeds give different transcripts of
// the same amount of work and their metrics are comparable. Drawn per
// seed, a 32-node topology moved path sets, and a 260-batch sample of
// pairs moved blind tokens per batch, by more than the run-to-run noise
// the bounds have to leave room for.
const worldSeed = 20070910

// referenceSeconds is the window length the batch counts below were
// calibrated for on the 2-core reference box at its usual speed; --seconds
// scales them linearly, so a run does a fixed amount of work, not a fixed
// time. It is also BENCHMARK.json's run_seconds: with three ~2.5 s set-ups
// per run, longer windows would not fit the driver's 92 runs into its cap
// when the box is slow.
const referenceSeconds = 15

// workloadSpec sizes one workload. Batches is the measured-window batch
// count at referenceSeconds, Warmup the fixed number of warm-up batches
// that run inside setup_s (dials, caches, lazily built scorers), PerStep
// how many batches one operation of the world settles.
type workloadSpec struct {
	Name    string
	Why     string
	Batches int
	Warmup  int
	PerStep int
	build   func(p plan) (world, error)
}

// plan is what a world is built for: the seed, and how many batches its
// warm-up and its measured window will run.
type plan struct {
	seed         uint64
	warm, window int
	tr           *tracer
}

var workloads = []workloadSpec{
	{
		Name:    "tcp_um1_agg",
		Why:     "32 loopback TCP nodes, table-lookup routing, HMAC chain claims: frame codec, sockets and the netwire driver do the work",
		Batches: 4800, Warmup: 800, PerStep: 1,
		build: func(p plan) (world, error) {
			return newLiveWorld(liveShape{nodes: 32, degree: 6, budget: 5, tcp: true}, p)
		},
	},
	{
		Name:    "inproc_um2_agg",
		Why:     "128 in-process peers, a dense stage game solved per connection: the live SPNE solve does the work and the wire none",
		Batches: 375, Warmup: 60, PerStep: 1,
		build: func(p plan) (world, error) {
			return newLiveWorld(liveShape{nodes: 128, degree: 6, budget: 5, um2: true}, p)
		},
	},
	{
		Name:    "inproc_um1_blind",
		Why:     "per-receipt claims settled with 2048-bit blind tokens: RSA sign and verify and the spent-serial map do the work",
		Batches: 195, Warmup: 36, PerStep: 1,
		build: func(p plan) (world, error) {
			return newLiveWorld(liveShape{nodes: 32, degree: 6, budget: 5, blind: true}, p)
		},
	},
	{
		Name:    "sim_um2_churn",
		Why:     "2000-node simulator, 16 interleaved UM-II batches under churn and probing: the sparse solver and change journals do the work",
		Batches: 384, Warmup: 80, PerStep: simConcurrent,
		build: newSimWorld,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
