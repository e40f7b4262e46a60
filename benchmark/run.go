package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2panon/internal/stats"
)

// world is one built workload: the system under test plus the seeded
// schedule that drives it.
type world interface {
	// step runs one operation to settlement — one batch on the live
	// worlds, one generation of interleaved batches on the simulator —
	// and reports how many batches and connections it settled.
	step() (batches, conns int, err error)
	// reset forgets warm-up records and samples: the window starts here.
	reset()
	samples() *samples
	// verify checks the window's outputs and returns the transcript hash.
	verify() (transcript string, err error)
	// counters are monotonic (metrics use their window difference);
	// gauges are read once, after the window.
	counters() map[string]float64
	gauges() map[string]float64
	// probeLayers adds the world's stand-alone layer probes (probes.go)
	// to the traced run's metrics.
	probeLayers(m map[string]float64)
	close()
}

// samples is what a world measures itself while it steps.
type samples struct {
	connectMs  []float64 // one ConnectDetail / RunConnection call
	settleMs   []float64 // per batch: last confirm returned → settle call returned
	claimBytes int64     // encoded claim bytes that crossed the payment codec
}

// sinceMs is the elapsed time since t0 in milliseconds, ns resolution.
func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// stepRec is one measured step of the window.
type stepRec struct {
	ns             int64
	batches, conns int
	traced         bool
	// how many connect and settle samples existed when the step ended
	connectEnd, settleEnd int
}

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // window length the batch count is scaled to
	warmup   float64 // share of the spec's warm-up batches to run (1 outside tests)
	setups   int     // how many times the world is set up; the last one is measured
	trace    bool
	outDir   string
}

// report is everything one run found out.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	Attempted  int                `json:"ops_attempted"`
	Failed     int                `json:"ops_failed"`
	Error      string             `json:"error,omitempty"`
	Transcript string             `json:"transcript_sha256"`
	Conns      int                `json:"connections"`
	WindowS    float64            `json:"window_s"`
	SetupsS    []float64          `json:"setups_s"`
	Samples    map[string]int     `json:"samples"`
	GoMaxProcs int                `json:"gomaxprocs"`
	GOGC       string             `json:"gogc"`
	Chunks     chunkStats         `json:"window_chunks"`
	RefUs      []float64          `json:"ref_work_us"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	// Budget is the traced run's self time per layer, µs per traced
	// batch; with "untraced" (time no span covers) it sums to BatchUs.
	Budget  map[string]float64 `json:"budget_us_per_batch,omitempty"`
	BatchUs float64            `json:"traced_batch_us,omitempty"`
}

// runWorkload sets the world up cfg.setups times (reporting the median as
// setup_s), measures a fixed number of operations on the last one, then
// checks the outputs outside the timing.
func runWorkload(cfg config) (*report, error) {
	spec := findWorkload(cfg.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep := &report{
		Workload: spec.Name, Seed: cfg.seed, Traced: cfg.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), GOGC: gogc(),
	}

	// Sizes first: the world is built for exactly the batches it will run.
	roundUp := func(batches float64) int {
		steps := int(math.Ceil(batches / float64(spec.PerStep)))
		return max(steps, 1) * spec.PerStep
	}
	p := plan{
		seed:   cfg.seed,
		warm:   roundUp(float64(spec.Warmup) * cfg.warmup),
		window: roundUp(float64(spec.Batches) * cfg.seconds / referenceSeconds),
		tr:     tr,
	}
	if cfg.trace {
		p.window = max(p.window, 2*spec.PerStep) // one traced step, one not
	}
	steps := p.window / spec.PerStep

	refBuf := make([]byte, 1<<18)
	var w world
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
			w = nil
			// The next set-up starts like the first: from a collected heap
			// whose free pages are back with the OS, so that peak_rss_mb is
			// the measured world's and not a sum of discarded ones.
			debug.FreeOSMemory()
		}
		rep.RefUs = append(rep.RefUs, refWork(refBuf), refWork(refBuf), refWork(refBuf))
		t0 := time.Now()
		var err error
		if w, err = spec.build(p); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		for done := 0; done < p.warm; {
			n, _, err := w.step()
			if err != nil {
				w.close()
				return nil, fmt.Errorf("%s: warm-up: %w", spec.Name, err)
			}
			done += n
		}
		rep.SetupsS = append(rep.SetupsS, time.Since(t0).Seconds())
	}
	defer w.close()

	w.reset()
	before := w.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	recs := make([]stepRec, 0, steps)
	start := time.Now()
	for s := 0; s < steps; s++ {
		// One reference sample at each chunk boundary, outside the step
		// timers (≈ 2 ms each: 0.2 % of the window's CPU, no allocation).
		if s*windowChunks/steps != (s-1)*windowChunks/steps {
			rep.RefUs = append(rep.RefUs, refWork(refBuf))
		}
		traced := cfg.trace && s%2 == 1
		tr.setActive(traced)
		t0 := time.Now()
		nb, nc, err := w.step()
		d := int64(time.Since(t0))
		rep.Attempted += max(nb, 1)
		if err != nil {
			rep.Failed++
			rep.Error = err.Error()
			break
		}
		sm := w.samples()
		recs = append(recs, stepRec{ns: d, batches: nb, conns: nc, traced: traced,
			connectEnd: len(sm.connectMs), settleEnd: len(sm.settleMs)})
	}
	rep.WindowS = time.Since(start).Seconds()
	tr.setActive(false)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	after := w.counters()
	goroutines := runtime.NumGoroutine()

	var opNs, opBatches, opConns [2]float64 // [0] untraced steps, [1] traced
	for _, r := range recs {
		k := 0
		if r.traced {
			k = 1
		}
		opNs[k] += float64(r.ns)
		opBatches[k] += float64(r.batches)
		opConns[k] += float64(r.conns)
	}
	nBatches, conns := opBatches[0]+opBatches[1], opConns[0]+opConns[1]
	rep.Conns = int(conns)
	if rep.Failed == 0 {
		var err error
		if rep.Transcript, err = w.verify(); err != nil {
			rep.Failed++
			rep.Error = "output check: " + err.Error()
		}
	}
	if rep.Failed > 0 {
		return rep, nil
	}

	sm := w.samples()
	connect := stats.NewCDF(sm.connectMs)
	rep.Chunks = chunkWindow(recs, sm)
	rep.Samples = map[string]int{"connect": len(sm.connectMs), "settle": len(sm.settleMs)}
	rep.EndToEnd = map[string]float64{
		"conns_per_s":     median(rep.Chunks.ConnsPerS),
		"connect_p50_ms":  connect.Quantile(0.5),
		"settle_p50_ms":   stats.NewCDF(sm.settleMs).Quantile(0.5),
		"allocs_per_conn": float64(ms1.Mallocs-ms0.Mallocs) / conns,
		"peak_rss_mb":     peakRSSMB(),
		"setup_s":         median(rep.SetupsS),
	}
	if !cfg.trace {
		return rep, nil
	}

	// Per-layer metrics: counters over the whole window, span times over
	// the traced half of it.
	delta := func(k string) float64 { return after[k] - before[k] }
	perConn := func(v float64) float64 { return v / conns }
	gauges := w.gauges()
	layers := tr.selfTimes()
	tracedBatches, tracedConns := opBatches[1], opConns[1]
	usPer := func(name string, per float64, self bool) float64 {
		lt := layers[name]
		if lt == nil || per == 0 {
			return 0
		}
		if self {
			return float64(lt.SelfNs) / 1e3 / per
		}
		return float64(lt.Total) / 1e3 / per
	}
	usPerCall := func(name string) float64 {
		if lt := layers[name]; lt != nil {
			return float64(lt.Total) / 1e3 / float64(lt.Count)
		}
		return 0
	}
	count := func(name string) float64 {
		if lt := layers[name]; lt != nil {
			return float64(lt.Count)
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}

	rep.BatchUs = opNs[1] / 1e3 / tracedBatches
	rep.Budget = make(map[string]float64)
	var covered float64
	for name, lt := range layers {
		rep.Budget[name] = float64(lt.SelfNs) / 1e3 / tracedBatches
		covered += rep.Budget[name]
	}
	rep.Budget["untraced"] = rep.BatchUs - covered

	m := map[string]float64{
		"transport.connect_self_us_per_conn":   usPer(spanConnect, tracedConns, true),
		"transport.msgs_per_conn":              perConn(delta("msgs")),
		"transport.reformations_per_conn":      perConn(delta("reformations")),
		"transport.settle_notify_us_per_batch": usPer(spanSettleNotify, tracedBatches, false),

		"transport.router.next_hop_us_per_conn": usPer(spanNextHop, tracedConns, false),
		"transport.router.calls_per_conn":       count(spanNextHop) / tracedConns,
		"transport.router.spne_solves_per_conn": perConn(delta("spne_misses")),
		"transport.router.spne_hit_ratio":       ratio(delta("spne_hits"), delta("spne_misses")),

		"core.run_connection_us_per_conn":  usPer(spanRunConn, tracedConns, false),
		"core.solves_per_conn":             perConn(delta("solves")),
		"core.incremental_hit_ratio":       ratio(delta("incremental"), delta("fallbacks")),
		"core.frontier_cells_per_conn":     perConn(delta("frontier_cells")),
		"core.new_batch_us":                usPerCall(spanNewBatch),
		"core.settle_us_per_batch":         usPer(spanCoreSettle, tracedBatches, false),
		"core.solve_rows_us_per_conn":      gauges["phase_ns.solve.rows"] / 1e3 / tracedConns,
		"core.solve_induction_us_per_conn": gauges["phase_ns.solve.induction"] / 1e3 / tracedConns,
		"core.route_walk_us_per_conn":      gauges["phase_ns.route.walk"] / 1e3 / tracedConns,
		"overlay.churn_event_us":           usPerCall(spanChurnEvent),
		"probe.tick_all_us":                usPerCall(spanTickAll),

		"netwire.bytes_per_conn":  perConn(delta("wire_bytes")),
		"netwire.frames_per_conn": perConn(delta("wire_frames")),
		"netwire.dials_total":     after["dials"],

		"payment.mint_chain_us_per_batch":    usPer(spanMintChain, tracedBatches, false),
		"payment.claim_codec_us_per_batch":   usPer(spanClaimCodec, tracedBatches, false),
		"payment.claim_bytes_per_batch":      float64(sm.claimBytes) / nBatches,
		"payment.escrow_open_us_per_batch":   usPer(spanEscrowOpen, tracedBatches, false),
		"payment.verify_settle_us_per_batch": usPer(spanVerifySettle, tracedBatches, false),
		"payment.tokens_per_batch":           delta("tokens") / nBatches,
		"payment.spent_serials_end":          gauges["spent_serials"],
		"payment.rejected_receipts":          delta("rejected"),

		"telemetry.trace_overhead_share":  1 - (tracedConns/opNs[1])/(opConns[0]/opNs[0]),
		"telemetry.spans_recorded":        float64(len(tr.spans)),
		"telemetry.budget_coverage":       covered / rep.BatchUs,
		"telemetry.untraced_us_per_batch": rep.Budget["untraced"],

		"transport.connect_p99_ms":  connect.Quantile(0.99),
		"runtime.cpu_ms_per_conn":   float64(cpu1-cpu0) / 1e6 / conns,
		"runtime.gc_cycles":         float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_ms_total": float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"runtime.heap_inuse_mb_end": float64(ms1.HeapInuse) / (1 << 20),
		"runtime.goroutines_end":    float64(goroutines),
		"runtime.ref_work_us":       median(rep.RefUs),
	}
	// Stand-alone probes of single layers on this world, after everything
	// the window's numbers depend on has been read.
	w.probeLayers(m)
	rep.PerLayer = make(map[string]float64, len(perLayer))
	for _, spec := range perLayer {
		rep.PerLayer[spec.Name] = m[spec.Name] // a layer this world lacks reads 0
	}
	if err := tr.writeJSONL(filepath.Join(cfg.outDir, spec.Name+".spans.jsonl")); err != nil {
		return nil, fmt.Errorf("writing span log: %w", err)
	}
	return rep, nil
}

// windowChunks is how many equal runs of steps the window is cut into.
const windowChunks = 16

// chunkStats is the window seen as windowChunks consecutive pieces: each
// piece's throughput and median latencies. On a shared box a burst of
// stolen CPU slows a few pieces and moves a whole-window mean with them;
// a quantile over the pieces moves only if most of the window was slow,
// and the pieces themselves show the burst in the report.
type chunkStats struct {
	ConnsPerS    []float64 `json:"conns_per_s"`
	ConnectP50Ms []float64 `json:"connect_p50_ms"`
	SettleP50Ms  []float64 `json:"settle_p50_ms"`
}

func chunkWindow(recs []stepRec, sm *samples) chunkStats {
	var cs chunkStats
	chunks := min(windowChunks, len(recs))
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(recs)/chunks, (c+1)*len(recs)/chunks
		var conns, ns float64
		for _, r := range recs[lo:hi] {
			conns, ns = conns+float64(r.conns), ns+float64(r.ns)
		}
		var connectFrom, settleFrom int
		if lo > 0 {
			connectFrom, settleFrom = recs[lo-1].connectEnd, recs[lo-1].settleEnd
		}
		cs.ConnsPerS = append(cs.ConnsPerS, conns/(ns/1e9))
		cs.ConnectP50Ms = append(cs.ConnectP50Ms, stats.NewCDF(sm.connectMs[connectFrom:recs[hi-1].connectEnd]).Quantile(0.5))
		cs.SettleP50Ms = append(cs.SettleP50Ms, stats.NewCDF(sm.settleMs[settleFrom:recs[hi-1].settleEnd]).Quantile(0.5))
	}
	return cs
}

// refWork times a fixed computation that touches none of the repository's
// code — four passes of integer arithmetic over the 256 KiB buffer, then
// its SHA-256, no allocation — and returns microseconds. Sampled through a
// run, it tells a slow box from a slow program.
func refWork(buf []byte) float64 {
	t0 := time.Now()
	acc := uint64(88172645463325252)
	for pass := 0; pass < 4; pass++ {
		for i := range buf {
			acc = acc*6364136223846793005 + uint64(buf[i]) + 1442695040888963407
			buf[i] = byte(acc >> 56)
		}
	}
	buf[0] ^= sha256.Sum256(buf)[0] // keep the hash live
	return float64(time.Since(t0)) / 1e3
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// cpuTime returns the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
