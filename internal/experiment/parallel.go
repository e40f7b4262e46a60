package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/stats"
)

// RunTrialsParallel runs trials of the setup over up to workers goroutines
// (GOMAXPROCS when workers < 1), trial t seeded s.Seed + t·0x9e37. Each
// trial owns its whole simulation (overlay, engine, RNG), so trials are
// embarrassingly parallel and the results are bit-identical whatever the
// worker count — only wall-clock time changes.
func RunTrialsParallel(s Setup, trials, workers int) ([]*Result, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiment: trials=%d", trials)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	out := make([]*Result, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for t := 0; t < trials; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			st := s
			st.Seed = s.Seed + uint64(t)*0x9e37
			out[t], errs[t] = Run(st)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ScalePoint is one N of the SCALE study: the paper uses N = 40 "for
// simulation simplicity"; this sweep checks that its conclusions — the
// utility/random forwarder-set separation and the payoff gap — are not
// small-N artifacts, and benchmarks the simulator's scaling.
type ScalePoint struct {
	N               int
	RandomSetSize   float64
	UtilitySetSize  float64
	SeparationRatio float64 // random ‖π‖ / utility ‖π‖
	UtilityPayoff   float64
	WallClock       time.Duration // total simulation time for this N
}

// RunScale sweeps the population size with a workload that keeps the
// per-node load constant (pairs and transmissions scale with N), running
// trials in parallel.
func RunScale(base Setup, ns []int, trials, workers int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, n := range ns {
		if n < 4 {
			return nil, fmt.Errorf("experiment: scale N=%d", n)
		}
		scaleCfg := func(strat core.Strategy) Setup {
			s := base
			s.N = n
			s.Strategy = strat
			// Constant per-node load: the paper's 100 pairs / 2000 tx at
			// N = 40 become 2.5 pairs and 50 tx per node.
			s.Workload.Pairs = n * 100 / 40
			s.Workload.Transmissions = n * 2000 / 40
			return s
		}
		start := time.Now()
		utilRes, err := RunTrialsParallel(scaleCfg(core.UtilityI), trials, workers)
		if err != nil {
			return nil, fmt.Errorf("N=%d utility: %w", n, err)
		}
		randRes, err := RunTrialsParallel(scaleCfg(core.Random), trials, workers)
		if err != nil {
			return nil, fmt.Errorf("N=%d random: %w", n, err)
		}
		elapsed := time.Since(start)

		uSize := stats.Mean(PoolSetSizes(utilRes))
		rSize := stats.Mean(PoolSetSizes(randRes))
		var pay stats.Accumulator
		pay.AddAll(PoolPayoffs(utilRes))
		pt := ScalePoint{
			N:              n,
			RandomSetSize:  rSize,
			UtilitySetSize: uSize,
			UtilityPayoff:  pay.Mean(),
			WallClock:      elapsed,
		}
		if uSize > 0 {
			pt.SeparationRatio = rSize / uSize
		}
		out = append(out, pt)
	}
	return out, nil
}
