// Command benchmark is the repository's end-to-end benchmark: four
// closed-loop workloads (one client, one connection in flight) that each
// carry batches of recurring connections through routing, forwarding,
// confirmation, claims and settlement, over public functions of the
// existing packages only. See README.md.
//
//	bash benchmark/run.sh --workload tcp_um1_agg --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics — end-to-end with --trace 0, per-layer with
// --trace 1. The line before it is the full report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"p2panon/internal/payment"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "seed of the (I, R) schedule and every other generated input")
	seconds := flag.Float64("seconds", referenceSeconds, "measured-window length the fixed batch count is scaled to")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics, 0 reports end-to-end metrics")
	out := flag.String("out", "benchmark/out", "directory for span logs")
	genFixture := flag.String("gen-fixture", "", "write a fresh 2048-bit bank snapshot to this path and exit")
	repeat := flag.String("repeat", "", "SETSxRUNS, e.g. 2x5: run every workload RUNS times in each of SETS interleaved sets and compare the sets")
	baseline := flag.String("baseline", "benchmark/BASELINE.json", "where -repeat writes the observed spread")
	flag.Parse()

	switch {
	case *genFixture != "":
		if err := writeFixture(*genFixture); err != nil {
			fatal(err)
		}
	case *repeat != "":
		if err := runRepeat(*repeat, *seed, *seconds, *baseline); err != nil {
			fatal(err)
		}
	default:
		rep, err := runWorkload(config{
			workload: *workload, seed: *seed, seconds: *seconds,
			warmup: 1, setups: 3, trace: *trace != 0, outDir: *out,
		})
		if err != nil {
			fatal(err)
		}
		if err := printRun(rep); err != nil {
			fatal(err)
		}
		if rep.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printRun prints the full report and then the driver's result line.
func printRun(rep *report) error {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if rep.Failed > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", rep.Error)
	}
	return enc.Encode(resultOf(rep))
}

func resultOf(rep *report) result {
	specs, values := endToEnd, rep.EndToEnd
	if rep.Traced {
		specs, values = perLayer, rep.PerLayer
	}
	res := result{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return res
}

// writeFixture regenerates the committed bank snapshot: a fresh key and
// no accounts. The key protects nothing — it exists so that set-up never
// pays for rsa.GenerateKey.
func writeFixture(path string) error {
	bank, err := payment.NewBank(2048)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bank.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
