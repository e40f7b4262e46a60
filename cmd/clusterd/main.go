// Command clusterd runs one multi-process cluster composition: it
// spawns real worker processes (each hosting a share of the world's
// nodes in its own internal/netwire runtime), coordinates batch
// start/settle across them over the control protocol's barriers,
// applies the composition's crash/restart faults at batch boundaries,
// and writes the merged run artifact — per-worker span logs and
// telemetry snapshots, the causally merged spans.jsonl, and
// results.json with the invariant verdict.
//
// Usage:
//
//	clusterd -comp composition.json [-workers 3] [-out dir] [-v]
//	clusterd -gen 7 [-workers 3] [-nodes 9] [-batches 4] [-out dir]
//
// A composition is the faultsim Plan JSON schema plus "workers" (see
// internal/clusterd); an unknown key is refused, not ignored, and so is
// what the cluster cannot apply: a fault other than crash and restart,
// "churn" and a positive "malicious_fraction". Every worker builds the
// seeded static world of the live replay from "seed", "nodes" and
// "degree", and routes with the live router "router" names (random,
// utility for Model I, utility2 for Model II). With -gen N a fault-free
// composition is derived from seed N and the -nodes/-batches knobs.
// Workers default to re-executing this binary; -worker-bin points at
// an alternative binary accepting -cluster-worker/-cluster-index
// (cmd/anonsim does).
//
// The same composition run twice produces a byte-identical merged
// spans.jsonl — the cross-process determinism contract; under the
// utility router it is also the same for any -workers. Exit status is
// 1 on any invariant violation, 2 on usage errors and on a composition
// that fails validation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"p2panon/internal/clusterd"
)

func main() {
	compPath := flag.String("comp", "", "composition JSON path (faultsim plan schema + workers)")
	gen := flag.Uint64("gen", 0, "generate a fault-free composition from this seed instead of -comp")
	workers := flag.Int("workers", 0, "override the composition's worker-process count")
	nodes := flag.Int("nodes", 9, "node count for -gen compositions")
	batches := flag.Int("batches", 4, "batch count for -gen compositions")
	out := flag.String("out", "", "artifact directory (per-worker logs, merged spans.jsonl, results.json)")
	workerBin := flag.String("worker-bin", "", "worker binary taking -cluster-worker/-cluster-index (default: re-exec this binary)")
	verbose := flag.Bool("v", false, "log orchestration progress to stderr")

	// Hidden worker mode: the orchestrator re-executes itself with
	// these to spawn its workers.
	workerAddr := flag.String("worker-addr", "", "internal: run as a worker against this orchestrator address")
	workerIndex := flag.Int("worker-index", 0, "internal: worker index under -worker-addr")
	flag.Parse()

	if *workerAddr != "" {
		if err := clusterd.RunWorker(*workerAddr, *workerIndex); err != nil {
			fmt.Fprintf(os.Stderr, "clusterd worker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var comp clusterd.Composition
	switch {
	case *compPath != "":
		var err error
		comp, err = clusterd.LoadComposition(*compPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterd: %v\n", err)
			os.Exit(2)
		}
	case *gen != 0:
		comp.Seed = *gen
		comp.Nodes = *nodes
		comp.Batches = *batches
	default:
		fmt.Fprintln(os.Stderr, "clusterd: need -comp or -gen (see -h)")
		os.Exit(2)
	}
	if *workers > 0 {
		comp.Workers = *workers
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: %v\n", err)
		os.Exit(1)
	}
	spawn := func(worker int, orchAddr string) (*exec.Cmd, error) {
		if *workerBin != "" {
			return exec.Command(*workerBin,
				"-cluster-worker", orchAddr, "-cluster-index", fmt.Sprint(worker)), nil
		}
		return exec.Command(exe,
			"-worker-addr", orchAddr, "-worker-index", fmt.Sprint(worker)), nil
	}

	orch := &clusterd.Orchestrator{Comp: comp, Spawn: spawn, Dir: *out}
	if *verbose {
		orch.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "clusterd: "+format+"\n", args...)
		}
	}
	res, err := orch.Run(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: %v\n", err)
		os.Exit(1)
	}

	settled := 0
	for _, b := range res.Batches {
		if !b.Failed {
			settled++
		}
	}
	fmt.Printf("clusterd: %d/%d batches settled across %d workers, %d spans merged (%d duplicate)\n",
		settled, len(res.Batches), comp.Normalize().Workers, len(res.Spans), res.Duplicates)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "violation: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("clusterd: all invariants hold")
}
