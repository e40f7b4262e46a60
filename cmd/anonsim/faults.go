package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"p2panon/internal/faultsim"
)

// runFaults executes one deterministic fault-injection run and reports the
// invariant verdict. The spec is either a plan JSON path (typically a
// reproducer saved by a failing CI check) or "gen:<seed>" to synthesise a
// noise plan from a seed. Returns the process exit code: 0 when every
// invariant held, 1 on violations, 2 on an unusable spec or plan.
func runFaults(spec, spanOut string) int {
	var plan faultsim.Plan
	if rest, ok := strings.CutPrefix(spec, "gen:"); ok {
		seed, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "anonsim: -faults gen:<seed>: %v\n", err)
			return 2
		}
		plan = faultsim.GeneratePlan(seed)
	} else {
		var err error
		plan, err = faultsim.LoadPlan(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "anonsim: fault plan rejected: %v\n", err)
			return 2
		}
	}

	res, err := faultsim.Run(plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "anonsim: fault plan rejected: %v\n", err)
		return 2
	}

	p := res.Plan
	fmt.Printf("faultsim: seed=%d nodes=%d batches=%d conns=%d router=%s faults=%d churn=%v\n",
		p.Seed, p.Nodes, p.Batches, p.Conns, p.Router, len(p.Faults), p.Churn)
	fmt.Printf("  virtual time:       %.1fs\n", res.VirtualSeconds)
	fmt.Printf("  batches:            %d settled, %d skipped, %d failed settles\n",
		res.SettledBatches, res.SkippedBatches, res.FailedSettles)
	fmt.Printf("  connections:        %d delivered, %d failed (%d launches)\n",
		res.Delivered, res.Failed, res.Launches)
	fmt.Printf("  messages:           %d sends, %d hops, %d offline drops, %d stale\n",
		res.Sends, res.Hops, res.OfflineDrops, res.Stale)
	fmt.Printf("  recovery:           %d nacks, %d timeouts, %d reformations\n",
		res.Nacks, res.Timeouts, res.Reformations)
	fmt.Printf("  faults injected:    %d\n", res.FaultsInjected)
	fmt.Printf("  spans:              %d (%d dropped)\n", len(res.Spans), res.SpanDropped)

	if spanOut != "" {
		if err := os.WriteFile(spanOut, res.SpanJSONL(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "anonsim: writing span log: %v\n", err)
			return 2
		}
		fmt.Printf("  spans written to:   %s (tracetool %s renders the causal trees)\n", spanOut, spanOut)
	}

	if res.OK() {
		fmt.Println("\nall invariants held")
		return 0
	}
	fmt.Printf("\n%d INVARIANT VIOLATION(S):\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("  - %s\n", v)
	}
	fmt.Printf("\nreplay with: anonsim -faults <this plan> (same seed => identical span log)\n")
	return 1
}
