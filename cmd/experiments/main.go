// Command experiments regenerates every table and figure of the paper's
// evaluation (§3), plus the proposition checks, ablations and attack
// studies indexed in DESIGN.md. Output goes to stdout as aligned tables
// and, with -out, to CSV files for plotting.
//
// Usage:
//
//	experiments [-quick] [-trials N] [-seed S] [-out DIR] [-only LIST] [-jobs N]
//
// Sections are independent simulations, so they run on a bounded worker
// pool (-jobs, default GOMAXPROCS). Output is assembled in registration
// order after the runs complete: stdout and the CSV files are
// byte-identical for a fixed (config, seed) whatever -jobs is. Per-section
// wall-clock timings go to stderr (and timings.csv with -out) so the
// deterministic streams stay free of timing noise.
//
// -only selects a comma-separated subset of:
// fig3,fig4,tab2,fig5,fig6,fig7,fig12,prop1,prop23,abl-tau,abl-w,abl-pos,abl-cost,abl-term,abl-churn,
// cmp-rep,traj,scale,atk-int,atk-avail,atk-traffic,def-jitter
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/experiment"
	"p2panon/internal/report"
)

func main() {
	quick := flag.Bool("quick", false, "scaled-down workload for smoke runs")
	trials := flag.Int("trials", 5, "independent trials per data point")
	seed := flag.Uint64("seed", 1, "base random seed")
	outDir := flag.String("out", "", "directory for CSV output (optional)")
	only := flag.String("only", "", "comma-separated experiment subset")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent experiment sections")
	flag.Parse()

	base := experiment.Default()
	if *quick {
		base = experiment.Quick()
	}
	base.Seed = *seed

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	r := &runner{outDir: *outDir, jobs: *jobs}
	allStrategies := []core.Strategy{core.Random, core.UtilityI, core.UtilityII}

	if want("fig3") {
		r.section("fig3", "FIG3: average payoff for a non-malicious node (Utility Model I)", func(emit emitFunc) error {
			s, err := experiment.PayoffVsMalicious(base, core.UtilityI, experiment.DefaultFractions, *trials)
			if err != nil {
				return err
			}
			return emit("fig3", report.SeriesTable("Fig. 3: avg good-node payoff vs f (UM-I, 95% CI)", "f", s))
		})
	}
	if want("fig4") {
		r.section("fig4", "FIG4: average payoff for a non-malicious node (Utility Model II)", func(emit emitFunc) error {
			s, err := experiment.PayoffVsMalicious(base, core.UtilityII, experiment.DefaultFractions, *trials)
			if err != nil {
				return err
			}
			return emit("fig4", report.SeriesTable("Fig. 4: avg good-node payoff vs f (UM-II, 95% CI)", "f", s))
		})
	}
	if want("tab2") {
		r.section("tab2", "TAB2: routing efficiency for utility model I", func(emit emitFunc) error {
			tab, err := experiment.RunTable2(base, experiment.DefaultTaus, []float64{0.1, 0.5, 0.9}, *trials)
			if err != nil {
				return err
			}
			return emit("table2", report.Table2Render(tab))
		})
	}
	if want("fig5") {
		r.section("fig5", "FIG5: forwarder-set size by routing strategy (+ fixed-path baseline)", func(emit emitFunc) error {
			ss, err := experiment.ForwarderSetVsMalicious(base, experiment.Fig5Strategies, experiment.DefaultFractions, *trials)
			if err != nil {
				return err
			}
			// The live rule's point at f = 0: one short replay per live
			// router through the in-process backend.
			for _, strat := range allStrategies {
				size, _, err := experiment.LiveShape(base.Seed, strat)
				if err != nil {
					return err
				}
				ss = append(ss, experiment.Series{Name: "setsize-live-" + strat.String(), Points: []experiment.FigPoint{{Mean: size}}})
			}
			return emit("fig5", report.MultiSeriesTable("Fig. 5: avg ‖π‖ vs f", "f", ss))
		})
	}
	for _, fig := range []struct {
		id string
		f  float64
	}{{"fig6", 0.1}, {"fig7", 0.5}} {
		fig := fig
		if want(fig.id) {
			r.section(fig.id, fmt.Sprintf("%s: CDF of good-node payoffs at f=%g", strings.ToUpper(fig.id), fig.f), func(emit emitFunc) error {
				cdfs, err := experiment.PayoffCDFs(base, allStrategies, fig.f, *trials, 25)
				if err != nil {
					return err
				}
				title := fmt.Sprintf("Fig. %s: payoff CDF, f=%g", fig.id[3:], fig.f)
				if err := emit(fig.id, report.CDFTable(title, cdfs)); err != nil {
					return err
				}
				return emit(fig.id+"-summary", report.CDFSummaryTable("distribution summary", cdfs))
			})
		}
	}
	if want("fig12") {
		r.section("fig12", "FIG12: Figures 1-2 scenario (scripted topology)", func(emit emitFunc) error {
			res := experiment.RunFig12(8, 100, base.Seed)
			t := &report.Table{
				Title:   "Figs. 1-2: random+churn vs stable routing on the scripted topology",
				Headers: []string{"scenario", "‖π‖", "Pr share per forwarder"},
			}
			t.AddRow("random, node X flapping", fmt.Sprintf("%d", res.RandomSetSize), report.F(res.RandomShare))
			t.AddRow("stable utility routing", fmt.Sprintf("%d", res.StableSetSize), report.F(res.StableShare))
			return emit("fig12", t)
		})
	}
	if want("prop1") {
		r.section("prop1", "PROP1: path-reformation (new-edge) rates", func(emit emitFunc) error {
			res, err := experiment.RunProp1(base, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Prop. 1: empirical E[X] (new-edge probability) vs analytic",
				Headers: []string{"quantity", "value"},
			}
			t.AddRow("random routing, measured", report.F4(res.RandomRate))
			t.AddRow("random routing, analytic lower bound 1-k/N", report.F4(res.RandomBound))
			t.AddRow("utility routing, measured", report.F4(res.UtilityRate))
			t.AddRow("utility routing, analytic prod(1-p_i)", report.F4(res.UtilityPredict))
			for _, strat := range []core.Strategy{core.Random, core.UtilityI} {
				_, rate, err := experiment.LiveShape(base.Seed, strat)
				if err != nil {
					return err
				}
				t.AddRow(fmt.Sprintf("%s routing, live (inproc replay)", strings.TrimSuffix(strat.String(), "-I")), report.F4(rate))
			}
			return emit("prop1", t)
		})
	}
	if want("prop23") {
		r.section("prop23", "PROP23: participation vs P_f thresholds", func(emit emitFunc) error {
			pfs := []float64{1, 3, 5, 6.9, 7.1, 10, 25, 50, 100}
			pts, err := experiment.RunParticipation(base, pfs, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Props. 2-3: participation response to P_f (C^p=5, C^t=2)",
				Headers: []string{"P_f", "decline-rate", "direct-fraction", "Prop3 holds", "Prop2 threshold"},
			}
			for _, p := range pts {
				t.AddRow(report.F(p.Pf), report.F4(p.DeclineRate), report.F4(p.DirectFraction),
					fmt.Sprintf("%v", p.Prop3Satisfied), report.F(p.Prop2Threshold))
			}
			return emit("prop23", t)
		})
	}
	if want("abl-tau") {
		r.section("abl-tau", "ABL-TAU: tau sensitivity", func(emit emitFunc) error {
			pts, err := experiment.RunTauAblation(base, []float64{0.25, 0.5, 1, 2, 4, 8}, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Ablation: tau = P_r/P_f sweep (UM-I)",
				Headers: []string{"tau", "avg ‖π‖", "avg payoff", "efficiency"},
			}
			for _, p := range pts {
				t.AddRow(report.F(p.Tau), report.F(p.AvgSetSize), report.F(p.AvgPayoff), report.F(p.Efficiency))
			}
			return emit("abl-tau", t)
		})
	}
	if want("abl-w") {
		r.section("abl-w", "ABL-W: selectivity/availability weighting", func(emit emitFunc) error {
			pts, err := experiment.RunWeightAblation(base, []float64{0, 0.25, 0.5, 0.75, 1}, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Ablation: w_s sweep (w_a = 1 − w_s, UM-I)",
				Headers: []string{"w_s", "avg ‖π‖", "new-edge rate"},
			}
			for _, p := range pts {
				t.AddRow(report.F(p.Ws), report.F(p.AvgSetSize), report.F4(p.NewEdgeRate))
			}
			return emit("abl-w", t)
		})
	}
	if want("abl-pos") {
		r.section("abl-pos", "ABL-POS: position-aware selectivity (§2.3 predecessor differentiation)", func(emit emitFunc) error {
			res, err := experiment.RunPositionAblation(base, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Selectivity variant (UM-I)",
				Headers: []string{"variant", "avg ‖π‖", "new-edge rate"},
			}
			t.AddRow("position-agnostic", report.F(res.AgnosticSetSize), report.F4(res.AgnosticNewEdge))
			t.AddRow("position-aware", report.F(res.AwareSetSize), report.F4(res.AwareNewEdge))
			return emit("abl-pos", t)
		})
	}
	if want("abl-cost") {
		r.section("abl-cost", "ABL-COST: uniform vs bandwidth-proportional link costs (§3)", func(emit emitFunc) error {
			res, err := experiment.RunCostAblation(base, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Cost model (UM-I; equal mean C^t)",
				Headers: []string{"model", "avg ‖π‖", "avg payoff", "avg net"},
			}
			t.AddRow("uniform C^t=2", report.F(res.UniformSetSize), report.F(res.UniformPayoff), report.F(res.UniformNet))
			t.AddRow("bandwidth-proportional", report.F(res.BandwidthSetSize), report.F(res.BandwidthPayoff), report.F(res.BandwidthNet))
			return emit("abl-cost", t)
		})
	}
	if want("abl-term") {
		r.section("abl-term", "ABL-TERM: hop-budget vs Crowds-coin termination", func(emit emitFunc) error {
			pts, err := experiment.RunTerminationAblation(base, []float64{0.5, 0.66, 0.75, 0.9}, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Termination ablation (UM-I): both §2.2 modes",
				Headers: []string{"mode", "p_f", "avg L", "avg ‖π‖", "Q(π)=L/‖π‖", "avg payoff"},
			}
			for _, p := range pts {
				pf := "-"
				if p.Mode == core.CrowdsCoin {
					pf = report.F(p.ForwardProb)
				}
				t.AddRow(p.Mode.String(), pf, report.F(p.AvgLen), report.F(p.AvgSetSize),
					report.F(p.AvgQuality), report.F(p.AvgPayoff))
			}
			return emit("abl-term", t)
		})
	}
	if want("abl-churn") {
		r.section("abl-churn", "ABL-CHURN: churn-intensity sensitivity", func(emit emitFunc) error {
			pts, err := experiment.RunChurnAblation(base, []float64{15, 30, 60, 120, 240}, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Median session time sweep (UM-I; paper default 60 min)",
				Headers: []string{"median (min)", "avg ‖π‖", "avg payoff", "new-edge rate", "skipped frac"},
			}
			for _, p := range pts {
				t.AddRow(report.F(p.MedianSessionMin), report.F(p.AvgSetSize),
					report.F(p.AvgPayoff), report.F4(p.NewEdgeRate), report.F4(p.SkippedFraction))
			}
			return emit("abl-churn", t)
		})
	}
	if want("cmp-rep") {
		r.section("cmp-rep", "CMP-REP: reputation baseline vs incentive mechanism under collusion", func(emit emitFunc) error {
			cmp, err := experiment.RunReputationComparison(base, 0.1, 400, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Colluding coalition's capture of forwarding work (coalition = 10% of nodes)",
				Headers: []string{"system", "capture"},
			}
			t.AddRow("population share (fair baseline)", report.F4(cmp.PopulationShare))
			t.AddRow("reputation routing, overall", report.F4(cmp.ReputationOverall))
			t.AddRow("reputation routing, after inflation compounds", report.F4(cmp.ReputationLate))
			t.AddRow("incentive mechanism (UM-I)", report.F4(cmp.IncentiveCapture))
			return emit("cmp-rep", t)
		})
	}
	if want("atk-int") {
		r.section("atk-int", "ATK-INT: intersection attack", func(emit emitFunc) error {
			s := base
			s.Churn = true
			res, err := experiment.RunIntersection(s, allStrategies, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Intersection attack under churn (per strategy)",
				Headers: []string{"strategy", "avg final candidate set", "identified rate", "avg degree of anonymity", "avg ‖π‖ (attack surface)"},
			}
			for _, x := range res {
				t.AddRow(x.Strategy.String(), report.F(x.AvgFinalSet), report.F4(x.IdentifiedRate),
					report.F4(x.AvgDegree), report.F(x.AvgForwarderSet))
			}
			return emit("atk-int", t)
		})
	}
	if want("traj") {
		r.section("traj", "TRAJ: per-connection convergence (Prop. 1 dynamics)", func(emit emitFunc) error {
			trajs, err := experiment.RunTrajectory(base, []core.Strategy{core.Random, core.UtilityI, core.UtilityII}, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "New-edge rate and cumulative ‖π‖ by connection index",
				Headers: []string{"conn", "rand newE", "rand ‖π‖", "UM-I newE", "UM-I ‖π‖", "UM-II newE", "UM-II ‖π‖"},
			}
			rr := trajs[core.Random]
			u1 := trajs[core.UtilityI]
			u2 := trajs[core.UtilityII]
			for i := range rr {
				if i >= len(u1) || i >= len(u2) {
					break
				}
				t.AddRow(fmt.Sprintf("%d", rr[i].Conn),
					report.F4(rr[i].NewEdgeRate), report.F(rr[i].CumSetSize),
					report.F4(u1[i].NewEdgeRate), report.F(u1[i].CumSetSize),
					report.F4(u2[i].NewEdgeRate), report.F(u2[i].CumSetSize))
			}
			return emit("traj", t)
		})
	}
	if want("scale") {
		sec := r.section("scale", "SCALE: population-size sweep (paper's N=40 was 'for simulation simplicity')", nil)
		sec.fn = func(emit emitFunc) error {
			pts, err := experiment.RunScale(base, []int{40, 80, 160, 320}, *trials, 0)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "N sweep, constant per-node load, parallel trials (UM-I vs random)",
				Headers: []string{"N", "random ‖π‖", "UM-I ‖π‖", "separation", "UM-I payoff"},
			}
			for _, p := range pts {
				t.AddRow(fmt.Sprintf("%d", p.N), report.F(p.RandomSetSize), report.F(p.UtilitySetSize),
					report.F(p.SeparationRatio), report.F(p.UtilityPayoff))
				// Wall clock is real elapsed time, so it goes through the
				// timing channel (stderr), keeping stdout/CSV deterministic.
				fmt.Fprintf(&sec.notes, "scale N=%d: %s\n", p.N, p.WallClock.Round(time.Millisecond))
			}
			return emit("scale", t)
		}
	}
	if want("def-jitter") {
		r.section("def-jitter", "DEF-JITTER: §5 availability-attack countermeasure", func(emit emitFunc) error {
			s := base
			s.MaliciousFraction = 0.2
			pts, err := experiment.RunJitterDefense(s, []int{1, 2, 3, 4}, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Top-K jitter vs always-online adversaries (f=0.2)",
				Headers: []string{"K", "attack capture", "avg ‖π‖", "avg payoff"},
			}
			for _, p := range pts {
				t.AddRow(fmt.Sprintf("%.0f", p.TopK), report.F4(p.AttackCapture),
					report.F(p.AvgSetSize), report.F(p.AvgPayoff))
			}
			return emit("def-jitter", t)
		})
	}
	if want("atk-traffic") {
		r.section("atk-traffic", "ATK-TRAFFIC: §5 traffic-analysis attack", func(emit emitFunc) error {
			res, err := experiment.RunTrafficAnalysis(base, 600, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Global passive observer correlating activity epochs (10-min windows)",
				Headers: []string{"metric", "value"},
			}
			t.AddRow("trials scored", fmt.Sprintf("%d", res.Trials))
			t.AddRow("initiator mean rank", report.F(res.MeanRank))
			t.AddRow("identified (rank 1) rate", report.F4(res.IdentifiedRate))
			t.AddRow("initiator mean correlation", report.F4(res.MeanScore))
			t.AddRow("suspect population", fmt.Sprintf("%d", res.Population))
			return emit("atk-traffic", t)
		})
	}
	if want("atk-avail") {
		r.section("atk-avail", "ATK-AVAIL: availability attack (§5)", func(emit emitFunc) error {
			s := base
			s.MaliciousFraction = 0.2
			s.Churn = true
			res, err := experiment.RunAvailabilityAttack(s, *trials)
			if err != nil {
				return err
			}
			t := &report.Table{
				Title:   "Availability attack: malicious share of forwarder sets (f=0.2)",
				Headers: []string{"adversary behaviour", "capture", "cid-link guess accuracy"},
			}
			t.AddRow("churning (baseline)", report.F4(res.BaselineCapture), "-")
			t.AddRow("always-online (attack)", report.F4(res.AttackCapture), report.F4(res.GuessAccuracy))
			return emit("atk-avail", t)
		})
	}

	if !r.run() {
		os.Exit(1)
	}
}

// emitFunc renders one named table into the owning section's output; the
// name doubles as the CSV file stem under -out.
type emitFunc func(name string, t *report.Table) error

type namedTable struct {
	name  string
	table *report.Table
}

// section is one registered experiment: its identity, the work closure,
// and — after run() — its buffered text, tables, error and wall-clock.
type section struct {
	id    string
	title string
	fn    func(emit emitFunc) error

	buf     bytes.Buffer
	notes   bytes.Buffer // free-form timing notes, drained to stderr
	tables  []namedTable
	err     error
	elapsed time.Duration
}

// runner registers sections, runs them on a bounded worker pool, and
// assembles the output in registration order so stdout and the CSV files
// are independent of -jobs and of section completion order.
type runner struct {
	outDir   string
	jobs     int
	sections []*section
}

// section registers an experiment; nothing runs until run(). It returns
// the registered section so closures needing access to its note buffer
// can be bound after construction.
func (r *runner) section(id, title string, fn func(emit emitFunc) error) *section {
	s := &section{id: id, title: title, fn: fn}
	r.sections = append(r.sections, s)
	return s
}

// run executes every registered section on the pool, then prints buffered
// section output in registration order, writes CSVs, and prints the timing
// summary to stderr. It reports whether every section succeeded.
func (r *runner) run() bool {
	workers := r.jobs
	if workers < 1 {
		workers = 1
	}
	if workers > len(r.sections) {
		workers = len(r.sections)
	}
	start := time.Now()
	jobs := make(chan *section)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				s.run()
			}
		}()
	}
	for _, s := range r.sections {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)

	ok := true
	for _, s := range r.sections {
		fmt.Printf("== %s ==\n", s.title)
		os.Stdout.Write(s.buf.Bytes())
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "error: %s: %v\n", s.id, s.err)
			ok = false
			continue
		}
		fmt.Println()
		if err := r.writeCSVs(s); err != nil {
			fmt.Fprintf(os.Stderr, "error: %s: %v\n", s.id, err)
			ok = false
		}
	}
	r.timingSummary(wall, workers)
	return ok
}

// run executes one section, rendering its tables into the private buffer.
func (s *section) run() {
	start := time.Now()
	s.err = s.fn(func(name string, t *report.Table) error {
		s.tables = append(s.tables, namedTable{name: name, table: t})
		return t.Render(&s.buf)
	})
	s.elapsed = time.Since(start)
}

// writeCSVs writes a completed section's tables under outDir.
func (r *runner) writeCSVs(s *section) error {
	if r.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	for _, nt := range s.tables {
		f, err := os.Create(filepath.Join(r.outDir, nt.name+".csv"))
		if err != nil {
			return err
		}
		if err := nt.table.CSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// timingSummary prints per-section wall-clock times to stderr — stderr so
// the deterministic stdout stream stays byte-identical across runs — and,
// with -out, mirrors them to timings.csv.
func (r *runner) timingSummary(wall time.Duration, workers int) {
	if len(r.sections) == 0 {
		return
	}
	var sum time.Duration
	fmt.Fprintf(os.Stderr, "section timings (jobs=%d):\n", workers)
	for _, s := range r.sections {
		status := ""
		if s.err != nil {
			status = "  (failed)"
		}
		fmt.Fprintf(os.Stderr, "  %-12s %8.2fs%s\n", s.id, s.elapsed.Seconds(), status)
		for _, line := range strings.Split(strings.TrimRight(s.notes.String(), "\n"), "\n") {
			if line != "" {
				fmt.Fprintf(os.Stderr, "    %s\n", line)
			}
		}
		sum += s.elapsed
	}
	fmt.Fprintf(os.Stderr, "  %-12s %8.2fs (wall %.2fs)\n", "total", sum.Seconds(), wall.Seconds())
	if r.outDir == "" {
		return
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "error: timings: %v\n", err)
		return
	}
	f, err := os.Create(filepath.Join(r.outDir, "timings.csv"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: timings: %v\n", err)
		return
	}
	defer f.Close()
	fmt.Fprintln(f, "section,seconds")
	for _, s := range r.sections {
		fmt.Fprintf(f, "%s,%.3f\n", s.id, s.elapsed.Seconds())
	}
	fmt.Fprintf(f, "total,%.3f\n", sum.Seconds())
}
