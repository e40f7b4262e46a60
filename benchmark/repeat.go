package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// -repeat SETSxRUNS is the benchmark's own noise check: it runs every
// workload RUNS times in each of SETS sets of the same code, one child
// process per run (peak RSS is per process), workloads interleaved so
// that slow drift of the box lands on all of them alike. Run r of every
// set uses seed base+r, so runs within a set differ the way the driver's
// do and the same run of two sets must produce the same transcript.
//
// Per metric it prints each set's median and quartile spread and the gap
// between the first and the last set's medians, fails if a gap exceeds
// the metric's bound, and writes what it saw to BASELINE.json.

// spreadStat is one metric of one workload across one set's runs.
type spreadStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"iqr_over_median"`
}

type baselineMetric struct {
	Unit  string       `json:"unit"`
	Bound float64      `json:"bound"`
	Sets  []spreadStat `json:"sets"`
	// Gap is how much worse the last set's median is than the first's,
	// as a share of the first (negative when it is better).
	Gap float64 `json:"gap"`
}

type baselineFile struct {
	Sets      int                                  `json:"sets"`
	Runs      int                                  `json:"runs_per_set"`
	Seconds   float64                              `json:"seconds"`
	BaseSeed  uint64                               `json:"base_seed"`
	Workloads map[string]map[string]baselineMetric `json:"workloads"`
}

func runRepeat(arg string, baseSeed uint64, seconds float64, baselinePath string) error {
	setsStr, runsStr, ok := strings.Cut(arg, "x")
	sets, err1 := strconv.Atoi(setsStr)
	runs, err2 := strconv.Atoi(runsStr)
	if !ok || err1 != nil || err2 != nil || sets < 2 || runs < 2 {
		return fmt.Errorf("-repeat wants SETSxRUNS with both at least 2, got %q", arg)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// values[workload][metric][set] = one value per run
	values := make(map[string]map[string][][]float64)
	transcripts := make(map[string][]string) // workload → per run, from the first set
	for _, wl := range workloads {
		values[wl.Name] = make(map[string][][]float64)
		for _, m := range endToEnd {
			values[wl.Name][m.Name] = make([][]float64, sets)
		}
		transcripts[wl.Name] = make([]string, runs)
	}
	for set := 0; set < sets; set++ {
		for run := 0; run < runs; run++ {
			for _, wl := range workloads {
				seed := baseSeed + uint64(run)
				rep, err := runChild(self, wl.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("set %d run %d %s: %w", set, run, wl.Name, err)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %-17s window %.1fs conns/s %.1f\n",
					set, run, wl.Name, rep.WindowS, rep.EndToEnd["conns_per_s"])
				if set == 0 {
					transcripts[wl.Name][run] = rep.Transcript
				} else if rep.Transcript != transcripts[wl.Name][run] {
					return fmt.Errorf("%s seed %d: transcript differs between set 0 and set %d", wl.Name, seed, set)
				}
				for _, m := range endToEnd {
					values[wl.Name][m.Name][set] = append(values[wl.Name][m.Name][set], rep.EndToEnd[m.Name])
				}
			}
		}
	}

	base := baselineFile{Sets: sets, Runs: runs, Seconds: seconds, BaseSeed: baseSeed,
		Workloads: make(map[string]map[string]baselineMetric)}
	var exceeded []string
	for _, wl := range workloads {
		base.Workloads[wl.Name] = make(map[string]baselineMetric)
		for _, m := range endToEnd {
			bm := baselineMetric{Unit: m.Unit, Bound: m.Bound}
			for set := 0; set < sets; set++ {
				bm.Sets = append(bm.Sets, spreadOf(values[wl.Name][m.Name][set]))
			}
			first, last := bm.Sets[0].Median, bm.Sets[sets-1].Median
			bm.Gap = (last - first) / first
			if m.Better == "higher" {
				bm.Gap = -bm.Gap
			}
			base.Workloads[wl.Name][m.Name] = bm
			fmt.Printf("%-17s %-16s median %12.4f %-5s spread %5.2f%%  gap %+6.2f%%  bound %4.1f%%\n",
				wl.Name, m.Name, first, m.Unit, 100*bm.Sets[0].Spread, 100*bm.Gap, 100*m.Bound)
			if bm.Gap > m.Bound {
				exceeded = append(exceeded, wl.Name+"/"+m.Name)
			}
		}
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(exceeded) > 0 {
		return fmt.Errorf("identical code moved past its own bound on %s", strings.Join(exceeded, ", "))
	}
	return nil
}

// runChild runs one untraced workload in a child process and parses the
// report line it prints before the result line.
func runChild(self, workload string, seed uint64, seconds float64) (*report, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("child printed %d lines", len(lines))
	}
	var rep report
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		return nil, fmt.Errorf("parsing child report: %w", err)
	}
	return &rep, nil
}

// spreadOf returns the median and quartiles of xs, the quartiles computed
// like Python's statistics.quantiles(xs, n=4) (exclusive method), which
// is what the benchmark driver uses.
func spreadOf(xs []float64) spreadStat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	st := spreadStat{Median: median(s), Q1: q(0.25), Q3: q(0.75)}
	st.Spread = (st.Q3 - st.Q1) / st.Median
	return st
}
