package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// small runs a workload at about 1/100 of its benchmark size.
func small(t *testing.T, workload string, seed uint64, trace bool) *report {
	t.Helper()
	rep, err := runWorkload(config{
		workload: workload, seed: seed, seconds: referenceSeconds / 100.0,
		warmup: 0.01, setups: 1, trace: trace, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d: %s", workload, rep.Attempted, rep.Failed, rep.Error)
	}
	return rep
}

// TestWorkloads runs every workload small, untraced and traced, and checks
// that each reports every metric of its list under a well-formed name, no
// failed operation, and a transcript that depends on the seed and on
// nothing else. No timing is asserted.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			rep := small(t, wl.Name, 1, false)
			res := resultOf(rep)
			if !res.Correct || len(res.Metrics) != len(endToEnd) {
				t.Fatalf("result %+v", res)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if again := small(t, wl.Name, 1, false); again.Transcript != rep.Transcript {
				t.Errorf("seed 1 gave transcripts %s and %s", rep.Transcript, again.Transcript)
			}
			if other := small(t, wl.Name, 2, false); other.Transcript == rep.Transcript {
				t.Errorf("seeds 1 and 2 gave the same transcript %s", rep.Transcript)
			}

			traced := resultOf(small(t, wl.Name, 1, true))
			if len(traced.Metrics) != len(perLayer) {
				t.Fatalf("traced run reported %d metrics, want %d", len(traced.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, must0 := range []string{"transport.reformations_per_conn", "payment.rejected_receipts"} {
				if v := traced.Metrics[must0].Value; v != 0 {
					t.Errorf("%s = %v in a fault-free run", must0, v)
				}
			}
		})
	}
}

// TestMatchesBenchmarkJSON pins the tables in spec.go to BENCHMARK.json.
func TestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds != referenceSeconds {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.Name || doc.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: %+v vs %s", i, doc.Workloads[i], wl.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
