package faultsim

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/seeded_plans.txt from this build's runs")

// digestFile pins, per seed, what a run of GeneratePlan(seed) produced.
const digestFile = "testdata/seeded_plans.txt"

// digestSeeds is the seed range CI's sweep runs.
const digestSeeds = 40

// runDigest hashes everything one run reports: its span log as
// SpanJSONL renders it, and the plan, violations and counters of its
// Result.
func runDigest(r *Result) string {
	rest := *r
	rest.Spans = nil
	counters, err := json.Marshal(rest)
	if err != nil {
		panic(err)
	}
	h := sha256.New()
	h.Write(r.SpanJSONL())
	h.Write(counters)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSeededPlansDigests holds the fault world to the runs it pinned: for
// GeneratePlan(1…40), the span log, the violation list and the Result
// counters hash to the digests in testdata/seeded_plans.txt. A change
// that moves a run on purpose rewrites them with -update, and says why.
func TestSeededPlansDigests(t *testing.T) {
	var got strings.Builder
	for seed := uint64(1); seed <= digestSeeds; seed++ {
		res, err := Run(GeneratePlan(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&got, "%d %s\n", seed, runDigest(res))
	}
	if *update {
		if err := os.WriteFile(digestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digests, want %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest moved: got %q, want %q", gotLines[i], wantLines[i])
		}
	}
}
