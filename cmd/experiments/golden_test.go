package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+digestFile+" from this build's run")

// digestFile pins what `experiments -quick -trials 1 -seed 11` prints and
// writes: a change that moves an experiment's output on purpose rewrites
// it with -update, and says why.
const digestFile = "testdata/quick_seed11.sha256"

// outputDigest hashes a run's stdout and then its CSVs in name order, each
// part prefixed by its name and length so that no part can run into the
// next.
func outputDigest(stdout string, csvs map[string]string) string {
	names := make([]string, 0, len(csvs))
	for name := range csvs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	fmt.Fprintf(h, "stdout %d\n%s", len(stdout), stdout)
	for _, name := range names {
		fmt.Fprintf(h, "%s %d\n%s", name, len(csvs[name]), csvs[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runMain invokes main() in-process with the given CLI arguments and
// returns everything it wrote to stdout. Stderr (timings) is discarded:
// it is the one stream allowed to differ between runs.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	oldArgs, oldStdout, oldStderr := os.Args, os.Stdout, os.Stderr
	oldFlags := flag.CommandLine
	defer func() {
		os.Args, os.Stdout, os.Stderr = oldArgs, oldStdout, oldStderr
		flag.CommandLine = oldFlags
	}()
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
	os.Args = append([]string{"experiments"}, args...)

	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Stdout, os.Stderr = outW, devNull

	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(&buf, outR)
	}()
	main()
	outW.Close()
	<-done
	outR.Close()
	return buf.String()
}

// readCSVs returns the name → contents map of every CSV under dir except
// timings.csv, which records real elapsed time and is exempt from the
// determinism guarantee.
func readCSVs(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		if e.Name() == "timings.csv" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestOutputIndependentOfJobs is the parallel-runner golden test: the full
// quick suite at -jobs 8 and -jobs 1 must produce byte-identical stdout
// and byte-identical CSV files for a fixed seed. Any section leaking
// completion-order or worker-count dependence into its output fails here.
// The same run is held to the digest in testdata/quick_seed11.sha256, so
// a change that moves any experiment's output fails here too.
func TestOutputIndependentOfJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	dir8 := t.TempDir()
	dir1 := t.TempDir()
	out8 := runMain(t, "-quick", "-trials", "1", "-seed", "11", "-jobs", "8", "-out", dir8)
	out1 := runMain(t, "-quick", "-trials", "1", "-seed", "11", "-jobs", "1", "-out", dir1)
	if out8 != out1 {
		t.Errorf("stdout differs between -jobs 8 and -jobs 1:\n-jobs 8:\n%s\n-jobs 1:\n%s", out8, out1)
	}
	if out8 == "" {
		t.Fatal("no stdout produced")
	}

	csv8 := readCSVs(t, dir8)
	csv1 := readCSVs(t, dir1)
	if len(csv8) == 0 {
		t.Fatal("no CSV files produced")
	}
	if len(csv8) != len(csv1) {
		t.Fatalf("CSV file count differs: %d vs %d", len(csv8), len(csv1))
	}
	for name, body8 := range csv8 {
		body1, ok := csv1[name]
		if !ok {
			t.Errorf("%s written at -jobs 8 but not -jobs 1", name)
			continue
		}
		if body8 != body1 {
			t.Errorf("%s differs between -jobs 8 and -jobs 1", name)
		}
	}

	got := outputDigest(out1, csv1)
	if *update {
		if err := os.WriteFile(digestFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("output digest %s, want %s: stdout or a CSV moved", got, w)
	}
}

// TestSubsetSelection pins -only filtering through the parallel runner: a
// single selected section produces exactly its own header and CSV.
func TestSubsetSelection(t *testing.T) {
	dir := t.TempDir()
	out := runMain(t, "-quick", "-trials", "1", "-seed", "2", "-only", "fig12", "-jobs", "4", "-out", dir)
	if !bytes.Contains([]byte(out), []byte("== FIG12")) {
		t.Errorf("fig12 section missing from output:\n%s", out)
	}
	if bytes.Contains([]byte(out), []byte("== FIG3")) {
		t.Errorf("unselected section ran:\n%s", out)
	}
	csvs := readCSVs(t, dir)
	if _, ok := csvs["fig12.csv"]; !ok || len(csvs) != 1 {
		t.Errorf("expected exactly fig12.csv, got %v", keys(csvs))
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
