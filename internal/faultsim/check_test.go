package faultsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// SavePlan writes the plan as indented JSON.
func SavePlan(path string, p Plan) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// failsLike reports whether the plan still violates at least one
// invariant — the predicate Shrink minimises against.
func failsLike(p Plan) bool {
	res, err := Run(p)
	if err != nil {
		return false // an unrunnable plan is not a reproducer
	}
	return !res.OK()
}

// Shrink minimises a failing plan's fault schedule with ddmin delta
// debugging: it repeatedly tries dropping chunks of faults (halving
// granularity as chunks stop shrinking) and keeps any subset that still
// violates an invariant. Determinism makes each probe exact — the same
// subset either always fails or never does. The returned plan is
// 1-minimal: removing any single remaining fault makes the run pass.
// If p does not fail at all, p is returned unchanged.
func Shrink(p Plan) Plan {
	p = p.Normalize()
	if !failsLike(p) {
		return p
	}
	withFaults := func(fs []Fault) Plan {
		q := p
		q.Faults = append([]Fault(nil), fs...)
		return q
	}
	// The fault-free plan failing means the defect needs no faults at all.
	if len(p.Faults) == 0 || failsLike(withFaults(nil)) {
		return withFaults(nil)
	}
	faults := append([]Fault(nil), p.Faults...)
	n := 2
	for len(faults) >= 2 {
		chunk := (len(faults) + n - 1) / n
		reduced := false
		for start := 0; start < len(faults); start += chunk {
			end := start + chunk
			if end > len(faults) {
				end = len(faults)
			}
			complement := append(append([]Fault(nil), faults[:start]...), faults[end:]...)
			if failsLike(withFaults(complement)) {
				faults = complement
				n = 2
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(faults) {
				break
			}
			n *= 2
			if n > len(faults) {
				n = len(faults)
			}
		}
	}
	return withFaults(faults)
}

// TB is the subset of testing.TB that Check needs, so a test can hand it a
// recorder in place of a real test and read the verdict.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
	Name() string
}

// Check runs the plan and fails t on any invariant violation, first
// shrinking the fault schedule to a minimal reproducer and saving it as
// JSON (to $FAULTSIM_ARTIFACT_DIR when set, else the working directory)
// so the failure replays with `anonsim -faults <file>`.
func Check(t TB, p Plan) *Result {
	t.Helper()
	res, err := Run(p)
	if err != nil {
		t.Fatalf("faultsim: plan unusable: %v", err)
		return nil
	}
	if res.OK() {
		return res
	}
	min := Shrink(p)
	minRes, err := Run(min)
	if err != nil || minRes.OK() {
		// Shrinking must preserve failure; fall back to the original.
		min, minRes = p.Normalize(), res
	}
	path := artifactPath(t.Name(), min.Seed)
	if err := SavePlan(path, min); err != nil {
		t.Logf("faultsim: could not save reproducer: %v", err)
		path = "<unsaved>"
	}
	var report bytes.Buffer
	for _, v := range minRes.Violations {
		fmt.Fprintf(&report, "\n  - %s", v)
	}
	t.Fatalf("faultsim: seed %d violated %d invariant(s) (shrunk to %d of %d faults, reproducer %s):%s",
		p.Seed, len(minRes.Violations), len(min.Faults), len(p.Normalize().Faults), path, report.String())
	return minRes
}

// artifactPath picks where a failing plan is written.
func artifactPath(testName string, seed uint64) string {
	dir := os.Getenv("FAULTSIM_ARTIFACT_DIR")
	if dir == "" {
		dir = "."
	} else {
		os.MkdirAll(dir, 0o755)
	}
	name := fmt.Sprintf("faultsim-%s-seed%d.json", sanitize(testName), seed)
	return filepath.Join(dir, name)
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
