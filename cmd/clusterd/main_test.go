package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself when CLUSTERD_TEST_MAIN is set, so a
// test can run it as a process of its own, with its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CLUSTERD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLoadErrorPrefixedOnce runs the command on a composition naming a
// fault the cluster cannot apply: it exits 2 with one line of error
// under one "clusterd: " prefix.
func TestLoadErrorPrefixedOnce(t *testing.T) {
	comp := filepath.Join(t.TempDir(), "drop.json")
	if err := os.WriteFile(comp, []byte(`{"seed": 7, "nodes": 9, "faults": [{"kind": "drop", "batch": 1, "conn": 1, "msg": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-comp", comp)
	cmd.Env = append(os.Environ(), "CLUSTERD_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2; stderr %q", err, stderr.String())
	}
	want := "clusterd: fault 0 (drop) is not supported by the cluster, only crash and restart\n"
	if got := stderr.String(); got != want {
		t.Fatalf("stderr %q, want %q", got, want)
	}
}
