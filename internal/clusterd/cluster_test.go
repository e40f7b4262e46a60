package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"p2panon/internal/faultsim"
)

// TestMain doubles as the worker entry point: the orchestrator tests
// re-execute this test binary with CLUSTERD_WORKER_ADDR set, and the
// child runs the worker runtime instead of the test suite — real
// processes, no separate binary to build.
func TestMain(m *testing.M) {
	if addr := os.Getenv("CLUSTERD_WORKER_ADDR"); addr != "" {
		idx, err := strconv.Atoi(os.Getenv("CLUSTERD_WORKER_INDEX"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "clusterd worker:", err)
			os.Exit(1)
		}
		if err := RunWorker(addr, idx); err != nil {
			fmt.Fprintln(os.Stderr, "clusterd worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// selfSpawn re-executes the running test binary as a worker process.
// Spawned commands are recorded so tests can assert they were reaped.
func selfSpawn(t *testing.T, spawned *[]*exec.Cmd) SpawnFunc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	return func(worker int, orchAddr string) (*exec.Cmd, error) {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"CLUSTERD_WORKER_ADDR="+orchAddr,
			"CLUSTERD_WORKER_INDEX="+strconv.Itoa(worker),
		)
		if spawned != nil {
			mu.Lock()
			*spawned = append(*spawned, cmd)
			mu.Unlock()
		}
		return cmd, nil
	}
}

// artifactDir returns a run directory under $CLUSTERD_ARTIFACT_DIR
// when set (CI keeps and uploads it on failure), else a temp dir.
func artifactDir(t *testing.T, name string) string {
	t.Helper()
	root := os.Getenv("CLUSTERD_ARTIFACT_DIR")
	if root == "" {
		return t.TempDir()
	}
	dir := filepath.Join(root, t.Name(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runComposition runs one composition end to end with self-exec
// workers and returns the result plus the spawned commands.
func runComposition(t *testing.T, comp Composition, dir string) (*RunResult, []*exec.Cmd) {
	t.Helper()
	var spawned []*exec.Cmd
	orch := &Orchestrator{Comp: comp, Spawn: selfSpawn(t, &spawned), Dir: dir, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := orch.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res, spawned
}

// runSpans runs one fault-free composition, requires every batch to
// settle with no violation, and returns the merged span log.
func runSpans(t *testing.T, comp Composition, dir string) []byte {
	t.Helper()
	res, _ := runComposition(t, comp, dir)
	for _, b := range res.Batches {
		if b.Failed {
			t.Fatalf("batch %d failed in a fault-free run", b.Batch)
		}
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Spans) == 0 {
		t.Fatal("no spans collected")
	}
	log, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestClusterRunDeterministic runs the same fault-free composition
// twice across 3 real worker processes under each live router and
// requires byte-identical merged span artifacts — the cross-process
// determinism contract. Under random, a 1-worker run differs: each
// process draws from its own copy of the router's stream.
func TestClusterRunDeterministic(t *testing.T) {
	for _, router := range []string{"utility", "random", "utility2"} {
		t.Run(router, func(t *testing.T) {
			comp := Composition{
				Plan:    faultsim.Plan{Seed: 7, Nodes: 9, Batches: 3, Conns: 4, Router: router},
				Workers: 3,
			}
			a := runSpans(t, comp, artifactDir(t, "run1"))
			b := runSpans(t, comp, artifactDir(t, "run2"))
			if !bytes.Equal(a, b) {
				t.Fatalf("merged span logs diverge across runs:\nrun 1: %d bytes\nrun 2: %d bytes", len(a), len(b))
			}
			if router != "random" {
				return
			}
			comp.Workers = 1
			if bytes.Equal(runSpans(t, comp, artifactDir(t, "one")), a) {
				t.Fatal("random routing wrote the same span log in 1 process as in 3")
			}
		})
	}
}

// TestClusterSpansIndependentOfWorkers runs one fault-free Model-I
// composition in one worker process and across three, and requires
// byte-identical merged span logs: every worker builds the same seeded
// world, and σ(s, v) reads only s's own uses, which s's own worker
// records.
func TestClusterSpansIndependentOfWorkers(t *testing.T) {
	comp := Composition{Plan: faultsim.Plan{Seed: 5, Nodes: 12, Batches: 3, Conns: 4}}
	var logs [][]byte
	for _, workers := range []int{1, 3} {
		comp.Workers = workers
		logs = append(logs, runSpans(t, comp, artifactDir(t, fmt.Sprintf("workers-%d", workers))))
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("merged span logs differ between 1 and 3 workers: %d vs %d bytes", len(logs[0]), len(logs[1]))
	}
}

// TestClusterSoakChurn is the seeded soak smoke: a 3-process cluster
// runs a composition whose schedule crashes a forwarder at one batch
// boundary and restarts it at the next, all invariants must hold over
// the merged artifact, the orchestrator must leak no goroutines, and
// every child process must be reaped by the time Run returns.
func TestClusterSoakChurn(t *testing.T) {
	comp := Composition{
		Plan:    faultsim.Plan{Seed: 11, Nodes: 9, Batches: 4, Conns: 3},
		Workers: 3,
	}
	comp = comp.Normalize()
	// Crash a node that is never an initiator or responder, so routing
	// must reform around the corpse but every batch can still settle.
	victim := -1
	pairs := make(map[int]bool)
	for _, spec := range comp.Workload() {
		pairs[int(spec.Initiator)] = true
		pairs[int(spec.Responder)] = true
	}
	for n := 0; n < comp.Nodes; n++ {
		if !pairs[n] {
			victim = n
			break
		}
	}
	if victim < 0 {
		t.Fatal("no forwarder-only node under this seed; pick another")
	}
	comp.Faults = []faultsim.Fault{
		{Kind: faultsim.FaultCrash, At: 1, Node: victim},   // boundary 2
		{Kind: faultsim.FaultRestart, At: 2, Node: victim}, // boundary 3
	}

	before := runtime.NumGoroutine()
	res, spawned := runComposition(t, comp, artifactDir(t, "soak"))

	if len(spawned) != comp.Workers {
		t.Fatalf("spawned %d workers, want %d", len(spawned), comp.Workers)
	}
	for i, cmd := range spawned {
		if cmd.ProcessState == nil {
			t.Fatalf("worker %d not reaped", i)
		}
	}
	if len(res.Batches) != comp.Batches {
		t.Fatalf("got %d batch results, want %d", len(res.Batches), comp.Batches)
	}
	for _, b := range res.Batches {
		if b.Failed {
			t.Errorf("batch %d (%d→%d) failed under churn", b.Batch, b.Initiator, b.Responder)
		}
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d spans dropped", res.Dropped)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines before=%d after=%d; dump:\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterReportsDroppedSpans overflows every worker's recorder (cap 4)
// and requires the loss to reach the merged artifact: each worker's
// dropped-span count is a mandatory upload, so the run reports Dropped > 0
// and the trace-capacity violation instead of judging a truncated log.
func TestClusterReportsDroppedSpans(t *testing.T) {
	comp := Composition{
		Plan:    faultsim.Plan{Seed: 11, Nodes: 9, Batches: 2, Conns: 3, TraceCap: 4},
		Workers: 3,
	}
	res, _ := runComposition(t, comp, "")
	if res.Dropped == 0 {
		t.Fatalf("3 workers recording into cap-4 recorders merged %d spans yet reported no drops", len(res.Spans))
	}
	for _, v := range res.Violations {
		if v.Invariant == faultsim.InvTraceCapacity {
			return
		}
	}
	t.Fatalf("dropped=%d but no %s violation: %v", res.Dropped, faultsim.InvTraceCapacity, res.Violations)
}

// TestClusterRunReportsArtifactWriteError: an artifact file that cannot
// be written fails the run, so no caller reads a verdict whose
// results.json is not there. A directory squats on that name.
func TestClusterRunReportsArtifactWriteError(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "results.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	comp := Composition{
		Plan:    faultsim.Plan{Seed: 7, Nodes: 6, Batches: 1, Conns: 2},
		Workers: 2,
	}
	orch := &Orchestrator{Comp: comp, Spawn: selfSpawn(t, nil), Dir: dir, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := orch.Run(ctx)
	if err == nil {
		t.Fatalf("run with an unwritable results.json succeeded: %d batches, %d violations", len(res.Batches), len(res.Violations))
	}
	if !strings.Contains(err.Error(), "results.json") {
		t.Fatalf("run failed with %v, want the results.json write error", err)
	}
}

// TestClusterOrphansExitWhenOrchestratorDies pins the self-reaping
// property: a worker whose control connection dies exits on its own,
// with no orchestrator left to kill it.
func TestClusterOrphansExitWhenOrchestratorDies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var spawned []*exec.Cmd
	spawn := selfSpawn(t, &spawned)
	cmd, err := spawn(0, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if m, _, err := ReadMsg(conn); err != nil || m.Kind != MsgHello {
		t.Fatalf("hello: %v", err)
	}
	// The orchestrator "crashes": the control connection just dies.
	conn.Close()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
		// Exited on its own — exit status does not matter, only that it
		// did not linger.
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("worker outlived its orchestrator")
	}
}

// TestCompositionWorkload pins the derived schedule: a pure function
// of the composition, identically derived by every process.
func TestCompositionWorkload(t *testing.T) {
	comp := Composition{Plan: faultsim.Plan{Seed: 7, Nodes: 9, Batches: 5}}.Normalize()
	a, b := comp.Workload(), comp.Workload()
	if len(a) != 5 {
		t.Fatalf("%d specs, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Initiator == a[i].Responder {
			t.Fatalf("spec %d: initiator = responder = %d", i, a[i].Initiator)
		}
		if a[i].Batch != i+1 {
			t.Fatalf("spec %d: batch %d", i, a[i].Batch)
		}
	}
	other := Composition{Plan: faultsim.Plan{Seed: 8, Nodes: 9, Batches: 5}}.Normalize().Workload()
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds derived identical schedules")
	}
}

// TestCompositionOwnership pins the node partition: every node has
// exactly one owner, and AssignedNodes inverts Owner.
func TestCompositionOwnership(t *testing.T) {
	comp := Composition{Plan: faultsim.Plan{Nodes: 10}, Workers: 3}.Normalize()
	seen := make(map[int]int)
	for w := 0; w < comp.Workers; w++ {
		for _, n := range comp.AssignedNodes(w) {
			if comp.Owner(n) != w {
				t.Fatalf("node %d assigned to %d but owned by %d", n, w, comp.Owner(n))
			}
			seen[n]++
		}
	}
	if len(seen) != comp.Nodes {
		t.Fatalf("assignment covers %d nodes, want %d", len(seen), comp.Nodes)
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %d assigned %d times", n, c)
		}
	}
}

// TestCompositionValidate pins the configuration errors.
func TestCompositionValidate(t *testing.T) {
	base := faultsim.Plan{Nodes: 6}
	with := func(edit func(*faultsim.Plan)) faultsim.Plan {
		p := base
		edit(&p)
		return p
	}
	withFaults := func(fs ...faultsim.Fault) Composition {
		return Composition{Plan: with(func(p *faultsim.Plan) { p.Faults = fs })}
	}
	type testCase struct {
		name  string
		comp  Composition
		ok    bool
		names string // a refusal's error names this field or fault kind
	}
	cases := []testCase{
		{"defaults", Composition{Plan: base}, true, ""},
		{"too many workers", Composition{Plan: base, Workers: 65}, false, ""},
		{"unknown router", Composition{Plan: with(func(p *faultsim.Plan) { p.Router = "ring" })}, false, "ring"},
		{"churn", Composition{Plan: with(func(p *faultsim.Plan) { p.Churn = true })}, false, "churn"},
		{"malicious nodes", Composition{Plan: with(func(p *faultsim.Plan) { p.MaliciousFraction = 0.2 })}, false, "malicious_fraction"},
		{"crash and restart", withFaults(faultsim.Fault{Kind: faultsim.FaultCrash, At: 1, Node: 2},
			faultsim.Fault{Kind: faultsim.FaultRestart, At: 2, Node: 2}), true, ""},
	}
	// Every fault the single-process world applies but the cluster cannot
	// is refused by kind.
	for _, f := range []faultsim.Fault{
		{Kind: faultsim.FaultDrop, Batch: 1, Conn: 1, Msg: 1},
		{Kind: faultsim.FaultDelay, Batch: 1, Conn: 1, Msg: 1, Delay: 0.1},
		{Kind: faultsim.FaultDuplicate, Batch: 1, Conn: 1, Msg: 1},
		{Kind: faultsim.FaultReorder, Batch: 1, Conn: 1, Msg: 1, Delay: 0.1},
		{Kind: faultsim.FaultDoubleDeposit, At: 1, Node: 2},
		{Kind: faultsim.FaultProbeLie, At: 1, Node: 2},
		{Kind: faultsim.FaultInflate, Batch: 1, Node: 2},
		{Kind: faultsim.FaultDoubleSpend, Batch: 1},
	} {
		cases = append(cases, testCase{string(f.Kind), withFaults(f), false, string(f.Kind)})
	}
	for _, tc := range cases {
		err := tc.comp.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), tc.names)) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.names)
		}
	}
}

// TestCompositionJSONRoundTrip pins the declarative schema: the plan
// fields inline beside workers, and load validates.
func TestCompositionJSONRoundTrip(t *testing.T) {
	comp := Composition{
		Plan:    faultsim.Plan{Seed: 3, Nodes: 6, Batches: 2},
		Workers: 3,
	}
	path := filepath.Join(t.TempDir(), "comp.json")
	data, err := json.MarshalIndent(comp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	if _, nested := flat["Plan"]; nested {
		t.Fatal("plan fields not inlined in composition JSON")
	}
	if flat["seed"] != float64(3) || flat["workers"] != float64(3) {
		t.Fatalf("schema fields missing: %v", flat)
	}
	got, err := LoadComposition(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != comp.Seed || got.Workers != comp.Workers {
		t.Fatalf("round trip: %+v", got)
	}
}

// TestUnknownFieldsRefused pins the fail-closed schema: a composition
// that still declares the retired "links" field, a plan with a misspelt
// field, and a worker's config carrying either are refused with an
// error naming the field, never run without it.
func TestUnknownFieldsRefused(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const links = `{"seed": 3, "nodes": 6, "workers": 3, "links": [{"from": 0, "to": 1, "drop": true}]}`
	const misspelt = `{"seed": 3, "nodes": 6, "batchs": 2}`
	refused := func(what string, err error, field string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("%s: got %v, want an error naming %q", what, err, field)
		}
	}
	_, err := LoadComposition(write("links.json", links))
	refused("composition with links", err, "links")
	_, err = LoadComposition(write("misspelt-comp.json", misspelt))
	refused("composition with misspelt field", err, "batchs")
	_, err = faultsim.LoadPlan(write("misspelt-plan.json", misspelt))
	refused("plan with misspelt field", err, "batchs")
	_, err = faultsim.LoadPlan(write("trailing.json", `{"seed": 3} {}`))
	if err == nil {
		t.Error("plan with trailing data accepted")
	}

	// The worker decodes its MsgConfig the same way and reports why.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- RunWorker(ln.Addr().String(), 0) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if m, _, err := ReadMsg(conn); err != nil || m.Kind != MsgHello {
		t.Fatalf("hello: %v", err)
	}
	if _, err := WriteMsg(conn, &Msg{Kind: MsgConfig, Worker: 0, Workers: 3, Comp: []byte(links)}); err != nil {
		t.Fatal(err)
	}
	m, _, err := ReadMsg(conn)
	if err != nil || m.Kind != MsgError || !strings.Contains(m.Text, `"links"`) {
		t.Fatalf("worker answered a config with links by %+v (%v), want an error naming the field", m, err)
	}
	refused("worker config with links", <-done, "links")
}

// TestFaultBoundary pins the fold from virtual fault times onto batch
// boundaries.
func TestFaultBoundary(t *testing.T) {
	comp := Composition{Plan: faultsim.Plan{Nodes: 6, Batches: 4, Faults: []faultsim.Fault{
		{Kind: faultsim.FaultCrash, At: 1, Node: 2},
		{Kind: faultsim.FaultRestart, At: 2, Node: 2},
		{Kind: faultsim.FaultCrash, At: 5, Node: 3}, // 1 + 5%4 = 2
	}}}.Normalize()
	if fs := comp.BoundaryFaults(2); len(fs) != 2 || fs[0].Node != 2 || fs[1].Node != 3 {
		t.Fatalf("boundary 2: %+v", fs)
	}
	if fs := comp.BoundaryFaults(3); len(fs) != 1 || fs[0].Kind != faultsim.FaultRestart {
		t.Fatalf("boundary 3: %+v", fs)
	}
	if fs := comp.BoundaryFaults(1); len(fs) != 0 {
		t.Fatalf("boundary 1: %+v", fs)
	}
}
