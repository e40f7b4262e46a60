package clusterd

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"p2panon/internal/dist"
	"p2panon/internal/faultsim"
	"p2panon/internal/overlay"
	"p2panon/internal/transport"
)

// Composition declares one multi-process cluster run: the faultsim Plan
// schema for world shape, routing strategy, workload, timing, incentives
// and the fault schedule, plus the process count. Every worker builds the
// same seeded static world (transport.StaticWorld over Seed, Nodes and
// Degree) and routes with the live router that Router names, under the
// contract (Pf, Pr).
// The cluster runs on batch boundaries, not a virtual clock, so of the
// plan's faults it applies crashes and restarts only; Validate refuses
// the rest, session churn and malicious nodes rather than run without
// them.
type Composition struct {
	faultsim.Plan
	Workers int `json:"workers,omitempty"`
}

// Normalize fills zero fields with the plan's defaults and three workers.
func (c Composition) Normalize() Composition {
	c.Plan = c.Plan.Normalize()
	if c.Workers == 0 {
		c.Workers = 3
	}
	return c
}

// Validate reports the first configuration error, or nil.
func (c Composition) Validate() error {
	c = c.Normalize()
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 || c.Workers > 64 {
		return fmt.Errorf("clusterd: %d workers, want 1..64", c.Workers)
	}
	if c.Churn {
		return errors.New("clusterd: churn is not supported by the cluster")
	}
	if c.MaliciousFraction > 0 {
		return fmt.Errorf("clusterd: malicious_fraction %g is not supported by the cluster", c.MaliciousFraction)
	}
	for i, f := range c.Faults {
		if f.Kind != faultsim.FaultCrash && f.Kind != faultsim.FaultRestart {
			return fmt.Errorf("clusterd: fault %d (%s) is not supported by the cluster, only crash and restart", i, f.Kind)
		}
	}
	return nil
}

// Owner maps a node to the worker process hosting it (round-robin).
// Both sides derive the assignment, so it never travels on the wire.
func (c Composition) Owner(node int) int { return node % c.Workers }

// AssignedNodes lists the nodes worker w hosts, ascending.
func (c Composition) AssignedNodes(w int) []int {
	var out []int
	for n := w; n < c.Nodes; n += c.Workers {
		out = append(out, n)
	}
	return out
}

// Retry derives the transport retry policy from the plan's timing
// fields (virtual seconds become real seconds on the cluster clock).
func (c Composition) Retry() transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: c.MaxAttempts,
		BaseBackoff: time.Duration(c.BackoffBase * float64(time.Second)),
		MaxBackoff:  time.Duration(c.BackoffMax * float64(time.Second)),
	}
}

// BatchSpec is one derived batch of the workload: who connects to whom,
// how many connections, under what budget and deadline.
type BatchSpec struct {
	Batch     int
	Initiator overlay.NodeID
	Responder overlay.NodeID
	Conns     int
	Budget    int
	Timeout   time.Duration
}

// Workload derives the run's batch schedule from the seed: every worker
// computes the same schedule independently, the orchestrator only
// coordinates when each batch starts. The (I, R) stream is its own
// splitmix64 stream, independent of the faultsim world's and the plan
// generator's, so the schedule is a pure function of the composition.
func (c Composition) Workload() []BatchSpec {
	rng := dist.SplitMix64(c.Seed ^ 0x9e3779b97f4a7c15)
	timeout := time.Duration(c.AttemptTimeout * float64(c.MaxAttempts) * float64(time.Second))
	specs := make([]BatchSpec, 0, c.Batches)
	for b := 1; b <= c.Batches; b++ {
		i := int(rng.Next() % uint64(c.Nodes))
		r := int(rng.Next() % uint64(c.Nodes-1))
		if r >= i {
			r++
		}
		specs = append(specs, BatchSpec{
			Batch:     b,
			Initiator: overlay.NodeID(i),
			Responder: overlay.NodeID(r),
			Conns:     c.Conns,
			Budget:    c.Budget,
			Timeout:   timeout,
		})
	}
	return specs
}

// FaultBoundary maps a node fault's virtual time onto the batch
// boundary it applies before: the cluster runs on barriers, not a
// virtual clock, so At is folded onto 1..Batches deterministically.
func (c Composition) FaultBoundary(f faultsim.Fault) int {
	return 1 + int(f.At)%c.Batches
}

// BoundaryFaults returns the faults applying before batch b, in schedule
// order; Validate admits crashes and restarts only.
func (c Composition) BoundaryFaults(b int) []faultsim.Fault {
	var out []faultsim.Fault
	for _, f := range c.Faults {
		if c.FaultBoundary(f) == b {
			out = append(out, f)
		}
	}
	return out
}

// LoadComposition reads and validates a composition JSON file.
func LoadComposition(path string) (Composition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Composition{}, err
	}
	var c Composition
	if err := faultsim.UnmarshalStrict(data, &c); err != nil {
		return Composition{}, fmt.Errorf("clusterd: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return Composition{}, err
	}
	return c, nil
}

// sortedAddrEntries renders a directory map canonically for the wire.
func sortedAddrEntries(m map[int]string) []AddrEntry {
	out := make([]AddrEntry, 0, len(m))
	for n, a := range m {
		out = append(out, AddrEntry{Node: n, Addr: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
