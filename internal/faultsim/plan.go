// Package faultsim is a deterministic fault-injection harness for the
// whole stack: overlay, churn, probing, routing, the forwarding protocol
// and escrow settlement run inside a single-threaded discrete-event world
// (on sim.Engine) whose every source of randomness derives from one
// uint64 seed. A declarative Plan schedules faults — message drops,
// delays and duplicates, peer crashes and restarts mid-batch, inflated
// forwarding claims, settlement double-spends, probe lies — and after the
// run a set of system-wide invariant checkers must hold. Because the
// world is deterministic, the same (plan, seed) produces a byte-identical
// span log on every run, a failing plan replays exactly, and Shrink can
// bisect a fault schedule down to a minimal reproducer.
//
// The protocol and its runtime are the in-process backend's: the world
// runs on a transport.Network whose clock is the world's engine
// (vclock.Engine), so attempt windows, backoff pauses and link latency
// are all events on one queue. The world is one loop over batches and
// their connections; each connection is a ConnectDetail call, as on any
// backend, which runs the engine until the connection has finished, and
// between them the loop runs the engine to the next scheduled step. The
// network hosts a station for every
// online node, carries each message with the plan's latency and refuses
// sends to offline nodes; its driver sends through a fault layer that
// applies the plan's message faults in front of it. The routers,
// payment bank and escrow, churn driver, probe estimators and telemetry
// are the production ones too; only the scheduler is virtual.
package faultsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"p2panon/internal/core"
	"p2panon/internal/dist"
)

// Fault kinds. Message faults (drop, delay, duplicate) match the
// Nth message sent for a given connection; node faults (crash, restart,
// double-deposit, probe-lie) fire at an absolute virtual time; settlement
// faults (inflate, double-spend) apply when their batch settles.
const (
	// FaultDrop discards the matched message instead of delivering it.
	FaultDrop = "drop"
	// FaultDelay delivers the matched message Delay seconds late, so
	// that messages sent after it may overtake it.
	FaultDelay = "delay"
	// FaultDuplicate delivers the matched message twice, the copy Delay
	// seconds after the original.
	FaultDuplicate = "duplicate"
	// FaultCrash forces Node offline at time At (mid-batch peer failure).
	FaultCrash = "crash"
	// FaultRestart brings a crashed/offline Node back online at time At.
	FaultRestart = "restart"
	// FaultInflate pads Node's settlement claim for Batch with Count
	// forged and duplicated receipts (the §5 inflated-forwarding cheat).
	FaultInflate = "inflate"
	// FaultDoubleSpend pays Node's settled payout for Batch a second time,
	// outside the payout rule: the planted defect that proves the
	// conservation checker bites.
	FaultDoubleSpend = "double-spend"
	// FaultDoubleDeposit has Node withdraw a blind token and deposit it
	// twice at time At; the bank must reject the replayed serial.
	FaultDoubleDeposit = "double-deposit"
	// FaultProbeLie pins Node's reported availability to 1.0 from time At
	// on, regardless of what probing observed.
	FaultProbeLie = "probe-lie"
)

// Fault is one scheduled fault. Which fields matter depends on Kind; see
// the Fault* constants.
type Fault struct {
	Kind  string  `json:"kind"`
	At    float64 `json:"at,omitempty"`    // virtual seconds (node faults)
	Node  int     `json:"node,omitempty"`  // target node / forwarder
	Batch int     `json:"batch,omitempty"` // target batch (message + settlement faults)
	Conn  int     `json:"conn,omitempty"`  // target connection (message faults)
	Msg   int     `json:"msg,omitempty"`   // Nth send of that connection, from 1
	Delay float64 `json:"delay,omitempty"` // seconds (delay/duplicate)
	Count int     `json:"count,omitempty"` // junk receipts (inflate)
}

// Plan declares one harness run: the world configuration and the fault
// schedule. The zero value of most fields means "use the default"; call
// Normalize (Run does it for you) to fill them in.
type Plan struct {
	Seed uint64 `json:"seed"`

	// World shape.
	Nodes             int     `json:"nodes,omitempty"`
	Degree            int     `json:"degree,omitempty"`
	MaliciousFraction float64 `json:"malicious_fraction,omitempty"`
	Churn             bool    `json:"churn,omitempty"` // enable session churn

	// Workload.
	Batches int    `json:"batches,omitempty"`
	Conns   int    `json:"conns,omitempty"` // connections per batch (k)
	Budget  int    `json:"budget,omitempty"`
	Router  string `json:"router,omitempty"` // random | utility | utility2

	// Protocol timing, in virtual seconds.
	Latency        float64 `json:"latency,omitempty"`
	AttemptTimeout float64 `json:"attempt_timeout,omitempty"`
	BackoffBase    float64 `json:"backoff_base,omitempty"`
	BackoffMax     float64 `json:"backoff_max,omitempty"`
	MaxAttempts    int     `json:"max_attempts,omitempty"`

	// Incentives.
	Pf      int64 `json:"pf,omitempty"`
	Pr      int64 `json:"pr,omitempty"`
	Opening int64 `json:"opening,omitempty"` // per-account opening balance

	// Probing.
	ProbePeriod float64 `json:"probe_period,omitempty"` // seconds, 0 = default

	// SettleDelay is the virtual time, in seconds, between a batch's close
	// and its settlement; the batch's funds stay in escrow meanwhile.
	SettleDelay float64 `json:"settle_delay,omitempty"`

	// TraceCap bounds the span recorder; the trace-capacity invariant fails
	// if the run records more spans than this.
	TraceCap int `json:"trace_cap,omitempty"`

	// KeyBits sizes the bank's RSA key (small keys keep runs fast; the
	// crypto is exercised, not benchmarked).
	KeyBits int `json:"key_bits,omitempty"`

	Faults []Fault `json:"faults,omitempty"`
}

// routerStrategies maps a plan's router names to the strategies they
// route with.
var routerStrategies = map[string]core.Strategy{
	"random":   core.Random,
	"utility":  core.UtilityI,
	"utility2": core.UtilityII,
}

// Strategy is the routing strategy the plan's Router names.
func (p Plan) Strategy() core.Strategy { return routerStrategies[p.Router] }

// Contract is the plan's incentive contract (P_f, P_r).
func (p Plan) Contract() core.Contract { return core.Contract{Pf: float64(p.Pf), Pr: float64(p.Pr)} }

// Normalize fills zero fields with defaults and returns the plan.
func (p Plan) Normalize() Plan {
	if p.Nodes == 0 {
		p.Nodes = 24
	}
	if p.Degree == 0 {
		p.Degree = 5
	}
	if p.Batches == 0 {
		p.Batches = 3
	}
	if p.Conns == 0 {
		p.Conns = 6
	}
	if p.Budget == 0 {
		p.Budget = 5
	}
	if p.Router == "" {
		p.Router = "utility"
	}
	if p.Latency == 0 {
		p.Latency = 0.01 // 10ms links
	}
	if p.AttemptTimeout == 0 {
		p.AttemptTimeout = 2
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 0.05
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = 0.4
	}
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.Pf == 0 {
		p.Pf = 75
	}
	if p.Pr == 0 {
		p.Pr = 150
	}
	if p.Opening == 0 {
		p.Opening = 1 << 20
	}
	if p.ProbePeriod == 0 {
		p.ProbePeriod = 60
	}
	if p.SettleDelay == 0 {
		p.SettleDelay = 0.5
	}
	if p.TraceCap == 0 {
		p.TraceCap = 1 << 14
	}
	if p.KeyBits == 0 {
		p.KeyBits = 1024
	}
	return p
}

// Validate reports the first configuration error, or nil.
func (p Plan) Validate() error {
	p = p.Normalize()
	if p.Nodes < 4 {
		return fmt.Errorf("faultsim: %d nodes, need at least 4", p.Nodes)
	}
	if p.Degree < 1 {
		return fmt.Errorf("faultsim: degree %d", p.Degree)
	}
	if p.Batches < 1 || p.Conns < 1 || p.Budget < 1 || p.MaxAttempts < 1 || p.TraceCap < 1 || p.ProbePeriod <= 0 {
		return errors.New("faultsim: batches, conns, budget, max_attempts, trace_cap and probe_period must be positive")
	}
	if p.MaliciousFraction < 0 || p.MaliciousFraction > 1 {
		return fmt.Errorf("faultsim: malicious fraction %g", p.MaliciousFraction)
	}
	if _, ok := routerStrategies[p.Router]; !ok {
		return fmt.Errorf("faultsim: unknown router %q", p.Router)
	}
	if p.Latency < 0 || p.AttemptTimeout <= 0 || p.BackoffBase < 0 || p.BackoffMax < 0 {
		return errors.New("faultsim: negative timing parameter")
	}
	if p.Pf < 0 || p.Pr < 0 || p.Opening <= 0 {
		return errors.New("faultsim: bad incentive parameters")
	}
	if p.SettleDelay < 0 {
		return errors.New("faultsim: negative settle delay")
	}
	for i, f := range p.Faults {
		switch f.Kind {
		case FaultDrop, FaultDelay, FaultDuplicate:
			if f.Batch < 1 || f.Conn < 1 || f.Msg < 1 {
				return fmt.Errorf("faultsim: fault %d (%s) needs batch, conn and msg >= 1", i, f.Kind)
			}
		case FaultCrash, FaultRestart, FaultDoubleDeposit, FaultProbeLie:
			if f.At < 0 {
				return fmt.Errorf("faultsim: fault %d (%s) at negative time", i, f.Kind)
			}
		case FaultInflate, FaultDoubleSpend:
			if f.Batch < 1 {
				return fmt.Errorf("faultsim: fault %d (%s) needs batch >= 1", i, f.Kind)
			}
		default:
			return fmt.Errorf("faultsim: fault %d has unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// LoadPlan reads a plan from a JSON file.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	var p Plan
	if err := UnmarshalStrict(data, &p); err != nil {
		return Plan{}, fmt.Errorf("faultsim: parsing %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// UnmarshalStrict is json.Unmarshal that refuses unknown keys, so a plan
// (or a schema embedding one) with a misspelt or retired field fails
// closed instead of running without it. The error names the field.
// Like Unmarshal, it refuses anything but JSON white space after the
// value.
func UnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil || len(bytes.Trim(data[dec.InputOffset():], " \t\r\n")) == 0 {
		return err
	}
	return errors.New("faultsim: data after the top-level JSON value")
}

// GeneratePlan derives a benign noise plan from a seed: churn plus a
// pseudo-random mix of message, node and claim faults that a correct
// system must absorb without violating any invariant. It never schedules
// a double-spend — that fault exists to prove the conservation checker
// bites, not to pass. CI runs GeneratePlan over a seed range.
func GeneratePlan(seed uint64) Plan {
	p := Plan{Seed: seed, Churn: true}.Normalize()
	// An independent generator stream, drawn from no dist.Source: the
	// world consumes the seed itself, and a generated plan never perturbs
	// world randomness.
	rng := dist.SplitMix64(seed ^ 0x6a09e667f3bcc909)
	kinds := []string{
		FaultDrop, FaultDelay, FaultDuplicate,
		FaultCrash, FaultRestart, FaultInflate, FaultDoubleDeposit, FaultProbeLie,
	}
	n := 4 + int(rng.Next()%5) // 4..8 faults
	for i := 0; i < n; i++ {
		kind := kinds[rng.Next()%uint64(len(kinds))]
		f := Fault{Kind: kind}
		switch kind {
		case FaultDrop, FaultDelay, FaultDuplicate:
			f.Batch = 1 + int(rng.Next()%uint64(p.Batches))
			f.Conn = 1 + int(rng.Next()%uint64(p.Conns))
			f.Msg = 1 + int(rng.Next()%6)
			f.Delay = 0.05 + float64(rng.Next()%40)/100 // 0.05..0.44s
		case FaultCrash, FaultRestart, FaultDoubleDeposit, FaultProbeLie:
			f.Node = int(rng.Next() % uint64(p.Nodes))
			f.At = float64(rng.Next() % 120) // inside the first batches
		case FaultInflate:
			f.Batch = 1 + int(rng.Next()%uint64(p.Batches))
			f.Node = int(rng.Next() % uint64(p.Nodes))
			f.Count = 1 + int(rng.Next()%4)
		}
		p.Faults = append(p.Faults, f)
	}
	return p
}
