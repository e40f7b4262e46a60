package transport

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/telemetry"
)

func secureSetup(t *testing.T, seed uint64) (*Network, *onion.SignedContract, *onion.BatchKey, Topology) {
	t.Helper()
	topo := buildTopo(25, 6, seed)
	r := NewUtilityRouter(topo, quality.DefaultWeights(), core.ContractWithTau(75, 2), uniformAvail(25))
	n := startNetwork(t, topo, r)
	bk, err := onion.NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	contract, err := onion.NewSignedContract(9, 75, 150, bk.Public())
	if err != nil {
		t.Fatal(err)
	}
	return n, contract, bk, topo
}

// TestConnectSecureRecordsValidate: one secure connection's sealed
// records validate with the batch key, and the path they recreate is the
// one the FORWARD walked, hop by hop.
func TestConnectSecureRecordsValidate(t *testing.T) {
	n, contract, bk, _ := secureSetup(t, 31)
	rec := telemetry.NewSpanRecorder(64)
	n.SetSpans(rec)
	out, err := n.RunSecureBatch(0, 24, contract, bk, 1, 4, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 1 || out.Reformations != 0 {
		t.Fatalf("%d paths after %d reformations, want 1 and 0", len(out.Paths), out.Reformations)
	}
	validated := out.Paths[0]
	observed := make([]overlay.NodeID, len(validated))
	for _, s := range rec.Spans() {
		if (s.Kind == telemetry.SpanHop || s.Kind == telemetry.SpanRespond) && s.Hop < len(observed) {
			observed[s.Hop] = overlay.NodeID(s.Node)
		}
	}
	if len(validated) < 3 || !reflect.DeepEqual(validated, observed) {
		t.Fatalf("validated %v vs observed %v", validated, observed)
	}
}

func TestRunSecureBatchEndToEnd(t *testing.T) {
	n, contract, bk, _ := secureSetup(t, 32)
	out, err := n.RunSecureBatch(0, 24, contract, bk, 10, 4, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Paths) != 10 {
		t.Fatalf("paths %d", len(out.Paths))
	}
	if out.SetSize() == 0 {
		t.Fatal("no forwarders")
	}
	// Forward counts must equal total interior slots across validated
	// paths (the payment basis).
	slots := 0
	for _, p := range out.Paths {
		slots += len(p) - 2
	}
	total := 0
	for _, m := range out.Forwards {
		total += m
	}
	if total != slots {
		t.Fatalf("forward counts %d != interior slots %d", total, slots)
	}
}

// TestConnectSecureRejectsTamperedContract: a tampered or nil contract
// is refused before any message leaves the initiator.
func TestConnectSecureRejectsTamperedContract(t *testing.T) {
	n, contract, bk, _ := secureSetup(t, 33)
	bad := *contract
	bad.Pf = 9999 // breaks the signature
	if _, err := n.RunSecureBatch(0, 24, &bad, bk, 1, 4, time.Second); err == nil {
		t.Fatal("tampered contract accepted")
	} else if !strings.Contains(err.Error(), "signature") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := n.RunSecureBatch(0, 24, nil, bk, 1, 4, time.Second); err == nil {
		t.Fatal("nil contract accepted")
	}
	if m := n.Metrics(); m.Sent != 0 || m.Connects+m.Failures != 0 {
		t.Fatalf("refused contracts put traffic on the network: %+v", m)
	}
}

func TestConnectSecureWrongBatchKeyFailsValidation(t *testing.T) {
	n, contract, _, _ := secureSetup(t, 34)
	other, err := onion.NewBatchKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunSecureBatch(0, 24, contract, other, 1, 4, 5*time.Second); err == nil {
		t.Fatal("wrong batch key validated records")
	}
}

func TestConnectSecureValidationArguments(t *testing.T) {
	n, contract, bk, _ := secureSetup(t, 35)
	if _, err := n.RunSecureBatch(0, 0, contract, bk, 1, 4, time.Second); err == nil {
		t.Fatal("I == R accepted")
	}
	if _, err := n.RunSecureBatch(99, 24, contract, bk, 1, 4, time.Second); err == nil {
		t.Fatal("unknown initiator accepted")
	}
	if _, err := n.RunSecureBatch(0, 24, contract, nil, 1, 4, time.Second); err == nil {
		t.Fatal("nil batch key accepted")
	}
}

func TestSecureAndPlainInterleave(t *testing.T) {
	// Plain and secure connections share the same network and peers.
	n, contract, bk, _ := secureSetup(t, 36)
	if _, _, err := n.ConnectDetail(0, 24, 8, 1, 4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunSecureBatch(0, 24, contract, bk, 1, 4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.ConnectDetail(0, 24, 8, 2, 4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
