package transport

import (
	"errors"
	"fmt"
	"time"

	"p2panon/internal/onion"
	"p2panon/internal/overlay"
)

// SecureOutcome is one connection's result under the §5 protocol: the
// realised path plus the sealed per-hop records that travelled back with
// the confirmation, ready for initiator-side validation.
type SecureOutcome struct {
	Path    []overlay.NodeID
	Records []onion.PathRecord
}

// ConnectSecure runs one connection under a signed contract: every
// forwarder verifies the contract before doing work and seals a path
// record to the contract's batch key; the confirmation carries the records
// back to the initiator. The caller (holding the batch private key)
// validates with onion.BatchKey.RecreatePath. Mid-path departures are
// retried per the RetryPolicy; a forwarder's contract rejection
// is NACKed back and fails the connection immediately (fatal — no
// reformation fixes a bad contract).
func (d *Driver) ConnectSecure(initiator, responder overlay.NodeID, contract *onion.SignedContract, conn, budget int, timeout time.Duration) (*SecureOutcome, error) {
	if contract == nil {
		return nil, errors.New("transport: nil contract")
	}
	if !contract.Verify() {
		return nil, errors.New("transport: contract signature invalid")
	}
	res := d.connect(initiator, responder, int(contract.BatchID), conn, budget, timeout, contract)
	if res.Err != nil {
		return nil, res.Err
	}
	return &SecureOutcome{Path: res.Path, Records: res.Records}, nil
}

// RunSecureBatch runs k secure connections, validates every one with the
// batch key, and aggregates. A validation failure aborts the batch — a
// deployment would withhold payment instead.
func (d *Driver) RunSecureBatch(initiator, responder overlay.NodeID, contract *onion.SignedContract, bk *onion.BatchKey, k, budget int, timeout time.Duration) (*BatchOutcome, error) {
	if bk == nil {
		return nil, errors.New("transport: nil batch key")
	}
	if contract == nil {
		return nil, errors.New("transport: nil contract")
	}
	if !contract.Verify() {
		return nil, errors.New("transport: contract signature invalid")
	}
	out := NewBatchOutcome()
	for conn := 1; conn <= k; conn++ {
		res := d.connect(initiator, responder, int(contract.BatchID), conn, budget, timeout, contract)
		out.Reformations += res.Reformations
		if res.Err != nil {
			return out, res.Err
		}
		validated, err := bk.RecreatePath(contract, uint64(conn), initiator, responder, res.Records)
		if err != nil {
			return out, fmt.Errorf("transport: connection %d failed validation: %w", conn, err)
		}
		if len(validated) != len(res.Path) {
			return out, fmt.Errorf("transport: connection %d: validated path length %d != observed %d",
				conn, len(validated), len(res.Path))
		}
		out.Record(validated, initiator)
	}
	return out, nil
}
