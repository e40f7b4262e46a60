package transport

import (
	"errors"
	"fmt"
	"time"

	"p2panon/internal/onion"
	"p2panon/internal/overlay"
)

// RunSecureBatch runs k connections under a signed contract: every
// forwarder verifies the contract before doing work and seals a path
// record to the contract's batch key, and the confirmation carries the
// records back. A nil or unverifiable contract is refused before any
// traffic; a forwarder's rejection is NACKed back and fails the
// connection at once (no reformation fixes a bad contract). Every
// connection is validated with the batch key and aggregated; a
// validation failure aborts the batch — a deployment would withhold
// payment instead.
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
