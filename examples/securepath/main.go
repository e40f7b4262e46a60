// Securepath runs a batch under the §5 protocol on live peers: the
// initiator publishes a *signed* contract carrying an ephemeral batch key,
// every forwarder verifies the contract and seals a path record to that
// key, and the initiator recreates and validates each path from the
// records (transport.RunSecureBatch). A contract altered after signing is
// refused before any traffic.
package main

import (
	"fmt"
	"log"
	"time"

	"p2panon/internal/core"
	"p2panon/internal/dist"
	"p2panon/internal/onion"
	"p2panon/internal/overlay"
	"p2panon/internal/quality"
	"p2panon/internal/transport"
)

func main() {
	rng := dist.NewSource(31337)

	// Overlay, snapshotted into in-process peers routing by Utility Model I.
	net := overlay.NewNetwork(5, rng.Split())
	const n = 25
	for i := 0; i < n; i++ {
		net.Join(0, false)
	}
	for _, id := range net.AllIDs() {
		net.RefreshNeighbors(id)
	}
	topo := transport.SnapshotTopology(net)
	avail := make(map[overlay.NodeID]float64, n)
	for id := range topo {
		avail[id] = 1.0 / n
	}
	contractVals := core.Contract{Pf: 75, Pr: 150}
	router := transport.NewUtilityRouter(topo, quality.DefaultWeights(), contractVals, avail)
	live := transport.NewNetwork(0)
	defer live.Close()
	for id := range topo {
		if err := live.Join(id, router); err != nil {
			log.Fatal(err)
		}
	}

	// The initiator mints a batch key and signs the contract under a
	// fresh pseudonym.
	const initiator, responder = overlay.NodeID(0), overlay.NodeID(24)
	batchKey, err := onion.NewBatchKey(nil)
	if err != nil {
		log.Fatal(err)
	}
	contract, err := onion.NewSignedContract(1, contractVals.Pf, contractVals.Pr, batchKey.Public())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contract signed under pseudonym; verifies: %v (P_f=%g, P_r=%g)\n\n",
		contract.Verify(), contract.Pf, contract.Pr)

	// Every path in the outcome was recreated from the forwarders' sealed
	// records and validated; a failed validation would abort the batch.
	const k = 5
	out, err := live.RunSecureBatch(initiator, responder, contract, batchKey, k, 5, 10*time.Second)
	if err != nil {
		log.Fatalf("secure batch: %v", err)
	}
	for c, path := range out.Paths {
		fmt.Printf("connection %d: validated path %v\n", c+1, path)
	}
	fmt.Printf("\n%d connections validated, ‖π‖ = %d\n", len(out.Paths), out.SetSize())

	// Raising P_f after signing breaks the signature: the batch is refused
	// before a single FORWARD leaves the initiator.
	tampered := *contract
	tampered.Pf *= 2
	_, err = live.RunSecureBatch(initiator, responder, &tampered, batchKey, 1, 5, time.Second)
	if err == nil {
		log.Fatal("tampered contract was accepted")
	}
	fmt.Printf("tampered contract (P_f=%g) refused: %v\n", tampered.Pf, err)
}
