package payment

import (
	"fmt"
	"testing"
)

// BenchmarkSettlementThroughput times the settlement pipeline end to end
// at N = 10²..10⁵ receipts per epoch, m receipts per forwarder claim.
// One op is a full epoch: decode the claims off their wire form, open the
// escrow, settle, refund. Three tiers:
//
//   - serial:     one-shard bank (the old global-lock semantics), one
//     verify worker, per-receipt claims through CountValid —
//     the pre-pipeline baseline;
//   - sharded:    DefaultShards bank, same per-receipt claims — isolates
//     the lock sharding;
//   - aggregated: DefaultShards bank, one AggregateClaim per forwarder
//     through the receipt-MAC chain — the full fast path
//     (16B/entry wire, one reused HMAC, no dedup map).
//
// The headline custom metric is settlements/sec — receipts settled per
// wall second; CI gates the N=10⁴ tiers via BENCH_PR9.json.
func BenchmarkSettlementThroughput(b *testing.B) {
	const perClaim = 32 // receipts per forwarder (m)
	for _, n := range []int{100, 1_000, 10_000, 100_000} {
		for _, tier := range []string{"serial", "sharded", "aggregated"} {
			b.Run(fmt.Sprintf("N=%d/%s", n, tier), func(b *testing.B) {
				benchSettle(b, n, perClaim, tier)
			})
		}
	}
}

func benchSettle(b *testing.B, n, perClaim int, tier string) {
	shards := DefaultShards
	if tier == "serial" {
		shards = 1
	}
	bank, err := NewBankShards(1024, shards)
	if err != nil {
		b.Fatal(err)
	}
	if tier == "serial" {
		bank.setPoolWidth(1)
	}
	m, err := NewReceiptMinter([]byte("bench-settlement-secret"))
	if err != nil {
		b.Fatal(err)
	}

	const initiator = AccountID(1)
	// The initiator bankrolls every epoch of the run; forwarders start
	// empty and only accumulate payouts.
	if err := bank.OpenAccount(initiator, 1<<40); err != nil {
		b.Fatal(err)
	}
	forwarders := n / perClaim
	if forwarders == 0 {
		forwarders = 1
	}
	for f := 0; f < forwarders; f++ {
		if err := bank.OpenAccount(AccountID(100+f), 0); err != nil {
			b.Fatal(err)
		}
	}

	// Mint the epoch's receipts once and freeze their wire forms — the
	// settlement consumes the same encoded claims every op, exactly what
	// a bank replaying one epoch's inbound frames would see.
	const pf, pr = Amount(10), Amount(1_000)
	lock := Amount(n)*pf + pr
	perReceiptWire := make([][][]byte, forwarders) // [claim][receipt]
	aggWire := make([][]byte, forwarders)
	for f := 0; f < forwarders; f++ {
		fid := AccountID(100 + f)
		count := perClaim
		if f == forwarders-1 {
			count = n - perClaim*(forwarders-1) // remainder receipts
		}
		chain := NewClaimChain(fid)
		encs := make([][]byte, 0, count)
		for i := 0; i < count; i++ {
			r := m.Mint(i, 1, fid)
			encs = append(encs, EncodeReceipt(r))
			if err := chain.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		perReceiptWire[f] = encs
		claim := chain.Claim()
		enc, err := EncodeAggregateClaim(claim)
		if err != nil {
			b.Fatal(err)
		}
		aggWire[f] = enc
	}

	settleEpoch := func() (int, error) {
		esc, err := bank.OpenEscrow(initiator, lock)
		if err != nil {
			return 0, err
		}
		var payouts []Payout
		if tier == "aggregated" {
			claims := make([]AggregateClaim, forwarders)
			for f, enc := range aggWire {
				if claims[f], err = DecodeAggregateClaim(enc); err != nil {
					return 0, err
				}
			}
			payouts, _, err = esc.SettleAggregated(m, pf, pr, claims)
		} else {
			claims := make([]Claim, forwarders)
			for f, encs := range perReceiptWire {
				rs := make([]Receipt, len(encs))
				for i, enc := range encs {
					if rs[i], err = DecodeReceipt(enc); err != nil {
						return 0, err
					}
				}
				claims[f] = Claim{Forwarder: AccountID(100 + f), Receipts: rs}
			}
			payouts, _, err = esc.SettleFromEscrow(m, pf, pr, claims)
		}
		if err != nil {
			return 0, err
		}
		return len(payouts), nil
	}

	// One warm epoch validates the fixture before the clock starts.
	if got, err := settleEpoch(); err != nil || got != forwarders {
		b.Fatalf("warm epoch: %d of %d claims paid, err %v", got, forwarders, err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := settleEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/secs, "settlements/sec")
	}
}
