package payment

import (
	"cmp"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"
)

// Receipt proves one forwarding instance: forwarder F handled hop `Hop` of
// connection `Conn` in a batch. Receipts are minted by the initiator —
// MACed under a per-batch secret that travels inside the onion payload —
// and collected by forwarders as they forward. At settlement a forwarder's
// claimed forwarding count m is exactly the number of valid, distinct
// receipts it can present; counts cannot be inflated without forging the
// MAC (§5's "cheating" scenario).
type Receipt struct {
	Conn      int
	Hop       int
	Forwarder AccountID
	MAC       [32]byte
}

// ReceiptMinter issues receipts for one batch under a secret key known only
// to the initiator.
type ReceiptMinter struct {
	key []byte
	// fast reports that v's pad mid-states serve: every process passes or
	// fails the check once (midStatesServe). When false, every MAC is
	// computed through crypto/hmac instead.
	fast bool

	// mu guards the scratch below. Mint computes each MAC through v, the
	// verifier over the key's pad mid-states, instead of building an HMAC
	// instance per receipt; CountValid and SettleAggregated verify through
	// it, and SettleAggregated folds through fold and scratch, so a batch
	// minted, claimed and settled sets up its MAC state once.
	mu      sync.Mutex
	v       macVerifier
	fold    hash.Hash
	scratch [32]byte
}

// NewReceiptMinter creates a minter from a batch secret. The secret must be
// non-empty; 32 random bytes is the intended use.
func NewReceiptMinter(secret []byte) (*ReceiptMinter, error) {
	if len(secret) == 0 {
		return nil, errors.New("payment: empty receipt secret")
	}
	key := make([]byte, len(secret))
	copy(key, secret)
	m := &ReceiptMinter{key: key}
	if midStatesServe() && m.v.init(key) {
		m.fast, m.fold = true, sha256.New()
	}
	return m, nil
}

// midStatesServe checks the mid-state path once per process against the
// crypto/hmac reference. What it checks is crypto/sha256's marshal
// format, not a key — a key only fills the pads, which the verifier
// derives the way RFC 2104 does — so one check serves every minter. If
// the format ever shifts, every minter takes the slow path instead of
// silently rejecting genuine claims.
var midStatesServe = sync.OnceValue(func() bool {
	key := []byte("p2panon/receipt/self-check")
	var v macVerifier
	if !v.init(key) {
		return false
	}
	v.setForwarder(3)
	want := receiptMAC(key, 1, 2, 3)
	got, err := v.mac(1, 2)
	return err == nil && hmac.Equal(got, want[:])
})

func receiptMAC(key []byte, conn, hop int, f AccountID) [32]byte {
	mac := hmac.New(sha256.New, key)
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(conn))
	binary.BigEndian.PutUint64(buf[8:16], uint64(hop))
	binary.BigEndian.PutUint64(buf[16:24], uint64(f))
	mac.Write(buf[:])
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// Mint issues the receipt for forwarder f at hop hop of connection conn.
func (m *ReceiptMinter) Mint(conn, hop int, f AccountID) Receipt {
	r := Receipt{Conn: conn, Hop: hop, Forwarder: f}
	if m.fast {
		m.mu.Lock()
		m.v.setForwarder(f)
		mac, err := m.v.mac(conn, hop)
		copy(r.MAC[:], mac)
		m.mu.Unlock()
		if err == nil {
			return r
		}
	}
	r.MAC = receiptMAC(m.key, conn, hop, f)
	return r
}

// Verify reports whether r is authentic under this minter's secret.
func (m *ReceiptMinter) Verify(r Receipt) bool {
	want := receiptMAC(m.key, r.Conn, r.Hop, r.Forwarder)
	return hmac.Equal(want[:], r.MAC[:])
}

// CountValid returns the number of valid, distinct (conn, hop) receipts in
// rs that name forwarder f. Duplicates, forgeries and receipts naming
// other forwarders are ignored — this is the settlement-side defence
// against inflated forwarding counts.
func (m *ReceiptMinter) CountValid(f AccountID, rs []Receipt) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	rc := receiptCounter{m: m}
	return rc.count(f, rs)
}

// receiptCounter is CountValid with its coordinate buffer hoisted, for
// loops that count many claims: the valid receipts' coordinates, sorted
// to count the distinct ones. It checks MACs through the minter's
// verifier, so its user holds the minter's mutex.
type receiptCounter struct {
	m    *ReceiptMinter
	keys [][2]int
}

// count is CountValid(f, rs).
func (rc *receiptCounter) count(f AccountID, rs []Receipt) int {
	if rc.m.fast {
		rc.m.v.setForwarder(f)
	}
	keys := rc.keys[:0]
	if cap(keys) < len(rs) {
		keys = make([][2]int, 0, len(rs))
	}
	for i := range rs {
		if r := &rs[i]; r.Forwarder == f && rc.valid(r) {
			keys = append(keys, [2]int{r.Conn, r.Hop})
		}
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	rc.keys = keys
	return len(slices.Compact(keys))
}

// valid reports whether r, which names the verifier's forwarder, is
// authentic: Verify's verdict, from the mid-states when they serve.
func (rc *receiptCounter) valid(r *Receipt) bool {
	if rc.m.fast {
		if mac, err := rc.m.v.mac(r.Conn, r.Hop); err == nil {
			return hmac.Equal(mac, r.MAC[:])
		}
	}
	return rc.m.Verify(*r)
}

// Claim is a forwarder's settlement submission for one batch.
type Claim struct {
	Forwarder AccountID
	Receipts  []Receipt
}

// Settlement computes and executes the paper's payout rule for one batch:
// each forwarder with m valid forwarding instances receives
// m·P_f + P_r/‖π‖, where ‖π‖ is the number of forwarders with at least one
// valid receipt. Payouts are made with blind tokens withdrawn from the
// initiator's account so the bank cannot link the batch's payer to its
// payees.
type Settlement struct {
	Bank      *Bank
	Minter    *ReceiptMinter
	Initiator AccountID
	Pf, Pr    Amount
}

// Payout records one forwarder's settled amount.
type Payout struct {
	Forwarder AccountID
	Forwards  int // accepted forwarding instances m
	Amount    Amount
}

// Run validates all claims and pays each entitled forwarder through
// blind tokens, under the payout rule of Bank.settle. It returns the
// payouts in forwarder order.
func (s *Settlement) Run(claims []Claim) ([]Payout, error) {
	if s.Bank == nil || s.Minter == nil {
		return nil, errors.New("payment: settlement missing bank or minter")
	}
	accepted, rejected := s.Minter.verifyClaims(claims)
	return s.Bank.settle(s.Pf, s.Pr, accepted, rejected, func(ps []Payout) ([]Payout, error) {
		return nil, s.payBlindBatch(ps)
	})
}

// verifyClaims is the per-receipt verifier: a claim is accepted for the
// CountValid of its receipts, and every receipt CountValid discards is
// counted as rejected. One receiptCounter serves every claim.
func (m *ReceiptMinter) verifyClaims(claims []Claim) (accepted []Payout, rejected int) {
	accepted = make([]Payout, 0, len(claims))
	m.mu.Lock()
	defer m.mu.Unlock()
	rc := receiptCounter{m: m}
	for _, c := range claims {
		n := rc.count(c.Forwarder, c.Receipts)
		rejected += len(c.Receipts) - n
		if n > 0 {
			accepted = append(accepted, Payout{Forwarder: c.Forwarder, Forwards: n})
		}
	}
	return accepted, rejected
}

// settle is the paper's payout rule, the one every settle path runs
// between its verifier and its payer. accepted holds the verified
// (forwarder, m) pairs in submission order and rejected the receipts
// refused while verifying. A forwarder is paid for its first accepted
// claim only: a later claim naming it again is refused whole and its
// receipts count as rejected, so ‖π‖ counts distinct forwarders. Each
// forwarder gets m·P_f + P_r/‖π‖ with integer division, the remainder
// staying with the initiator (a bias below ‖π‖ credits per batch). pay
// moves the money; when it fails, its result (the payouts it completed)
// comes back with the error and nothing is recorded. The payouts come
// back in forwarder order, nil when there are none.
func (b *Bank) settle(pf, pr Amount, accepted []Payout, rejected int, pay func([]Payout) ([]Payout, error)) ([]Payout, error) {
	if pf < 0 || pr < 0 {
		return nil, ErrBadAmount
	}
	slices.SortStableFunc(accepted, func(x, y Payout) int { return cmp.Compare(x.Forwarder, y.Forwarder) })
	n := 0
	for _, p := range accepted {
		if n > 0 && accepted[n-1].Forwarder == p.Forwarder {
			rejected += p.Forwards
			continue
		}
		accepted[n] = p
		n++
	}
	if accepted = accepted[:n]; n == 0 {
		accepted = nil
	}
	for i := range accepted {
		accepted[i].Amount = Amount(accepted[i].Forwards)*pf + pr/Amount(n)
	}
	if paid, err := pay(accepted); err != nil {
		return paid, err
	}
	b.noteSettlement(accepted, rejected)
	return accepted, nil
}

// payBlindBatch splits every forwarder's payout into power-of-two
// denominations and moves the whole epoch through Bank.payBlind: one
// all-or-nothing debit of the initiator, the blind-signing exchanges and
// the deposit checks on the bank's worker pool, credits in (forwarder,
// denomination) order. Fixed denominations matter for unlinkability:
// unique token values would let the bank match withdrawals to deposits by
// amount alone. An initiator that cannot cover the epoch is debited
// nothing and nobody is paid; on a later error the failing token's
// forwarder is named, its value is back with the initiator and every
// other token of the epoch has been deposited.
func (s *Settlement) payBlindBatch(accepted []Payout) error {
	var reqs []DepositRequest
	for i := range accepted {
		if accepted[i].Amount <= 0 {
			continue
		}
		for _, denom := range SplitDenominations(accepted[i].Amount) {
			reqs = append(reqs, DepositRequest{Account: accepted[i].Forwarder, Token: Token{Denom: denom}})
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	if i, err := s.Bank.payBlind(s.Initiator, reqs); err != nil {
		return fmt.Errorf("payment: paying forwarder %d: %w", reqs[i].Account, err)
	}
	return nil
}
