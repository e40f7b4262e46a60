package payment

import (
	"crypto/rsa"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"time"
)

// LedgerEntry is one line of an account statement.
type LedgerEntry struct {
	Seq     uint64
	Kind    string // "open", "withdraw", "withdraw-void", "deposit", "transfer-in", "transfer-out"
	Amount  Amount
	Balance Amount // balance after the entry
	Peer    AccountID
}

// Statement returns an account's ledger entries in order. The ledger is
// recorded only when auditing is enabled (EnableAudit); otherwise it
// returns nil.
func (b *Bank) Statement(id AccountID) []LedgerEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	entries := b.ledger[id]
	if len(entries) == 0 {
		return nil
	}
	out := make([]LedgerEntry, len(entries))
	copy(out, entries)
	return out
}

// EnableAudit switches per-account ledger recording on. Operations before
// the call are not back-filled.
func (b *Bank) EnableAudit() {
	b.mu.Lock()
	if b.ledger == nil {
		b.ledger = make(map[AccountID][]LedgerEntry)
	}
	b.mu.Unlock()
}

// audit appends a ledger entry when auditing is on. The caller holds the
// lock and passes the post-operation balance.
func (b *Bank) audit(id AccountID, kind string, amt, balance Amount, peer AccountID) {
	if b.ledger == nil {
		return
	}
	b.auditSeq++
	b.ledger[id] = append(b.ledger[id], LedgerEntry{
		Seq:     b.auditSeq,
		Kind:    kind,
		Amount:  amt,
		Balance: balance,
		Peer:    peer,
	})
}

// bankState is the gob-serialisable snapshot of a bank.
type bankState struct {
	Key      *rsa.PrivateKey
	Accounts map[AccountID]Amount
	Spent    map[[32]byte]AccountID
	Issued   Amount
	Redeemed Amount
	SavedAt  time.Time
}

// Save serialises the bank's full state (key, accounts, spent list) to w
// with encoding/gob. The state is copied in one hold of the lock, so the
// snapshot is consistent: a deposit is in it whole (serial spent, account
// credited, redeemed bumped) or not at all. Encoding runs after the lock
// is released. The snapshot contains the private key: treat the output as
// secret material.
func (b *Bank) Save(w io.Writer) error {
	b.mu.Lock()
	st := bankState{
		Key:      b.key,
		Accounts: maps.Clone(b.accounts),
		Spent:    maps.Clone(b.spent),
		Issued:   b.issued,
		Redeemed: b.redeemed,
		SavedAt:  time.Now(),
	}
	b.mu.Unlock()
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("payment: saving bank: %w", err)
	}
	return nil
}

// LoadBank restores a bank from a Save snapshot. The restored bank
// validates its key material before use and rebuilds the CRT values
// Bank.sign works through (gob does not carry crypto/rsa's unexported
// precomputed state); a key that is not two-prime has none and is
// rejected rather than signed with slowly.
func LoadBank(r io.Reader) (*Bank, error) {
	var st bankState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("payment: loading bank: %w", err)
	}
	if st.Key == nil || st.Key.N == nil {
		return nil, fmt.Errorf("payment: snapshot has no key")
	}
	if err := st.Key.Validate(); err != nil {
		return nil, fmt.Errorf("payment: snapshot key invalid: %w", err)
	}
	st.Key.Precompute()
	if pre := st.Key.Precomputed; len(st.Key.Primes) != 2 || pre.Dp == nil || pre.Dq == nil || pre.Qinv == nil {
		return nil, fmt.Errorf("payment: snapshot key is not a two-prime key with CRT values")
	}
	b := newBank(st.Key)
	maps.Copy(b.accounts, st.Accounts)
	maps.Copy(b.spent, st.Spent)
	b.issued, b.redeemed = st.Issued, st.Redeemed
	return b, nil
}

// VerifyConservation recomputes the conservation invariant and returns an
// error if total balances plus outstanding float do not equal opening
// balances plus issued-and-unredeemed value. Because the bank never
// creates money outside OpenAccount, the invariant reduces to checking
// that issued >= redeemed and all balances are non-negative, over one
// hold of the lock.
func (b *Bank) VerifyConservation() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.redeemed > b.issued {
		return fmt.Errorf("payment: redeemed %d exceeds issued %d", b.redeemed, b.issued)
	}
	// Report the lowest offending account so the error is deterministic
	// whatever the map iteration order.
	worst := AccountID(0)
	var worstBal Amount
	found := false
	for id, bal := range b.accounts {
		if bal < 0 && (!found || id < worst) {
			worst, worstBal, found = id, bal, true
		}
	}
	if found {
		return fmt.Errorf("payment: account %d negative: %d", worst, worstBal)
	}
	return nil
}
