package payment

import (
	"crypto/rsa"
	"encoding/gob"
	"fmt"
	"io"
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
	if !b.auditing.Load() {
		return nil
	}
	b.auditMu.Lock()
	defer b.auditMu.Unlock()
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
	b.auditMu.Lock()
	if b.ledger == nil {
		b.ledger = make(map[AccountID][]LedgerEntry)
	}
	b.auditMu.Unlock()
	b.auditing.Store(true)
}

// audit appends a ledger entry when auditing is on. The caller holds the
// shard lock of the mutated account and passes the post-operation balance
// explicitly (the ledger cannot reach into another shard). auditMu is a
// leaf lock under the shard locks, giving statements one global sequence.
func (b *Bank) audit(id AccountID, kind string, amt, balance Amount, peer AccountID) {
	if !b.auditing.Load() {
		return
	}
	b.auditMu.Lock()
	b.auditSeq++
	b.ledger[id] = append(b.ledger[id], LedgerEntry{
		Seq:     b.auditSeq,
		Kind:    kind,
		Amount:  amt,
		Balance: balance,
		Peer:    peer,
	})
	b.auditMu.Unlock()
}

// bankState is the gob-serialisable snapshot of a bank. The format is
// shard-agnostic — maps are merged on Save and redistributed on Load — so
// snapshots survive shard-count changes between writer and reader.
type bankState struct {
	Key      *rsa.PrivateKey
	Accounts map[AccountID]Amount
	Spent    map[[32]byte]AccountID
	Issued   Amount
	Redeemed Amount
	SavedAt  time.Time
}

// Save serialises the bank's full state (key, accounts, spent list) to w
// with encoding/gob. The snapshot contains the private key: treat the
// output as secret material.
func (b *Bank) Save(w io.Writer) error {
	b.lockAll()
	accounts := make(map[AccountID]Amount)
	for i := range b.shards {
		for id, bal := range b.shards[i].accounts {
			accounts[id] = bal
		}
	}
	st := bankState{
		Key:      b.key,
		Accounts: accounts,
		Issued:   Amount(b.issued.Load()),
		Redeemed: Amount(b.redeemed.Load()),
		SavedAt:  time.Now(),
	}
	b.unlockAll()
	st.Spent = make(map[[32]byte]AccountID)
	for i := range b.spent {
		sp := &b.spent[i]
		sp.mu.Lock()
		for serial, id := range sp.spent {
			st.Spent[serial] = id
		}
		sp.mu.Unlock()
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("payment: saving bank: %w", err)
	}
	return nil
}

// LoadBank restores a bank from a Save snapshot, distributing the state
// over DefaultShards. The restored bank validates its key material before
// use and rebuilds the CRT values Bank.sign works through (gob does not
// carry crypto/rsa's unexported precomputed state); a key that is not
// two-prime has none and is rejected rather than signed with slowly.
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
	b := newBankState(DefaultShards)
	b.key = st.Key
	for id, bal := range st.Accounts {
		s := b.shardOf(id)
		s.accounts[id] = bal
		s.dirty = true
	}
	for serial, id := range st.Spent {
		b.spentShardOf(serial).spent[serial] = id
	}
	b.issued.Store(int64(st.Issued))
	b.redeemed.Store(int64(st.Redeemed))
	return b, nil
}

// VerifyConservation recomputes the conservation invariant and returns an
// error if total balances plus outstanding float do not equal opening
// balances plus issued-and-unredeemed value. Because the bank never
// creates money outside OpenAccount, the invariant reduces to checking
// that issued >= redeemed and all balances are non-negative. All shards
// are locked for the duration, so the verdict is over one consistent
// snapshot.
func (b *Bank) VerifyConservation() error {
	b.lockAll()
	defer b.unlockAll()
	if r, i := b.redeemed.Load(), b.issued.Load(); r > i {
		return fmt.Errorf("payment: redeemed %d exceeds issued %d", r, i)
	}
	// Report the lowest offending account so the error is deterministic
	// whatever the map iteration order.
	worst := AccountID(0)
	var worstBal Amount
	found := false
	for i := range b.shards {
		for id, bal := range b.shards[i].accounts {
			if bal < 0 && (!found || id < worst) {
				worst, worstBal, found = id, bal, true
			}
		}
	}
	if found {
		return fmt.Errorf("payment: account %d negative: %d", worst, worstBal)
	}
	return nil
}
