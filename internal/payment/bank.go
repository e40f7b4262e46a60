package payment

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"
)

// AccountID identifies a bank account. The simulator uses overlay node IDs
// cast to AccountID.
type AccountID int

// Common bank errors.
var (
	ErrInsufficientFunds = errors.New("payment: insufficient funds")
	ErrDoubleSpend       = errors.New("payment: serial already spent")
	ErrBadSignature      = errors.New("payment: invalid token signature")
	ErrUnknownAccount    = errors.New("payment: unknown account")
	ErrBadAmount         = errors.New("payment: non-positive amount")
)

// DefaultShards is the shard count NewBank uses. Sixteen shards keep the
// per-shard maps small and give deposit-heavy settlement traffic sixteen
// independent locks; tests that need the serial semantics verbatim build a
// one-shard bank with NewBankShards.
const DefaultShards = 16

// bankShard holds one partition of the account map. The sorted slice is a
// lazily rebuilt snapshot of the shard's IDs in ascending order; it is
// immutable once built (rebuilds allocate a fresh slice), so Accounts can
// merge shard snapshots after dropping the shard locks.
type bankShard struct {
	mu       sync.Mutex
	accounts map[AccountID]Amount
	sorted   []AccountID
	dirty    bool
}

// spentShard holds one partition of the spent-serial set. Serial numbers
// are random 32-byte strings, so the first bytes spread uniformly.
type spentShard struct {
	mu    sync.Mutex
	spent map[[32]byte]AccountID
}

// Bank is the central settlement entity of §2.2. It holds accounts, signs
// blind withdrawals, accepts deposits, and detects double spending. All
// methods are safe for concurrent use (the transport runtime talks to the
// bank from many goroutines).
//
// State is sharded: accounts and spent serials live in P lock-striped
// partitions keyed by AccountID (resp. serial prefix), so deposits against
// different accounts do not contend. Cross-shard operations take locks in
// ascending shard order — Transfer locks the lower-numbered shard first —
// which makes the lock graph acyclic and deadlock-free. Whole-bank reads
// (TotalBalance, Float, VerifyConservation, Save) lock every shard in that
// same ascending order and therefore see a consistent snapshot: no
// operation can be mid-flight across shards while all locks are held.
type Bank struct {
	key       *rsa.PrivateKey
	shards    []bankShard
	spent     []spentShard
	shardBits uint // shardOf shifts by 64-shardBits; len(shards) == 1<<shardBits

	// issued/redeemed are bumped only while holding the shard lock of the
	// account being debited/credited, so locking all shards quiesces them
	// and the conservation invariant TotalBalance + Float = const can be
	// read exactly.
	issued   atomic.Int64 // total withdrawn (escrowed in tokens)
	redeemed atomic.Int64 // total deposited back

	// workers is the lazily built pool the per-token RSA work of a
	// settlement epoch — blind signing and deposit verification — fans
	// out over; see batch.go.
	workersMu sync.Mutex
	workers   *workPool

	// The audit ledger stays global — statements interleave operations
	// across all accounts under one sequence. auditMu is a leaf lock:
	// it is only ever taken while holding at most the shard locks of the
	// operation being recorded, and no shard lock is ever taken under it.
	auditing atomic.Bool
	auditMu  sync.Mutex
	ledger   map[AccountID][]LedgerEntry
	auditSeq uint64

	// tele holds the nil-safe counter set bound by Instrument.
	tele bankInstruments
}

// NewBank creates a bank with a fresh RSA key of the given size (>= 1024
// bits; 2048 recommended outside tests) and DefaultShards lock shards.
func NewBank(bits int) (*Bank, error) {
	return NewBankShards(bits, DefaultShards)
}

// NewBankShards creates a bank with an explicit shard count (rounded up to
// a power of two, clamped to ≥ 1). One shard reproduces the old
// global-lock bank exactly; benchmarks use it as the serial baseline.
func NewBankShards(bits, shards int) (*Bank, error) {
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("payment: generating bank key: %w", err)
	}
	b := newBankState(shards)
	b.key = key
	return b, nil
}

// newBankState builds the sharded containers without key material.
func newBankState(shards int) *Bank {
	bits := uint(0)
	for 1<<bits < shards {
		bits++
	}
	n := 1 << bits
	b := &Bank{
		shards:    make([]bankShard, n),
		spent:     make([]spentShard, n),
		shardBits: bits,
	}
	for i := range b.shards {
		b.shards[i].accounts = make(map[AccountID]Amount)
	}
	for i := range b.spent {
		b.spent[i].spent = make(map[[32]byte]AccountID)
	}
	return b
}

// shardIndex maps an account to its shard by Fibonacci hashing:
// sequential node IDs (the common case) spread across shards instead of
// clustering. A shift of 64 (one shard) is defined in Go and yields 0.
func (b *Bank) shardIndex(id AccountID) int {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return int(h >> (64 - b.shardBits))
}

func (b *Bank) shardOf(id AccountID) *bankShard {
	return &b.shards[b.shardIndex(id)]
}

// spentShardOf maps a serial to its spent partition by prefix.
func (b *Bank) spentShardOf(serial [32]byte) *spentShard {
	h := uint64(serial[0]) | uint64(serial[1])<<8 | uint64(serial[2])<<16 | uint64(serial[3])<<24
	h *= 0x9e3779b97f4a7c15
	return &b.spent[h>>(64-b.shardBits)]
}

// lockAll acquires every account-shard lock in ascending order. While all
// are held no account mutation (and therefore no issued/redeemed bump) can
// be in flight, so the caller sees a consistent whole-bank snapshot.
func (b *Bank) lockAll() {
	for i := range b.shards {
		b.shards[i].mu.Lock()
	}
}

func (b *Bank) unlockAll() {
	for i := range b.shards {
		b.shards[i].mu.Unlock()
	}
}

// PublicKey returns the bank's token-verification key.
func (b *Bank) PublicKey() *rsa.PublicKey { return &b.key.PublicKey }

// OpenAccount creates an account with the given opening balance. Opening
// an existing account is an error.
func (b *Bank) OpenAccount(id AccountID, opening Amount) error {
	if opening < 0 {
		return ErrBadAmount
	}
	s := b.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[id]; ok {
		return fmt.Errorf("payment: account %d already exists", id)
	}
	s.accounts[id] = opening
	s.dirty = true
	b.audit(id, "open", opening, opening, id)
	return nil
}

// ensureAccount creates id with a zero balance if it does not exist yet
// (used for the internal escrow holding account; no audit line, matching
// the original implicit creation).
func (b *Bank) ensureAccount(id AccountID) {
	s := b.shardOf(id)
	s.mu.Lock()
	if _, ok := s.accounts[id]; !ok {
		s.accounts[id] = 0
		s.dirty = true
	}
	s.mu.Unlock()
}

// Balance returns the account's balance.
func (b *Bank) Balance(id AccountID) (Amount, error) {
	s := b.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	bal, ok := s.accounts[id]
	if !ok {
		return 0, ErrUnknownAccount
	}
	return bal, nil
}

// Withdraw debits the account by the request's denomination and signs the
// blinded value. The bank never sees the serial, so the token it enables
// cannot be traced back to this withdrawal. The RSA exponentiation runs
// outside the shard lock — only the ledger mutation is serialized.
func (b *Bank) Withdraw(id AccountID, req *WithdrawalRequest) (*big.Int, error) {
	if req == nil || req.Denom() <= 0 {
		return nil, ErrBadAmount
	}
	if _, err := b.debitAll(id, []DepositRequest{{Token: Token{Denom: req.denom}}}); err != nil {
		return nil, err
	}
	return b.sign(req.blinded), nil
}

// sign returns the raw RSA signature c^D mod N, computed through the key's
// CRT values: one half-size exponentiation per prime and Garner's
// recombination, about a quarter of the work of the full-size power. The
// result is released only after s^e ≡ c (mod N) holds — a fault in either
// half would otherwise hand out a value whose difference from the true
// signature factors N — and a failed check falls back to the plain power,
// so a debited withdrawal always gets its signature.
func (b *Bank) sign(c *big.Int) *big.Int {
	k := b.key
	if c.Sign() < 0 || c.Cmp(k.N) >= 0 {
		c = new(big.Int).Mod(c, k.N)
	}
	p, q := k.Primes[0], k.Primes[1]
	sig := new(big.Int).Exp(c, k.Precomputed.Dp, p)
	m2 := new(big.Int).Exp(c, k.Precomputed.Dq, q)
	s := powScratchPool.Get().(*powScratch)
	defer powScratchPool.Put(s)
	// sig = m2 + q·(Qinv·(m1 − m2) mod p)
	s.mulMod(sig, sig.Sub(sig, m2), k.Precomputed.Qinv, p)
	sig.Add(s.prod.Mul(sig, q), m2)
	if s.pow(sig, k.E, k.N).Cmp(c) != 0 {
		return sig.Exp(c, k.D, k.N)
	}
	return sig
}

// debitAll debits id by every request's denomination in order (the payee
// a request names plays no part), all or nothing, under one hold of its
// shard lock: a settlement epoch that the account cannot cover in full
// debits nothing. On ErrInsufficientFunds it returns the index of the
// first token the balance does not reach, which is the one a
// token-by-token loop would have failed at.
func (b *Bank) debitAll(id AccountID, reqs []DepositRequest) (int, error) {
	s := b.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	bal, ok := s.accounts[id]
	if !ok {
		return 0, ErrUnknownAccount
	}
	left := bal
	for i := range reqs {
		if left -= reqs[i].Token.Denom; left < 0 {
			return i, ErrInsufficientFunds
		}
	}
	for i := range reqs {
		bal -= reqs[i].Token.Denom
		b.audit(id, "withdraw", reqs[i].Token.Denom, bal, id)
	}
	b.issued.Add(int64(s.accounts[id] - bal))
	s.accounts[id] = bal
	return 0, nil
}

// voidWithdrawal returns to id the value of a debited token that will
// never be redeemed: its signing exchange or its deposit failed and the
// token is discarded.
func (b *Bank) voidWithdrawal(id AccountID, amt Amount) {
	s := b.shardOf(id)
	s.mu.Lock()
	s.accounts[id] += amt
	b.issued.Add(-int64(amt))
	b.audit(id, "withdraw-void", amt, s.accounts[id], id)
	s.mu.Unlock()
}

// Deposit verifies a token and credits the depositor. A replayed serial is
// rejected with ErrDoubleSpend and the original depositor is reported so
// the caller can attribute the cheat.
func (b *Bank) Deposit(id AccountID, tok Token) (err error) {
	defer func() { b.noteDeposit(err) }()
	return b.deposit(id, tok, VerifyToken(&b.key.PublicKey, tok))
}

// deposit applies one deposit with the signature verdict precomputed (the
// batch path verifies signatures in a worker pool first). The check order
// — unknown account, bad signature, double spend — matches the serial
// bank bit for bit, so batch and single deposits attribute errors
// identically.
//
// Stages never hold two locks at once: existence is checked under the
// account shard, the serial is claimed under the spent shard, and the
// credit lands back under the account shard. Accounts are never deleted,
// so the existence check cannot be invalidated in between; between the
// serial claim and the credit the invariant still holds because redeemed
// is bumped together with the credit.
func (b *Bank) deposit(id AccountID, tok Token, sigValid bool) error {
	s := b.shardOf(id)
	s.mu.Lock()
	_, ok := s.accounts[id]
	s.mu.Unlock()
	if !ok {
		return ErrUnknownAccount
	}
	if !sigValid {
		return ErrBadSignature
	}
	sp := b.spentShardOf(tok.Serial)
	sp.mu.Lock()
	if first, dup := sp.spent[tok.Serial]; dup {
		sp.mu.Unlock()
		return fmt.Errorf("%w (first deposited by account %d)", ErrDoubleSpend, first)
	}
	sp.spent[tok.Serial] = id
	sp.mu.Unlock()
	s.mu.Lock()
	s.accounts[id] += tok.Denom
	b.redeemed.Add(int64(tok.Denom))
	b.audit(id, "deposit", tok.Denom, s.accounts[id], id)
	s.mu.Unlock()
	return nil
}

// Transfer moves credits between accounts directly (used for escrow
// refunds and fee-free settlement paths that do not need unlinkability).
// Cross-shard transfers take both shard locks in ascending shard order —
// the deterministic two-phase ordering that keeps concurrent transfers
// deadlock-free.
func (b *Bank) Transfer(from, to AccountID, amt Amount) error {
	if amt <= 0 {
		return ErrBadAmount
	}
	fi, ti := b.shardIndex(from), b.shardIndex(to)
	sf, st := &b.shards[fi], &b.shards[ti]
	lockOrdered(sf, st, fi, ti)
	defer unlockOrdered(sf, st, fi, ti)
	fb, ok := sf.accounts[from]
	if !ok {
		return ErrUnknownAccount
	}
	if _, ok := st.accounts[to]; !ok {
		return ErrUnknownAccount
	}
	if fb < amt {
		return ErrInsufficientFunds
	}
	sf.accounts[from] = fb - amt
	st.accounts[to] += amt
	b.audit(from, "transfer-out", amt, sf.accounts[from], to)
	b.audit(to, "transfer-in", amt, st.accounts[to], from)
	return nil
}

// lockOrdered locks one or two shards lower index first — the two-phase
// ordering that makes the cross-shard lock graph acyclic.
func lockOrdered(a, c *bankShard, ai, ci int) {
	switch {
	case ai == ci:
		a.mu.Lock()
	case ai < ci:
		a.mu.Lock()
		c.mu.Lock()
	default:
		c.mu.Lock()
		a.mu.Lock()
	}
}

func unlockOrdered(a, c *bankShard, ai, ci int) {
	a.mu.Unlock()
	if ai != ci {
		c.mu.Unlock()
	}
}

// TotalBalance returns the sum over all accounts. Together with Float
// (tokens issued but not yet redeemed) it states the conservation
// invariant: TotalBalance + Float is constant across all operations.
func (b *Bank) TotalBalance() Amount {
	b.lockAll()
	defer b.unlockAll()
	var total Amount
	for i := range b.shards {
		for _, bal := range b.shards[i].accounts {
			total += bal
		}
	}
	return total
}

// Float returns the value of tokens issued but not yet redeemed. All
// shards are locked so the two counters are read at a quiescent point.
func (b *Bank) Float() Amount {
	b.lockAll()
	defer b.unlockAll()
	return Amount(b.issued.Load() - b.redeemed.Load())
}

// Accounts returns all account IDs in ascending order. Each shard keeps a
// pre-sorted immutable snapshot that is rebuilt only after an account was
// opened in it, so a warm call is one k-way merge and a single output
// allocation — no sorting under any lock.
func (b *Bank) Accounts() []AccountID {
	snaps := make([][]AccountID, len(b.shards))
	total := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		if s.dirty {
			sorted := make([]AccountID, 0, len(s.accounts))
			for id := range s.accounts {
				sorted = append(sorted, id)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			s.sorted = sorted
			s.dirty = false
		}
		snaps[i] = s.sorted
		s.mu.Unlock()
		total += len(snaps[i])
	}
	out := make([]AccountID, 0, total)
	for len(out) < total {
		best := -1
		for i, snap := range snaps {
			if len(snap) == 0 {
				continue
			}
			if best < 0 || snap[0] < snaps[best][0] {
				best = i
			}
		}
		out = append(out, snaps[best][0])
		snaps[best] = snaps[best][1:]
	}
	return out
}

// SpentCount returns the number of redeemed serials (for reporting).
func (b *Bank) SpentCount() int {
	n := 0
	for i := range b.spent {
		b.spent[i].mu.Lock()
		n += len(b.spent[i].spent)
		b.spent[i].mu.Unlock()
	}
	return n
}
