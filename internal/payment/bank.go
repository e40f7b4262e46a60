package payment

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
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

// Bank is the central settlement entity of §2.2. It holds accounts, signs
// blind withdrawals, accepts deposits, and detects double spending. All
// methods are safe for concurrent use (the transport runtime talks to the
// bank from many goroutines).
//
// One mutex guards the whole ledger — accounts, spent serials, the
// issued/redeemed counters and the audit trail — so every operation and
// every whole-bank read (TotalBalance, Float, VerifyConservation, Save)
// sees one consistent state. The RSA work of a withdrawal or a deposit
// runs outside it; only the map updates are serialized.
type Bank struct {
	key *rsa.PrivateKey

	mu       sync.Mutex
	accounts map[AccountID]Amount
	spent    map[[32]byte]AccountID
	sorted   []AccountID // Accounts' ascending IDs; nil after an account opens
	issued   Amount      // total withdrawn (escrowed in tokens)
	redeemed Amount      // total deposited back

	// ledger is the audit trail, nil until EnableAudit; statements
	// interleave operations across all accounts under one sequence.
	ledger   map[AccountID][]LedgerEntry
	auditSeq uint64

	// workers is the lazily built pool the per-token RSA work of a
	// settlement epoch — blind signing and deposit verification — fans
	// out over; see batch.go.
	workersMu sync.Mutex
	workers   *workPool

	// tele holds the nil-safe counter set bound by Instrument.
	tele bankInstruments
}

// NewBank creates a bank with a fresh RSA key of the given size (>= 1024
// bits; 2048 recommended outside tests).
func NewBank(bits int) (*Bank, error) {
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("payment: generating bank key: %w", err)
	}
	return newBank(key), nil
}

// newBank builds an empty bank around key.
func newBank(key *rsa.PrivateKey) *Bank {
	return &Bank{
		key:      key,
		accounts: make(map[AccountID]Amount),
		spent:    make(map[[32]byte]AccountID),
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
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.accounts[id]; ok {
		return fmt.Errorf("payment: account %d already exists", id)
	}
	b.accounts[id] = opening
	b.sorted = nil
	b.audit(id, "open", opening, opening, id)
	return nil
}

// ensureAccount creates id with a zero balance if it does not exist yet
// (used for the internal escrow holding account; no audit line, matching
// the original implicit creation).
func (b *Bank) ensureAccount(id AccountID) {
	b.mu.Lock()
	if _, ok := b.accounts[id]; !ok {
		b.accounts[id] = 0
		b.sorted = nil
	}
	b.mu.Unlock()
}

// Balance returns the account's balance.
func (b *Bank) Balance(id AccountID) (Amount, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bal, ok := b.accounts[id]
	if !ok {
		return 0, ErrUnknownAccount
	}
	return bal, nil
}

// Withdraw debits the account by the request's denomination and signs the
// blinded value. The bank never sees the serial, so the token it enables
// cannot be traced back to this withdrawal. The RSA exponentiation runs
// outside the lock — only the ledger mutation is serialized.
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
// a request names plays no part), all or nothing, under one hold of the
// lock: a settlement epoch that the account cannot cover in full debits
// nothing. On ErrInsufficientFunds it returns the index of the first
// token the balance does not reach, which is the one a token-by-token
// loop would have failed at.
func (b *Bank) debitAll(id AccountID, reqs []DepositRequest) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bal, ok := b.accounts[id]
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
	b.issued += b.accounts[id] - bal
	b.accounts[id] = bal
	return 0, nil
}

// voidWithdrawal returns to id the value of a debited token that will
// never be redeemed: its signing exchange or its deposit failed and the
// token is discarded.
func (b *Bank) voidWithdrawal(id AccountID, amt Amount) {
	b.mu.Lock()
	b.accounts[id] += amt
	b.issued -= amt
	b.audit(id, "withdraw-void", amt, b.accounts[id], id)
	b.mu.Unlock()
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
// — unknown account, bad signature, double spend — is the same on both
// paths, so batch and single deposits attribute errors identically. The
// serial is claimed and the credit lands in one hold of the lock: no
// reader can see one without the other.
func (b *Bank) deposit(id AccountID, tok Token, sigValid bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.accounts[id]; !ok {
		return ErrUnknownAccount
	}
	if !sigValid {
		return ErrBadSignature
	}
	if first, dup := b.spent[tok.Serial]; dup {
		return fmt.Errorf("%w (first deposited by account %d)", ErrDoubleSpend, first)
	}
	b.spent[tok.Serial] = id
	b.accounts[id] += tok.Denom
	b.redeemed += tok.Denom
	b.audit(id, "deposit", tok.Denom, b.accounts[id], id)
	return nil
}

// Transfer moves credits between accounts directly (used for escrow
// refunds and fee-free settlement paths that do not need unlinkability).
func (b *Bank) Transfer(from, to AccountID, amt Amount) error {
	if amt <= 0 {
		return ErrBadAmount
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	fb, ok := b.accounts[from]
	if !ok {
		return ErrUnknownAccount
	}
	if _, ok := b.accounts[to]; !ok {
		return ErrUnknownAccount
	}
	if fb < amt {
		return ErrInsufficientFunds
	}
	b.accounts[from] = fb - amt
	b.accounts[to] += amt
	b.audit(from, "transfer-out", amt, b.accounts[from], to)
	b.audit(to, "transfer-in", amt, b.accounts[to], from)
	return nil
}

// TotalBalance returns the sum over all accounts. Together with Float
// (tokens issued but not yet redeemed) it states the conservation
// invariant: TotalBalance + Float is constant across all operations.
func (b *Bank) TotalBalance() Amount {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total Amount
	for _, bal := range b.accounts {
		total += bal
	}
	return total
}

// Float returns the value of tokens issued but not yet redeemed.
func (b *Bank) Float() Amount {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.issued - b.redeemed
}

// Accounts returns all account IDs in ascending order. The sorted list is
// cached until the next account opens, so a warm call is one copy.
func (b *Bank) Accounts() []AccountID {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sorted == nil {
		b.sorted = make([]AccountID, 0, len(b.accounts))
		for id := range b.accounts {
			b.sorted = append(b.sorted, id)
		}
		slices.Sort(b.sorted)
	}
	return slices.Clone(b.sorted)
}

// SpentCount returns the number of redeemed serials (for reporting).
func (b *Bank) SpentCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.spent)
}
