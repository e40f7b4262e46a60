package payment

import (
	"runtime"
	"sync"
)

// Batch settlement path: a settlement epoch hands the bank its tokens in
// one slice, the RSA work — blind signing on the way out, signature checks
// on the way in: the only expensive, pure part of either — fans out over
// a persistent worker pool, and the ledger mutations are applied serially
// in submission order, debits before the fan-out and credits after it.
// Per-token error attribution is identical to calling Deposit in a loop:
// the apply phase replays the serial check order (unknown account, bad
// signature, double spend) with the signature verdict precomputed.

// DepositRequest is one deposit of a settlement epoch's batch.
type DepositRequest struct {
	Account AccountID
	Token   Token
}

// poolTask is one contiguous chunk of per-token work.
type poolTask struct {
	chunk int
	fn    func(chunk int)
	wg    *sync.WaitGroup
}

// workPool is the bank's persistent worker pool: workers parked on a
// channel, shut down by an explicit Close or the finalizer when the bank
// becomes unreachable. Workers capture only the channel, never the pool or
// the bank. One pool serves both halves of an epoch — blind signing and
// deposit verification never overlap within one, and two would only
// oversubscribe the cores.
type workPool struct {
	tasks   chan poolTask
	workers int
	once    sync.Once
}

func newWorkPool(workers int) *workPool {
	if workers < 1 {
		workers = 1
	}
	p := &workPool{tasks: make(chan poolTask, workers), workers: workers}
	for w := 0; w < workers; w++ {
		go poolWorker(p.tasks)
	}
	runtime.SetFinalizer(p, (*workPool).Close)
	return p
}

func poolWorker(tasks <-chan poolTask) {
	for t := range tasks {
		t.fn(t.chunk)
		t.wg.Done()
	}
}

// run executes fn(c) for chunks [0, chunks) on the pool and waits.
func (p *workPool) run(chunks int, fn func(chunk int)) {
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		p.tasks <- poolTask{chunk: c, fn: fn, wg: &wg}
	}
	wg.Wait()
}

// Close shuts the workers down. Idempotent.
func (p *workPool) Close() {
	p.once.Do(func() { close(p.tasks) })
}

// forEach runs fn(i) for every i in [0, n) on the bank's pool — built on
// first use, GOMAXPROCS wide — in one contiguous chunk per worker, and
// waits. fn must touch only what belongs to index i.
func (b *Bank) forEach(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	b.workersMu.Lock()
	if b.workers == nil {
		b.workers = newWorkPool(runtime.GOMAXPROCS(0))
	}
	p := b.workers
	b.workersMu.Unlock()
	chunks := p.workers
	if chunks > n {
		chunks = n
	}
	per := (n + chunks - 1) / chunks
	p.run(chunks, func(c int) {
		hi := (c + 1) * per
		if hi > n {
			hi = n
		}
		for i := c * per; i < hi; i++ {
			fn(i)
		}
	})
}

// payBlind moves one settlement epoch's payouts from id to the payees
// through blind tokens. Each request names a payee and carries the
// denomination of the token to mint for it. The payer is debited for the
// whole epoch at once (debitAll); the per-token exchange — blind a fresh
// serial, sign, unblind and verify — fans out over the pool; the minted
// tokens go through DepositBatch. A token whose exchange or deposit
// failed is discarded and its value returned to the payer, so no value is
// left in the float. It returns the first failed request and its error.
func (b *Bank) payBlind(id AccountID, reqs []DepositRequest) (int, error) {
	if i, err := b.debitAll(id, reqs); err != nil {
		return i, err
	}
	errs := make([]error, len(reqs))
	b.forEach(len(reqs), func(i int) {
		req, err := NewWithdrawalRequest(&b.key.PublicKey, reqs[i].Token.Denom, nil)
		if err == nil {
			var tok Token
			if tok, err = req.Unblind(b.sign(req.blinded)); err == nil {
				reqs[i].Token = tok
			}
		}
		errs[i] = err
	})
	minted := make([]DepositRequest, 0, len(reqs))
	for i := range reqs {
		if errs[i] == nil {
			minted = append(minted, reqs[i])
		}
	}
	deposited := b.DepositBatch(minted)
	var first int
	var firstErr error
	for i := range reqs {
		if errs[i] == nil {
			errs[i], deposited = deposited[0], deposited[1:]
		}
		if errs[i] != nil {
			b.voidWithdrawal(id, reqs[i].Token.Denom)
			if firstErr == nil {
				first, firstErr = i, errs[i]
			}
		}
	}
	return first, firstErr
}

// DepositBatch verifies and applies a settlement epoch's deposits. The
// returned slice has one entry per request, nil on success, positionally
// aligned with reqs; errors match what Deposit would have returned for
// the same stream, in the same order. Telemetry counters see one
// noteDeposit per request, exactly like the serial path.
func (b *Bank) DepositBatch(reqs []DepositRequest) []error {
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return errs
	}
	sigOK := make([]bool, len(reqs))
	b.forEach(len(reqs), func(i int) {
		sigOK[i] = VerifyToken(&b.key.PublicKey, reqs[i].Token)
	})
	for i := range reqs {
		err := b.deposit(reqs[i].Account, reqs[i].Token, sigOK[i])
		b.noteDeposit(err)
		errs[i] = err
	}
	return errs
}
