package payment

// Test-only surface: knobs and conveniences no production caller uses.

// setPoolWidth fixes the worker-pool width (0 restores the GOMAXPROCS
// default, built on next use). A width of 1 makes an epoch's signing and
// verification serial — the baseline the fan-out tests and benchmarks
// compare against. Replacing an existing pool shuts the old one down.
func (b *Bank) setPoolWidth(n int) {
	b.workersMu.Lock()
	defer b.workersMu.Unlock()
	if b.workers != nil {
		b.workers.Close()
		b.workers = nil
	}
	if n > 0 {
		b.workers = newWorkPool(n)
	}
}

// DepositAll deposits every token, stopping at the first failure and
// reporting how many succeeded.
func (b *Bank) DepositAll(id AccountID, tokens []Token) (int, error) {
	for i, tok := range tokens {
		if err := b.Deposit(id, tok); err != nil {
			return i, err
		}
	}
	return len(tokens), nil
}
