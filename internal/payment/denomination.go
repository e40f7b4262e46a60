package payment

import (
	"fmt"
	"io"
)

// SplitDenominations decomposes an amount into power-of-two token
// denominations (largest first). Fixed denominations are what make blind
// e-cash unlinkable in practice: if every token's value were unique, the
// bank could match a withdrawal to its deposit by value alone. It panics
// on non-positive amounts.
func SplitDenominations(amount Amount) []Amount {
	if amount <= 0 {
		panic(fmt.Sprintf("payment: SplitDenominations(%d)", amount))
	}
	var out []Amount
	for bit := Amount(1) << 62; bit > 0; bit >>= 1 {
		if amount&bit != 0 {
			out = append(out, bit)
		}
	}
	return out
}

// WithdrawAmount withdraws `amount` as a set of power-of-two denomination
// tokens. On any failure mid-way the successfully withdrawn tokens are
// returned along with the error (the caller still owns them; the failed
// remainder was never debited).
func (b *Bank) WithdrawAmount(id AccountID, amount Amount, rng io.Reader) ([]Token, error) {
	if amount <= 0 {
		return nil, ErrBadAmount
	}
	var tokens []Token
	for _, denom := range SplitDenominations(amount) {
		req, err := NewWithdrawalRequest(&b.key.PublicKey, denom, rng)
		if err != nil {
			return tokens, err
		}
		blindSig, err := b.Withdraw(id, req)
		if err != nil {
			return tokens, err
		}
		tok, err := req.Unblind(blindSig)
		if err != nil {
			return tokens, err
		}
		tokens = append(tokens, tok)
	}
	return tokens, nil
}
