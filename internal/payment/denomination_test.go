package payment

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSplitDenominationsKnown(t *testing.T) {
	cases := []struct {
		in   Amount
		want []Amount
	}{
		{1, []Amount{1}},
		{2, []Amount{2}},
		{3, []Amount{2, 1}},
		{150, []Amount{128, 16, 4, 2}},
		{1024, []Amount{1024}},
	}
	for _, c := range cases {
		got := SplitDenominations(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Split(%d) = %v", c.in, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Split(%d) = %v", c.in, got)
			}
		}
	}
}

func TestSplitDenominationsPanics(t *testing.T) {
	for _, amt := range []Amount{0, -7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Split(%d) did not panic", amt)
				}
			}()
			SplitDenominations(amt)
		}()
	}
}

// Property: denominations are powers of two, strictly decreasing, and sum
// to the input.
func TestQuickSplitDenominations(t *testing.T) {
	f := func(raw uint32) bool {
		amt := Amount(raw%1_000_000) + 1
		parts := SplitDenominations(amt)
		var sum Amount
		prev := Amount(1) << 62
		for _, p := range parts {
			if p&(p-1) != 0 { // not a power of two
				return false
			}
			if p >= prev && len(parts) > 1 {
				return false
			}
			prev = p
			sum += p
		}
		return sum == amt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWithdrawAmountRoundTrip(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 1000)
	b.OpenAccount(2, 0)
	tokens, err := b.WithdrawAmount(1, 150, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tokensValue(tokens); got != 150 {
		t.Fatalf("token value %d", got)
	}
	if len(tokens) != 4 { // 128+16+4+2
		t.Fatalf("token count %d", len(tokens))
	}
	if bal, _ := b.Balance(1); bal != 850 {
		t.Fatalf("payer balance %d", bal)
	}
	n, err := b.DepositAll(2, tokens)
	if err != nil || n != 4 {
		t.Fatalf("deposited %d, err %v", n, err)
	}
	if bal, _ := b.Balance(2); bal != 150 {
		t.Fatalf("payee balance %d", bal)
	}
	if b.Float() != 0 {
		t.Fatalf("float %d", b.Float())
	}
}

func TestWithdrawAmountInsufficientKeepsPartial(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 130) // can afford the 128 token but not the rest of 150
	tokens, err := b.WithdrawAmount(1, 150, nil)
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v", err)
	}
	// The 128 token was withdrawn before the failure; caller keeps it.
	if got := tokensValue(tokens); got != 128 {
		t.Fatalf("partial tokens %d", got)
	}
	if bal, _ := b.Balance(1); bal != 2 {
		t.Fatalf("balance %d", bal)
	}
	// Conservation still holds: 2 in account + 128 float = 130.
	if got := b.TotalBalance() + b.Float(); got != 130 {
		t.Fatalf("conservation %d", got)
	}
}

func TestDepositAllStopsAtDoubleSpend(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100)
	b.OpenAccount(2, 0)
	tokens, err := b.WithdrawAmount(1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DepositAll(2, tokens); err != nil {
		t.Fatal(err)
	}
	n, err := b.DepositAll(2, tokens) // replay
	if !errors.Is(err, ErrDoubleSpend) {
		t.Fatalf("err = %v", err)
	}
	if n != 0 {
		t.Fatalf("replayed %d tokens", n)
	}
}

func TestWithdrawAmountValidation(t *testing.T) {
	b := freshBank(t)
	b.OpenAccount(1, 100)
	if _, err := b.WithdrawAmount(1, 0, nil); !errors.Is(err, ErrBadAmount) {
		t.Fatal("zero amount accepted")
	}
	if _, err := b.WithdrawAmount(1, -5, nil); !errors.Is(err, ErrBadAmount) {
		t.Fatal("negative amount accepted")
	}
}

// tokensValue sums the denominations of a token set.
func tokensValue(tokens []Token) Amount {
	var total Amount
	for _, t := range tokens {
		total += t.Denom
	}
	return total
}
