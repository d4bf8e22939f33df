package core

import (
	"fmt"
	"math"
)

// Credit fairness turns the one-shot Equation 13 mechanism into a repeated
// one: each tenant carries a decaying ledger of realized usage, and its
// budget for the next epoch tilts away from 1 in proportion to how far its
// decayed usage has fallen behind (or run ahead of) its decayed fair share.
// This is the online-fairness construction of the REF authors' follow-up
// (Zahedi & Freeman, "Credit Fairness") with the exponential half-life
// accounting popularized by time-aware schedulers: a tenant starved last
// epoch deserves a larger share now, and one that feasted owes some back —
// but only within a bounded tilt, so no tenant's instantaneous entitlement
// ever drops below MinBudget/(MaxBudget·N) of the machine.

// DefaultCreditMinBudget and DefaultCreditMaxBudget bound the budget tilt
// when credits are enabled and the caller does not override them. The
// defaults allow a 4× spread between the most-indebted and most-credited
// tenant, enough to correct imbalances within a couple of half-lives
// without letting any single epoch look confiscatory.
const (
	DefaultCreditMinBudget = 0.5
	DefaultCreditMaxBudget = 2.0
)

// CreditParams configures the time-aware credit ledger. The zero value
// disables credits entirely (every budget stays exactly 1).
type CreditParams struct {
	// HalfLifeSeconds is the usage half-life t½: ledger state decays by
	// 0.5^(Δt/t½) over an interval Δt. Zero (or negative) disables the
	// ledger.
	HalfLifeSeconds float64
	// MinBudget and MaxBudget clamp the tilt. They must satisfy
	// 0 < MinBudget ≤ 1 ≤ MaxBudget; zero values select the defaults.
	MinBudget float64
	MaxBudget float64
	// SmoothingSeconds is the τ regularizer in the budget ratio
	// (Fair+τ)/(Usage+τ), in the ledger's decayed-time units. It keeps
	// early-tenure budgets near 1 until the ledger has observed a
	// meaningful fraction of a half-life. Zero selects t½/4.
	SmoothingSeconds float64
}

// Enabled reports whether the ledger is active.
func (p CreditParams) Enabled() bool { return p.HalfLifeSeconds > 0 }

// WithDefaults fills zero fields with the default bounds and smoothing.
func (p CreditParams) WithDefaults() CreditParams {
	if !p.Enabled() {
		return CreditParams{}
	}
	if p.MinBudget == 0 {
		p.MinBudget = DefaultCreditMinBudget
	}
	if p.MaxBudget == 0 {
		p.MaxBudget = DefaultCreditMaxBudget
	}
	if p.SmoothingSeconds == 0 {
		p.SmoothingSeconds = p.HalfLifeSeconds / 4
	}
	return p
}

// Validate checks the parameter ranges (after defaulting).
func (p CreditParams) Validate() error {
	if !p.Enabled() {
		return nil
	}
	if math.IsNaN(p.HalfLifeSeconds) || math.IsInf(p.HalfLifeSeconds, 0) {
		return fmt.Errorf("%w: credit half-life = %v", ErrBadInput, p.HalfLifeSeconds)
	}
	if !(p.MinBudget > 0) || p.MinBudget > 1 || math.IsInf(p.MinBudget, 0) || math.IsNaN(p.MinBudget) {
		return fmt.Errorf("%w: credit min budget = %v, need 0 < min ≤ 1", ErrBadInput, p.MinBudget)
	}
	if p.MaxBudget < 1 || math.IsInf(p.MaxBudget, 0) || math.IsNaN(p.MaxBudget) {
		return fmt.Errorf("%w: credit max budget = %v, need max ≥ 1", ErrBadInput, p.MaxBudget)
	}
	if !(p.SmoothingSeconds > 0) || math.IsInf(p.SmoothingSeconds, 0) || math.IsNaN(p.SmoothingSeconds) {
		return fmt.Errorf("%w: credit smoothing = %v, must be positive and finite", ErrBadInput, p.SmoothingSeconds)
	}
	return nil
}

// Decay returns the ledger decay factor 0.5^(Δt/t½) for an interval of
// dtSeconds. Intervals never rewind: non-positive dt decays nothing.
func (p CreditParams) Decay(dtSeconds float64) float64 {
	if dtSeconds <= 0 || !p.Enabled() {
		return 1
	}
	return math.Exp2(-dtSeconds / p.HalfLifeSeconds)
}

// CreditAccount is one tenant's ledger state: exponentially decayed
// integrals of realized usage and of the fair (equal) share, both in
// normalized share-seconds. A fully-backlogged machine satisfies
// Σ_i Usage_i = Σ_i Fair_i at all times, so budgets below balance around 1.
// The zero value is a fresh (neutral) account.
type CreditAccount struct {
	// Usage is the decayed integral of the tenant's normalized share rate
	// s(t) = (1/R)·Σ_r x_r(t)/C_r.
	Usage float64
	// Fair is the decayed integral of the equal-split rate 1/N(t).
	Fair float64
}

// Accrue folds one interval into the account: prior state decays by the
// given factor, then usageDt and fairDt (rate × Δt) are added.
func (c *CreditAccount) Accrue(decay, usageDt, fairDt float64) {
	c.Usage = c.Usage*decay + usageDt
	c.Fair = c.Fair*decay + fairDt
}

// Budget converts an account into a credit-adjusted budget:
// clamp((Fair+τ)/(Usage+τ), MinBudget, MaxBudget). A fresh account (or a
// disabled ledger) yields exactly 1; a tenant whose decayed usage trails
// its decayed fair share is tilted up, one that ran ahead is tilted down.
func (p CreditParams) Budget(c CreditAccount) float64 {
	if !p.Enabled() {
		return 1
	}
	tau := p.SmoothingSeconds
	b := (c.Fair + tau) / (c.Usage + tau)
	if b < p.MinBudget {
		b = p.MinBudget
	}
	if b > p.MaxBudget {
		b = p.MaxBudget
	}
	return b
}

// ShareRate returns the normalized share rate (1/R)·Σ_r x_r/C_r of one
// allocation row — the "usage" the ledger integrates. Summing it over all
// agents of a fully-allocated machine gives exactly the fair total, which
// is what makes budgets balance around parity. Every ledger maintainer
// (the serve layer each epoch, the replay harness's mirror, the property
// stream) uses this one definition so their accruals agree bit for bit.
func ShareRate(row, capacity []float64) float64 {
	var s float64
	for r := range capacity {
		s += row[r] / capacity[r]
	}
	return s / float64(len(capacity))
}

// RowShareRate is ShareRate(RowFromSumsBudgeted(nil, weight, budget,
// sums, share, n), capacity) without materializing the row: the same
// per-resource expressions in the same order, so the result is
// bit-identical and an O(N) settlement walk needs no scratch row.
func RowShareRate(weight []float64, budget float64, sums, share []float64, n int, capacity []float64) float64 {
	var s float64
	for r := range capacity {
		var x float64
		if sums[r] > 0 {
			x = budget * weight[r] / sums[r] * share[r]
		} else {
			x = share[r] / float64(n)
		}
		s += x / capacity[r]
	}
	return s / float64(len(capacity))
}
