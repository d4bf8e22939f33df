package fair

import (
	"fmt"
	"math"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/opt"
)

// The market certificate. Equation 13's row x_ir = b_i·α̂_ir·C_r/S_r is
// agent i's Cobb-Douglas demand at prices p_r = S_r/C_r and income b_i,
// where S_r = Σ_j b_j·α̂_jr are the budgeted elasticity sums: the
// allocation is the competitive equilibrium from incomes b (CEEI at unit
// budgets). So three O(R) checks per agent prove the §4 properties
// without comparing agents pairwise:
//
//   - demand: x_ir·p_r = α̂_ir·m_i for every resource, m_i = p·x_i — the
//     row maximizes u_i over everything costing m_i;
//   - income: m_i = b_i — at unit budgets every bundle costs the same, so
//     nobody envies anybody (EF over all N² pairs), and the equal split
//     C/N, costing Σ_r S_r/N = 1, is affordable to all (SI); with tilted
//     budgets the same argument gives the weighted EF and SI;
//   - clearing: Σ_i x_ir = C_r — with demand, PE by the first welfare
//     theorem. It needs every member's row, so it runs only when the
//     whole market is audited.

// EpsMarketRel is the relative slack of the certificate's checks. It sits
// three decades above the rounding an Equation 13 row carries (a few
// ulps) and three below DefaultTolerance().Rel, so an agent whose
// elasticities sum to s moves at most ~2·s·EpsMarketRel against any
// pairwise margin: the certificate implies the pairwise audits for
// elasticity sums up to ~500.
const EpsMarketRel = 1e-12

// Market is one Equation 13 market: the budgeted elasticity sums S_r its
// members' rows were computed from and the capacity C_r they split (the
// machine, or a leaf queue's share).
type Market struct {
	Sums, Capacity []float64
}

// price is p_r. A resource with no capacity is not traded (ok false); a
// resource nobody values (S_r ≤ 0, split equally by Equation 13) is free.
func (m Market) price(r int) (p float64, ok bool) {
	if !(m.Capacity[r] > 0) {
		return 0, false
	}
	if m.Sums[r] > 0 {
		return m.Sums[r] / m.Capacity[r], true
	}
	return 0, true
}

// Certify runs the demand and income checks on one member's row. It
// returns the failed check as a Violation (Property "demand" or
// "income", Agent 0 for the caller to set) and false, or true when the
// row is the member's demand at its budget. α̂ comes from the declared
// utility, never from the weights the row was computed from, so a row
// built from corrupted weights fails. A resource without capacity must be
// empty, and the member's income covers only the share α̂ of its
// preferences that is traded; a member that values only untraded
// resources gets utility 0 from every bundle and passes.
func (m Market) Certify(u cobb.Utility, row []float64, budget float64) (Violation, bool) {
	s := u.ElasticitySum()
	money, traded := 0.0, 0.0
	for r := range m.Capacity {
		p, ok := m.price(r)
		if !ok {
			if row[r] != 0 {
				return Violation{Property: "demand", Other: r, Margin: math.Inf(1)}, false
			}
			continue
		}
		money += row[r] * p
		traded += u.Alpha[r] / s
	}
	if traded == 0 {
		return Violation{}, true
	}
	for r := range m.Capacity {
		if p, ok := m.price(r); ok {
			want := u.Alpha[r] / s * money / traded
			if d := math.Abs(row[r]*p - want); !(d <= EpsMarketRel*want) {
				return Violation{Property: "demand", Other: r, Margin: d / money}, false
			}
		}
	}
	want := budget * traded
	if d := math.Abs(money - want); !(d <= EpsMarketRel*want) {
		return Violation{Property: "income", Other: -1, Margin: d / want}, false
	}
	return Violation{}, true
}

// Clearing runs the clearing check on the market's per-resource row
// totals Σ_i x_ir over every member, appending one violation (Agent -1,
// Other the resource) per resource that misses its capacity.
func (m Market) Clearing(total []core.CompSum, out []Violation) []Violation {
	for r, c := range m.Capacity {
		if d := math.Abs(total[r].Value() - c); !(d <= EpsMarketRel*c) {
			out = append(out, Violation{Property: "clearing", Agent: -1, Other: r, Margin: d / c})
		}
	}
	return out
}

// MarketCertificate runs all three checks on a whole market: its
// members' utilities, published rows, and budgets (nil = unit budgets).
// An audit of part of a market runs Certify per member instead; clearing
// then is the caller's to establish (for Equation 13 rows it holds
// analytically from the sums).
func MarketCertificate(utils []cobb.Utility, x opt.Alloc, budgets []float64, m Market) (Result, error) {
	if err := validate(utils, m.Capacity, x); err != nil {
		return Result{}, err
	}
	if len(m.Sums) != len(m.Capacity) {
		return Result{}, fmt.Errorf("%w: %d sums for %d resources", ErrBadInput, len(m.Sums), len(m.Capacity))
	}
	if budgets != nil && len(budgets) != len(utils) {
		return Result{}, fmt.Errorf("%w: %d budgets for %d agents", ErrBadInput, len(budgets), len(utils))
	}
	var res Result
	total := make([]core.CompSum, len(m.Capacity))
	for i, u := range utils {
		b := 1.0
		if budgets != nil {
			b = budgets[i]
		}
		if v, ok := m.Certify(u, x[i], b); !ok {
			v.Agent = i
			res.Violations = append(res.Violations, v)
		}
		for r, v := range x[i] {
			total[r].Add(v)
		}
	}
	res.Violations = m.Clearing(total, res.Violations)
	res.Satisfied = len(res.Violations) == 0
	recordCheck("market", res.Satisfied)
	return res, nil
}

// Unproven maps a failed certificate check to the §4 properties it leaves
// unproven: demand underlies all three, income SI and EF, and clearing
// SI (the equal split's price) and PE.
func Unproven(check string) (si, ef, pe bool) {
	switch check {
	case "demand":
		return true, true, true
	case "income":
		return true, true, false
	default:
		return true, false, true
	}
}
