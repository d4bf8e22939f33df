package fair

import (
	"math/rand"
	"testing"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/opt"
)

// eq13Market returns the budgeted Equation 13 rows of agents (nil budgets
// = unit) and the market they clear in.
func eq13Market(t *testing.T, agents []core.Agent, budgets, cap []float64) (opt.Alloc, Market) {
	t.Helper()
	a, err := core.AllocateBudgeted(agents, budgets, cap)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]core.CompSum, len(cap))
	for i, ag := range agents {
		b := 1.0
		if budgets != nil {
			b = budgets[i]
		}
		for r, w := range ag.Utility.Rescaled().Alpha {
			sums[r].Add(b * w)
		}
	}
	m := Market{Sums: make([]float64, len(cap)), Capacity: cap}
	for r := range sums {
		m.Sums[r] = sums[r].Value()
	}
	return a.X, m
}

// certify runs the whole-market certificate and fails the test on an
// input error.
func certify(t *testing.T, agents []core.Agent, x opt.Alloc, budgets []float64, m Market) Result {
	t.Helper()
	res, err := MarketCertificate(utilsOf(agents), x, budgets, m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// failedChecks lists the certificate checks a result failed, once each.
func failedChecks(res Result) map[string]bool {
	out := map[string]bool{}
	for _, v := range res.Violations {
		out[v.Property] = true
	}
	return out
}

func copyRows(x opt.Alloc) opt.Alloc {
	y := make(opt.Alloc, len(x))
	for i, row := range x {
		y[i] = append([]float64(nil), row...)
	}
	return y
}

// Equation 13 rows certify at unit budgets and at budgets spanning the
// credit ledger's [0.5, 2] clamp, and the pairwise audits agree.
func TestMarketCertificateEquation13(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tol := DefaultTolerance()
	for trial := 0; trial < 40; trial++ {
		_, agents, cap := randomEconomy(t, rng, 2+rng.Intn(12), 2+rng.Intn(4))
		for _, budgets := range [][]float64{nil, clampBudgets(rng, len(agents))} {
			x, m := eq13Market(t, agents, budgets, cap)
			if res := certify(t, agents, x, budgets, m); !res.Satisfied {
				t.Fatalf("trial %d budgets %v: Equation 13 rows rejected: %v", trial, budgets, res.Violations)
			}
			utils := utilsOf(agents)
			si, _ := WeightedSharingIncentives(utils, cap, x, budgets, tol)
			ef, _ := WeightedEnvyFreeness(utils, x, budgets, tol)
			pe, _ := ParetoEfficiency(utils, cap, x, tol)
			if !si.Satisfied || !ef.Satisfied || !pe.Satisfied {
				t.Fatalf("trial %d: pairwise audits disagree with the certificate: %v %v %v",
					trial, si.Violations, ef.Violations, pe.Violations)
			}
		}
	}
}

// clampBudgets draws budgets in [0.5, 2] with both clamp edges present.
func clampBudgets(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 0.5 + 1.5*rng.Float64()
	}
	b[0], b[n-1] = 0.5, 2
	return b
}

// The three mutants each fail the check written for them: a row scaled
// uniformly keeps its composition (demand passes) but costs more than
// its budget; mass moved between resources at market prices keeps the
// cost but leaves the demand; rows and budgets scaled down together keep
// every agent's demand and income but leave capacity unsold.
func TestMarketCertificateMutants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, agents, cap := randomEconomy(t, rng, 6, 3)
	x, m := eq13Market(t, agents, nil, cap)

	scaled := copyRows(x)
	for r := range scaled[2] {
		scaled[2][r] *= 1.01
	}
	if got := failedChecks(certify(t, agents, scaled, nil, m)); !got["income"] || got["demand"] {
		t.Errorf("row scaled uniformly: failed checks %v, want income, not demand", got)
	}

	moved := copyRows(x)
	money := 0.1 * moved[4][0] * m.Sums[0] / cap[0]
	moved[4][0] -= money / (m.Sums[0] / cap[0])
	moved[4][1] += money / (m.Sums[1] / cap[1])
	if got := failedChecks(certify(t, agents, moved, nil, m)); !got["demand"] {
		t.Errorf("mass moved between resources: failed checks %v, want demand", got)
	}

	shrunk := copyRows(x)
	budgets := make([]float64, len(agents))
	for i, row := range shrunk {
		for r := range row {
			row[r] *= 0.9
		}
		budgets[i] = 0.9
	}
	if got := failedChecks(certify(t, agents, shrunk, budgets, m)); !got["clearing"] || got["demand"] || got["income"] {
		t.Errorf("all rows scaled down: failed checks %v, want clearing only", got)
	}
}

// Passing corners: a resource nobody values (S_r = 0, free, split
// equally), a resource with no capacity (a leaf without share of it),
// a single agent holding everything, and budgets at the clamp edges.
func TestMarketCertificateEdges(t *testing.T) {
	agent := func(alpha ...float64) core.Agent { return core.Agent{Utility: cobb.MustNew(1, alpha...)} }

	unvalued := []core.Agent{agent(1, 2, 0), agent(3, 1, 0), agent(1, 1, 0)}
	x, m := eq13Market(t, unvalued, nil, []float64{6, 3, 9})
	if m.Sums[2] != 0 || x[0][2] != 3 {
		t.Fatalf("setup: sums %v, rows %v", m.Sums, x)
	}
	if res := certify(t, unvalued, x, nil, m); !res.Satisfied {
		t.Errorf("resource nobody values: %v", res.Violations)
	}

	x, m = eq13Market(t, []core.Agent{agent(1, 2, 0.5)}, nil, []float64{6, 3, 9})
	if res := certify(t, []core.Agent{agent(1, 2, 0.5)}, x, nil, m); !res.Satisfied {
		t.Errorf("single agent: %v", res.Violations)
	}

	// Equation 13 rows over a leaf share without resource 1: the market's
	// sums still carry agent 0's weight on it, but nobody gets any.
	noShare := []core.Agent{agent(1, 2), agent(2, 0)}
	m = Market{Sums: []float64{4.0 / 3, 2.0 / 3}, Capacity: []float64{4, 0}}
	x = opt.Alloc{
		core.RowFromSumsBudgeted(nil, []float64{1.0 / 3, 2.0 / 3}, 1, m.Sums, m.Capacity, 2),
		core.RowFromSumsBudgeted(nil, []float64{1, 0}, 1, m.Sums, m.Capacity, 2),
	}
	if res := certify(t, noShare, x, nil, m); !res.Satisfied {
		t.Errorf("resource without capacity: %v", res.Violations)
	}
	x[0][1] = 1e-9
	if got := failedChecks(certify(t, noShare, x, nil, m)); !got["demand"] {
		t.Errorf("holding a resource without capacity: failed checks %v, want demand", got)
	}

	clamp := []core.Agent{agent(1, 2), agent(2, 1), agent(1, 1)}
	budgets := []float64{0.5, 2, 1}
	x, m = eq13Market(t, clamp, budgets, []float64{6, 3})
	if res := certify(t, clamp, x, budgets, m); !res.Satisfied {
		t.Errorf("clamp-edge budgets: %v", res.Violations)
	}
	if got := failedChecks(certify(t, clamp, x, []float64{2, 0.5, 1}, m)); !got["income"] {
		t.Errorf("rows certified against swapped budgets: failed checks %v, want income", got)
	}
}

func TestMarketCertificateValidation(t *testing.T) {
	utils := []cobb.Utility{cobb.MustNew(1, 1, 1)}
	x := opt.Alloc{{1, 1}}
	if _, err := MarketCertificate(utils, x, nil, Market{Sums: []float64{1}, Capacity: []float64{1, 1}}); err == nil {
		t.Error("sums/capacity length mismatch accepted")
	}
	if _, err := MarketCertificate(utils, x, []float64{1, 1}, Market{Sums: []float64{1, 1}, Capacity: []float64{1, 1}}); err == nil {
		t.Error("budget count mismatch accepted")
	}
}
