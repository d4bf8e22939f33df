package check

// The market stream cross-validates fair.MarketCertificate — the O(R) per
// agent audit the allocation service runs every epoch — against the
// pairwise §4 oracles it replaces there. Each trial's Equation 13 rows, at
// unit budgets and at budgets tilted across the credit ledger's [0.5, 2]
// clamp, must pass the certificate; and on those rows and on perturbed
// copies of them, whenever the certificate passes, the pairwise SI, EF,
// and PE audits (weighted when budgets tilt) must pass too. The
// perturbations straddle the certificate's slack — from below rounding up
// to percent-sized — so both sides of its decision boundary are probed.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/mech"
	"ref/internal/opt"
)

// marketPerturbations is the number of perturbed row sets per trial.
const marketPerturbations = 4

// MarketSubjects returns the market stream's subject: Equation 13 with the
// certificate differential at unit and at tilted budgets.
func MarketSubjects() []Subject {
	return []Subject{{Mechanism: mech.ProportionalElasticity{}, Oracles: []Oracle{
		MarketCertificateOracle(false),
		MarketCertificateOracle(true),
	}}}
}

// MarketCertificateOracle checks the certificate differential on the
// economy's Equation 13 rows — the mechanism's own at unit budgets, the
// budgeted mechanism's under tilt — and on perturbed copies. Budgets and
// perturbations derive from a hash of the economy, so the oracle is a
// pure function of its inputs.
func MarketCertificateOracle(tilt bool) Oracle {
	name := "market-certificate"
	if tilt {
		name += "-tilted"
	}
	return Oracle{Name: name, Check: func(ec Economy, _ mech.Mechanism, x opt.Alloc) []string {
		rng := rand.New(rand.NewSource(certSeed ^ economyHash(ec)))
		var budgets []float64
		if tilt {
			budgets = make([]float64, len(ec.Agents))
			for i := range budgets {
				budgets[i] = 0.5 * math.Pow(4, rng.Float64())
			}
			budgets[0], budgets[len(budgets)-1] = 0.5, 2 // the clamp's edges
			a, err := core.AllocateBudgeted(ec.Agents, budgets, ec.Cap)
			if err != nil {
				return []string{"budgeted allocation: " + err.Error()}
			}
			x = a.X
		}
		mk := MarketOf(ec, budgets)
		res, err := fair.MarketCertificate(utilsOf(ec), x, budgets, mk)
		if err != nil {
			return []string{"certificate error: " + err.Error()}
		}
		var out []string
		for _, v := range res.Violations {
			out = append(out, "certificate rejects Equation 13 rows: "+v.String())
		}
		out = append(out, MarketDifferential(ec, budgets, x)...)
		for k := 0; k < marketPerturbations; k++ {
			kind, who := rng.Intn(4), rng.Intn(len(x))
			r, s := rng.Intn(len(ec.Cap)), rng.Intn(len(ec.Cap))
			eps := math.Pow(10, -16+14*rng.Float64())
			y := PerturbRows(x, mk, kind, who, r, s, eps)
			for _, f := range MarketDifferential(ec, budgets, y) {
				out = append(out, fmt.Sprintf("perturbation %d (agent %d, resources %d/%d, eps %.3g): %s", kind, who, r, s, eps, f))
			}
		}
		return out
	}}
}

// MarketOf returns the economy's Equation 13 market at the given budgets
// (nil = unit): the compensated sums S_r = Σ_i b_i·α̂_ir and the capacities.
func MarketOf(ec Economy, budgets []float64) fair.Market {
	sums := make([]core.CompSum, len(ec.Cap))
	for i, a := range ec.Agents {
		b := 1.0
		if budgets != nil {
			b = budgets[i]
		}
		s := a.Utility.ElasticitySum()
		for r, v := range a.Utility.Alpha {
			sums[r].Add(b * (v / s))
		}
	}
	mk := fair.Market{Sums: make([]float64, len(ec.Cap)), Capacity: ec.Cap}
	for r := range sums {
		mk.Sums[r] = sums[r].Value()
	}
	return mk
}

// MarketDifferential returns one finding per pairwise §4 violation on
// rows x that the certificate accepted, and nothing when the
// certificate rejects x: a pass must imply SI, EF, and PE (SI and EF in
// their weighted forms when budgets tilt).
func MarketDifferential(ec Economy, budgets []float64, x opt.Alloc) []string {
	utils := utilsOf(ec)
	cert, err := fair.MarketCertificate(utils, x, budgets, MarketOf(ec, budgets))
	if err != nil {
		return []string{"certificate error: " + err.Error()}
	}
	if !cert.Satisfied {
		return nil
	}
	tol := fair.DefaultTolerance()
	si, errSI := fair.WeightedSharingIncentives(utils, ec.Cap, x, budgets, tol)
	ef, errEF := fair.WeightedEnvyFreeness(utils, x, budgets, tol)
	pe, errPE := fair.ParetoEfficiency(utils, ec.Cap, x, tol)
	if err := errors.Join(errSI, errEF, errPE); err != nil {
		return []string{"pairwise audit error: " + err.Error()}
	}
	var out []string
	for _, res := range []fair.Result{si, ef, pe} {
		for _, v := range res.Violations {
			out = append(out, "certificate passed but "+v.String())
		}
	}
	return out
}

// PerturbRows returns a copy of x with one perturbation of relative size
// eps applied: kind 0 scales agent who's row (the income check's
// mutant), 1 moves money between resources r and s of that row at market
// prices (demand), 2 scales every row down (clearing), and 3 scales the
// single entry x[who][r] (demand and income).
func PerturbRows(x opt.Alloc, mk fair.Market, kind, who, r, s int, eps float64) opt.Alloc {
	y := make(opt.Alloc, len(x))
	for i, row := range x {
		y[i] = append([]float64(nil), row...)
	}
	switch kind {
	case 0:
		for j := range y[who] {
			y[who][j] *= 1 + eps
		}
	case 1:
		if r != s && mk.Sums[r] > 0 && mk.Sums[s] > 0 {
			pr, ps := mk.Sums[r]/mk.Capacity[r], mk.Sums[s]/mk.Capacity[s]
			money := eps * y[who][r] * pr
			y[who][r] -= money / pr
			y[who][s] += money / ps
		}
	case 2:
		for _, row := range y {
			for j := range row {
				row[j] *= 1 - eps
			}
		}
	default:
		y[who][r] *= 1 + eps
	}
	return y
}

// economyHash fingerprints an economy's numbers, seeding oracle
// randomness that must follow the economy through shrinking.
func economyHash(ec Economy) int64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, c := range ec.Cap {
		put(c)
	}
	for _, a := range ec.Agents {
		put(a.Utility.Alpha0)
		for _, v := range a.Utility.Alpha {
			put(v)
		}
	}
	return int64(h.Sum64())
}
