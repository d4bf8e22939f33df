package check

import (
	"math"
	"testing"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
)

// FuzzMarketCertificate is the market certificate's differential target:
// on fuzzed three-agent, two-resource economies with budgets inside the
// credit ledger's [0.5, 2] clamp, the Equation 13 rows must certify, and
// on a perturbed copy of them (kind, agent, and resources from the fuzzed
// selector, size eps) a certificate pass must imply the pairwise SI, EF,
// and PE audits.
func FuzzMarketCertificate(f *testing.F) {
	f.Add(0.6, 0.4, 0.2, 0.8, 1.0, 1.0, 1.0, 1.0, 1.0, 24.0, 12.0, uint8(0), uint8(1), 1e-13)
	f.Add(1.0, 1e-6, 1e-6, 1.0, 8.0, 8.0, 0.5, 2.0, 1.0, 1.0, 1.0, uint8(1), uint8(0), 1e-11)
	f.Add(5.0, 0.0, 3.0, 3.0, 0.0, 2.0, 2.0, 0.5, 0.5, 0.1, 32.0, uint8(2), uint8(2), 3e-12)
	f.Add(0.33, 0.33, 0.33, 0.34, 0.3, 0.3, 1.0, 1.0, 2.0, 12.8, 2.0, uint8(7), uint8(1), 1e-3)
	// Perturbations the pairwise audits see once elasticity sums of 16
	// amplify them: the certificate must reject them, and one loosened
	// to accept them fails here.
	f.Add(8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 1.0, 1.0, 1.0, 3.0, 5.0, uint8(0), uint8(0), 5e-8)
	f.Add(8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 0.5, 2.0, 1.0, 3.0, 5.0, uint8(3), uint8(1), 5e-8)
	f.Fuzz(func(t *testing.T, a00, a01, a10, a11, a20, a21, b0, b1, b2, c0, c1 float64, sel, who uint8, eps float64) {
		for _, a := range []float64{a00, a01, a10, a11, a20, a21} {
			if a != 0 && !(a >= 1e-6 && a <= 8) {
				return
			}
		}
		budgets := []float64{b0, b1, b2}
		for _, b := range budgets {
			if !(b >= 0.5 && b <= 2) {
				return
			}
		}
		for _, c := range []float64{c0, c1} {
			if !(c >= 1e-3 && c <= 1e6) {
				return
			}
		}
		if !(math.Abs(eps) <= 0.1) {
			return
		}
		ec := Economy{Class: "fuzz", Cap: []float64{c0, c1}, Agents: []core.Agent{
			{Name: "a0", Utility: cobb.Utility{Alpha0: 1, Alpha: []float64{a00, a01}}},
			{Name: "a1", Utility: cobb.Utility{Alpha0: 1, Alpha: []float64{a10, a11}}},
			{Name: "a2", Utility: cobb.Utility{Alpha0: 1, Alpha: []float64{a20, a21}}},
		}}
		if ec.Validate() != nil {
			return // an all-zero elasticity vector
		}
		a, err := core.AllocateBudgeted(ec.Agents, budgets, ec.Cap)
		if err != nil {
			t.Fatalf("Equation 13 rejected a valid economy: %v", err)
		}
		mk := MarketOf(ec, budgets)
		res, err := fair.MarketCertificate(utilsOf(ec), a.X, budgets, mk)
		if err != nil || !res.Satisfied {
			t.Fatalf("Equation 13 rows rejected: %v %v", err, res.Violations)
		}
		y := PerturbRows(a.X, mk, int(sel%4), int(who%3), int(sel/4%2), int(sel/8%2), eps)
		for _, finding := range MarketDifferential(ec, budgets, y) {
			t.Error(finding)
		}
		if t.Failed() {
			t.Logf("economy:\n%#v\nbudgets %v, rows %v", ec, budgets, y)
		}
	})
}
