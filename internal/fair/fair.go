// Package fair verifies the game-theoretic properties the REF paper is
// built around: sharing incentives (SI, Equation 3), envy-freeness (EF,
// §3.2), and Pareto efficiency (PE, §3.3). Mechanisms produce allocations;
// this package independently audits them, so the paper's claims ("equal
// slowdown violates SI and EF", "proportional elasticity provides all
// three") become executable checks rather than prose. It also implements
// the Edgeworth-box geometry used in Figures 1–7 for two-agent, two-resource
// economies: envy-free regions, the contract curve, the sharing-incentive
// lens, and the fair allocation set.
package fair

import (
	"errors"
	"fmt"
	"math"

	"ref/internal/cobb"
	"ref/internal/obs"
	"ref/internal/opt"
)

// ErrBadInput reports malformed checker inputs.
var ErrBadInput = errors.New("fair: bad input")

// The package's numeric slack constants, hoisted to one exported set so the
// audits here, the Edgeworth-box geometry, the Pareto certificate search,
// and the property-based oracles in internal/check all agree on what counts
// as a violation and cannot drift apart.
const (
	// EpsUtilityRel is the relative utility slack for exact (closed-form)
	// comparisons: two utilities within this factor are considered equal.
	EpsUtilityRel = 1e-12
	// EpsCapacityRel is the relative slack for capacity exhaustion and
	// feasibility totals.
	EpsCapacityRel = 1e-6
	// EpsTradeGain is the minimum relative utility gain both parties of a
	// bilateral trade must realize before the trade counts as a Pareto
	// improvement.
	EpsTradeGain = 1e-9
)

// Tolerance bundles the numeric slack used when auditing allocations.
// Utilities are floating-point products of powers, so every property is
// checked up to a relative margin.
type Tolerance struct {
	// Rel is the relative slack for utility comparisons (SI, EF).
	Rel float64
	// MRS is the relative slack for marginal-rate-of-substitution equality
	// (PE), which is more sensitive because it involves ratios.
	MRS float64
}

// DefaultTolerance is appropriate for allocations computed in float64.
func DefaultTolerance() Tolerance { return Tolerance{Rel: 1e-9, MRS: 1e-6} }

// SolverTolerance is appropriate for allocations produced by the iterative
// penalty-method solvers in internal/opt, whose constraint tolerance leaves
// residual slack far above float64 rounding.
func SolverTolerance() Tolerance { return Tolerance{Rel: 5e-3, MRS: 0.05} }

// recordCheck counts one property-audit outcome on the installed obs
// registry as ref_fair_checks_total{property=...,result=...}. The enabled
// check precedes the Sprintf so disabled runs pay one pointer load.
func recordCheck(property string, satisfied bool) {
	r := obs.Installed()
	if r == nil {
		return
	}
	result := "fail"
	if satisfied {
		result = "pass"
	}
	r.Counter(fmt.Sprintf("ref_fair_checks_total{property=%q,result=%q}", property, result)).Inc()
}

// Violation describes one failed property instance.
type Violation struct {
	// Property is "SI", "EF", or "PE", or one of the market
	// certificate's checks: "demand", "income", or "clearing".
	Property string
	// Agent is the aggrieved agent's index.
	Agent int
	// Other is the envied agent for EF, the resource for demand and
	// clearing, -1 otherwise.
	Other int
	// Margin quantifies the violation: how much better (relatively) the
	// alternative is than the agent's own bundle.
	Margin float64
}

// String renders the violation for reports.
func (v Violation) String() string {
	switch v.Property {
	case "EF":
		return fmt.Sprintf("EF: agent %d envies agent %d (margin %.3g)", v.Agent, v.Other, v.Margin)
	case "SI":
		return fmt.Sprintf("SI: agent %d prefers the equal split (margin %.3g)", v.Agent, v.Margin)
	case "demand":
		return fmt.Sprintf("demand: agent %d's row is not its demand at resource %d's price (margin %.3g)", v.Agent, v.Other, v.Margin)
	case "income":
		return fmt.Sprintf("income: agent %d's row does not cost its budget (margin %.3g)", v.Agent, v.Margin)
	case "clearing":
		return fmt.Sprintf("clearing: resource %d's rows do not sum to its capacity (margin %.3g)", v.Other, v.Margin)
	default:
		return fmt.Sprintf("%s: agent %d (margin %.3g)", v.Property, v.Agent, v.Margin)
	}
}

// Result is the outcome of one property audit.
type Result struct {
	Satisfied  bool
	Violations []Violation
}

func validate(utils []cobb.Utility, cap []float64, x opt.Alloc) error {
	if len(utils) == 0 {
		return fmt.Errorf("%w: no agents", ErrBadInput)
	}
	if len(x) != len(utils) {
		return fmt.Errorf("%w: %d allocation rows for %d agents", ErrBadInput, len(x), len(utils))
	}
	for i, u := range utils {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("%w: agent %d: %v", ErrBadInput, i, err)
		}
		if cap != nil && u.NumResources() != len(cap) {
			return fmt.Errorf("%w: agent %d has %d resources, system has %d", ErrBadInput, i, u.NumResources(), len(cap))
		}
		if len(x[i]) != u.NumResources() {
			return fmt.Errorf("%w: allocation row %d has %d resources, agent has %d", ErrBadInput, i, len(x[i]), u.NumResources())
		}
	}
	return nil
}

// SharingIncentives audits Equation 3: every agent weakly prefers its bundle
// to the equal split C/N.
func SharingIncentives(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Result, error) {
	if err := validate(utils, cap, x); err != nil {
		return Result{}, err
	}
	n := len(utils)
	equal := make([]float64, len(cap))
	for r, c := range cap {
		equal[r] = c / float64(n)
	}
	res := Result{Satisfied: true}
	for i, u := range utils {
		own := u.Eval(x[i])
		split := u.Eval(equal)
		if own < split*(1-tol.Rel) {
			res.Satisfied = false
			res.Violations = append(res.Violations, Violation{
				Property: "SI", Agent: i, Other: -1, Margin: split/math.Max(own, 1e-300) - 1,
			})
		}
	}
	recordCheck("SI", res.Satisfied)
	return res, nil
}

// EnvyFreeness audits §3.2: no agent strictly prefers another agent's
// bundle to its own, evaluated with its own utility.
func EnvyFreeness(utils []cobb.Utility, x opt.Alloc, tol Tolerance) (Result, error) {
	if err := validate(utils, nil, x); err != nil {
		return Result{}, err
	}
	res := Result{Satisfied: true}
	for i, u := range utils {
		own := u.Eval(x[i])
		for j := range utils {
			if i == j {
				continue
			}
			other := u.Eval(x[j])
			if other > own*(1+tol.Rel) && other > own+1e-300 {
				res.Satisfied = false
				res.Violations = append(res.Violations, Violation{
					Property: "EF", Agent: i, Other: j, Margin: other/math.Max(own, 1e-300) - 1,
				})
			}
		}
	}
	recordCheck("EF", res.Satisfied)
	return res, nil
}

// ParetoEfficiency audits §3.3 for interior allocations: capacity must be
// exhausted and all agents' marginal rates of substitution must agree for
// every resource pair (the tangency condition, Equation 10). Agents with a
// zero elasticity for some resource are excluded from that pair's MRS
// comparison — their indifference curves are flat in that direction and the
// tangency condition does not bind them.
func ParetoEfficiency(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Result, error) {
	if err := validate(utils, cap, x); err != nil {
		return Result{}, err
	}
	res := Result{Satisfied: true}
	// Capacity exhaustion: strictly monotone utilities mean slack capacity
	// is always a Pareto improvement waiting to happen.
	tot := x.ResourceTotals()
	for r, c := range cap {
		if tot[r] < c*(1-EpsCapacityRel) {
			res.Satisfied = false
			res.Violations = append(res.Violations, Violation{Property: "PE", Agent: -1, Other: r, Margin: 1 - tot[r]/c})
		}
	}
	rN := len(cap)
	for r := 0; r < rN; r++ {
		for s := r + 1; s < rN; s++ {
			ref := math.NaN()
			refAgent := -1
			for i, u := range utils {
				if u.Alpha[r] == 0 || u.Alpha[s] == 0 {
					continue
				}
				if x[i][r] <= 0 || x[i][s] <= 0 {
					continue
				}
				m := u.MRS(r, s, x[i])
				if math.IsNaN(ref) {
					ref, refAgent = m, i
					continue
				}
				if math.Abs(m-ref) > tol.MRS*math.Max(math.Abs(ref), 1) {
					res.Satisfied = false
					res.Violations = append(res.Violations, Violation{
						Property: "PE", Agent: i, Other: refAgent, Margin: math.Abs(m-ref) / math.Max(math.Abs(ref), 1e-300),
					})
				}
			}
		}
	}
	recordCheck("PE", res.Satisfied)
	return res, nil
}

// Report is a combined audit of one allocation.
type Report struct {
	SI, EF, PE Result
}

// Fair reports EF ∧ PE, the paper's (economic) definition of fairness.
func (r Report) Fair() bool { return r.EF.Satisfied && r.PE.Satisfied }

// All reports SI ∧ EF ∧ PE.
func (r Report) All() bool { return r.SI.Satisfied && r.EF.Satisfied && r.PE.Satisfied }

// String summarizes the audit as e.g. "SI=✓ EF=✗ PE=✓".
func (r Report) String() string {
	mark := func(b bool) string {
		if b {
			return "✓"
		}
		return "✗"
	}
	return fmt.Sprintf("SI=%s EF=%s PE=%s", mark(r.SI.Satisfied), mark(r.EF.Satisfied), mark(r.PE.Satisfied))
}

// Audit runs all three property checks.
func Audit(utils []cobb.Utility, cap []float64, x opt.Alloc, tol Tolerance) (Report, error) {
	si, err := SharingIncentives(utils, cap, x, tol)
	if err != nil {
		return Report{}, err
	}
	ef, err := EnvyFreeness(utils, x, tol)
	if err != nil {
		return Report{}, err
	}
	pe, err := ParetoEfficiency(utils, cap, x, tol)
	if err != nil {
		return Report{}, err
	}
	return Report{SI: si, EF: ef, PE: pe}, nil
}
