package check

import (
	"fmt"
	"math"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/leontief"
	"ref/internal/mech"
	"ref/internal/opt"
	"ref/internal/spl"
)

// certSeed seeds the Pareto-certificate trade search and any other oracle
// randomness, keeping every oracle a pure function of its inputs.
const certSeed = 20140301

// certTrials bounds the random bilateral-trade search per PE check.
const certTrials = 128

// Oracle checks one invariant of a mechanism's allocation on an economy.
// Check returns one human-readable finding per violation instance (empty
// means the invariant holds). Oracles must be deterministic: same inputs,
// same findings — the shrinker depends on it.
type Oracle struct {
	Name  string
	Check func(ec Economy, m mech.Mechanism, x opt.Alloc) []string
}

// Subject pairs a mechanism with the oracles its contract promises.
// Mechanisms differ: equal split never claims Pareto efficiency, the unfair
// welfare maximum never claims envy-freeness.
type Subject struct {
	Mechanism mech.Mechanism
	Oracles   []Oracle
}

// utilsOf extracts the utility slice of the economy's agents.
func utilsOf(ec Economy) []cobb.Utility {
	us := make([]cobb.Utility, len(ec.Agents))
	for i, a := range ec.Agents {
		us[i] = a.Utility
	}
	return us
}

// close reports |a−b| ≤ rel·max(|a|,|b|) + abs.
func closeTo(a, b, rel, abs float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*m+abs
}

// violationsToFindings renders a fair audit result.
func violationsToFindings(res fair.Result) []string {
	out := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		out = append(out, v.String())
	}
	return out
}

// Feasibility checks that the allocation is a real allocation: finite
// non-negative entries with per-resource totals within capacity. With
// exhaustive set, totals must also reach capacity — for strictly monotone
// utilities, slack is a Pareto improvement waiting to happen.
func Feasibility(exhaustive bool) Oracle {
	name := "feasibility"
	if exhaustive {
		name = "feasibility-exhaustive"
	}
	return Oracle{Name: name, Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		var out []string
		if len(x) != len(ec.Agents) {
			return []string{fmt.Sprintf("allocation has %d rows for %d agents", len(x), len(ec.Agents))}
		}
		for i, row := range x {
			if len(row) != len(ec.Cap) {
				out = append(out, fmt.Sprintf("agent %d row has %d resources, economy has %d", i, len(row), len(ec.Cap)))
				continue
			}
			for r, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < -1e-12*ec.Cap[r] {
					out = append(out, fmt.Sprintf("agent %d resource %d allocation %v", i, r, v))
				}
			}
		}
		if len(out) > 0 {
			return out
		}
		tot := x.ResourceTotals()
		for r, c := range ec.Cap {
			if tot[r] > c*(1+fair.EpsCapacityRel) {
				out = append(out, fmt.Sprintf("resource %d oversubscribed: total %v > capacity %v", r, tot[r], c))
			}
			if exhaustive && tot[r] < c*(1-fair.EpsCapacityRel) {
				out = append(out, fmt.Sprintf("resource %d underallocated: total %v < capacity %v", r, tot[r], c))
			}
		}
		return out
	}}
}

// SIOracle audits sharing incentives (Theorem 4 / Equation 3).
func SIOracle(tol fair.Tolerance) Oracle {
	return Oracle{Name: "sharing-incentives", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		res, err := fair.SharingIncentives(utilsOf(ec), ec.Cap, x, tol)
		if err != nil {
			return []string{"audit error: " + err.Error()}
		}
		return violationsToFindings(res)
	}}
}

// EFOracle audits envy-freeness (Theorem 5).
func EFOracle(tol fair.Tolerance) Oracle {
	return Oracle{Name: "envy-freeness", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		res, err := fair.EnvyFreeness(utilsOf(ec), x, tol)
		if err != nil {
			return []string{"audit error: " + err.Error()}
		}
		return violationsToFindings(res)
	}}
}

// PEOracle audits Pareto efficiency (Theorem 6) two ways: the analytic
// interior condition (capacity exhaustion plus MRS tangency) and the
// randomized bilateral-trade certificate search, which also probes boundary
// allocations the first-order condition cannot see.
func PEOracle(tol fair.Tolerance) Oracle {
	return Oracle{Name: "pareto-efficiency", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		utils := utilsOf(ec)
		res, err := fair.ParetoEfficiency(utils, ec.Cap, x, tol)
		if err != nil {
			return []string{"audit error: " + err.Error()}
		}
		out := violationsToFindings(res)
		imp, err := fair.ParetoCertificate(utils, x, certTrials, certSeed)
		if err != nil {
			return append(out, "certificate error: "+err.Error())
		}
		if imp != nil {
			out = append(out, "Pareto improvement found: "+imp.String())
		}
		return out
	}}
}

// CEEIOracle is the differential reference for the REF closed form: the
// Competitive Equilibrium from Equal Incomes built from the same economy
// must demand exactly the REF allocation (§4.2), clear the market, and
// leave every agent spending exactly its (normalized) unit budget — the
// harness's budget-feasibility check.
func CEEIOracle() Oracle {
	return Oracle{Name: "ceei-differential", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		ceei, err := core.ComputeCEEI(ec.Agents, ec.Cap)
		if err != nil {
			return []string{"CEEI error: " + err.Error()}
		}
		var out []string
		for i := range ec.Agents {
			spend := 0.0
			for r, p := range ceei.Prices {
				if !closeTo(ceei.Demands[i][r], x[i][r], 1e-9, 1e-12*ec.Cap[r]) {
					out = append(out, fmt.Sprintf("agent %d resource %d: CEEI demand %v != allocation %v",
						i, r, ceei.Demands[i][r], x[i][r]))
				}
				spend += p * x[i][r]
			}
			// Budgets are normalized to 1 and rescaled elasticities sum to
			// one, so each agent's spend at the REF bundle is exactly 1.
			if !closeTo(spend, 1, 1e-9, 0) {
				out = append(out, fmt.Sprintf("agent %d spends %v of unit budget", i, spend))
			}
		}
		tot := opt.Alloc(ceei.Demands).ResourceTotals()
		for r, c := range ec.Cap {
			if !closeTo(tot[r], c, fair.EpsCapacityRel, 0) {
				out = append(out, fmt.Sprintf("market does not clear resource %d: demand %v, capacity %v", r, tot[r], c))
			}
		}
		return out
	}}
}

// SPLGainBound checks the strategy-proofness-in-the-large machinery
// (Theorem 7 / Appendix A) against its analytic envelope: the numeric best
// response of one agent must not lose utility relative to truth-telling and
// must not gain more than the closed-form upper bound
//
//	gain ≤ ∏_r ((α̂_r + S_r) / (α̂_r·(1 + S_r)))^α̂_r − 1
//
// obtained by pushing each reported elasticity to its simplex extreme.
func SPLGainBound() Oracle {
	return Oracle{Name: "spl-gain-bound", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		n := len(ec.Agents)
		k := n / 2 // deterministic strategic-agent choice
		truth := ec.Agents[k].Utility.Rescaled().Alpha
		sums := make([]float64, len(ec.Cap))
		for i, a := range ec.Agents {
			if i == k {
				continue
			}
			for r, v := range a.Utility.Rescaled().Alpha {
				sums[r] += v
			}
		}
		br, err := spl.BestResponse(truth, sums)
		if err != nil {
			return []string{"best response error: " + err.Error()}
		}
		if br.Gain < 0 {
			return []string{fmt.Sprintf("best response loses utility: gain %v", br.Gain)}
		}
		logBound := 0.0
		for r, a := range truth {
			if a == 0 {
				continue
			}
			logBound += a * (math.Log(a+sums[r]) - math.Log(a) - math.Log1p(sums[r]))
		}
		bound := math.Expm1(logBound)
		if br.Gain > bound*(1+1e-6)+1e-9 {
			return []string{fmt.Sprintf("agent %d best-response gain %v exceeds analytic bound %v (deviation %v)",
				k, br.Gain, bound, br.Deviation)}
		}
		return nil
	}}
}

// PermutationSymmetry is the metamorphic check that reordering agents only
// reorders allocation rows: mechanisms must not care about agent identity.
func PermutationSymmetry() Oracle {
	return Oracle{Name: "permutation-symmetry", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		n := len(ec.Agents)
		rev := ec.Clone()
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			rev.Agents[i], rev.Agents[j] = rev.Agents[j], rev.Agents[i]
		}
		y, err := m.Allocate(rev.Agents, rev.Cap)
		if err != nil {
			return []string{"permuted allocation error: " + err.Error()}
		}
		var out []string
		for i := 0; i < n; i++ {
			for r := range ec.Cap {
				if !closeTo(y[i][r], x[n-1-i][r], 1e-9, 1e-12*ec.Cap[r]) {
					out = append(out, fmt.Sprintf("agent %d resource %d: permuted %v != original %v",
						n-1-i, r, y[i][r], x[n-1-i][r]))
				}
			}
		}
		return out
	}}
}

// UnitRescaling is the metamorphic check that measurement units are
// arbitrary: scaling resource r's capacity by k_r must scale every agent's
// share of r by k_r and change nothing else. Power-of-two factors make the
// comparison exact in floating point.
func UnitRescaling() Oracle {
	return Oracle{Name: "unit-rescaling", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		scaled := ec.Clone()
		factors := make([]float64, len(ec.Cap))
		for r := range factors {
			if r%2 == 0 {
				factors[r] = 4
			} else {
				factors[r] = 0.25
			}
			scaled.Cap[r] *= factors[r]
		}
		y, err := m.Allocate(scaled.Agents, scaled.Cap)
		if err != nil {
			return []string{"rescaled allocation error: " + err.Error()}
		}
		var out []string
		for i := range x {
			for r := range ec.Cap {
				if !closeTo(y[i][r], factors[r]*x[i][r], 1e-9, 1e-12*scaled.Cap[r]) {
					out = append(out, fmt.Sprintf("agent %d resource %d: rescaled %v != %v·%v",
						i, r, y[i][r], factors[r], x[i][r]))
				}
			}
		}
		return out
	}}
}

// ElasticityScaleInvariance is the metamorphic form of Equation 13's
// normalization: multiplying an agent's raw elasticities by a positive
// constant (and α₀ by another) leaves its rescaled elasticities — and so
// the allocation — unchanged. Only mechanisms that apply Equation 12 make
// this promise. Power-of-two factors keep the rescaling division bit-exact.
func ElasticityScaleInvariance() Oracle {
	return Oracle{Name: "elasticity-scale-invariance", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		scaled := ec.Clone()
		for i := range scaled.Agents {
			u := &scaled.Agents[i].Utility
			u.Alpha0 *= 0.5
			for r := range u.Alpha {
				u.Alpha[r] *= 4
			}
		}
		y, err := m.Allocate(scaled.Agents, scaled.Cap)
		if err != nil {
			return []string{"scaled-elasticity allocation error: " + err.Error()}
		}
		var out []string
		for i := range x {
			for r := range ec.Cap {
				if !closeTo(y[i][r], x[i][r], 1e-12, 1e-12*ec.Cap[r]) {
					out = append(out, fmt.Sprintf("agent %d resource %d: scaled-elasticity %v != %v",
						i, r, y[i][r], x[i][r]))
				}
			}
		}
		return out
	}}
}

// DRFWaterFilling checks the Dominant Resource Fairness invariants: every
// agent's dominant share is the same water level λ, and at least one
// resource is saturated (otherwise λ could rise).
func DRFWaterFilling() Oracle {
	return Oracle{Name: "drf-water-filling", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		return drfInvariantFindings(x, ec.Cap)
	}}
}

// drfInvariantFindings is shared by the projected-Cobb-Douglas oracle and
// the direct Leontief check.
func drfInvariantFindings(x opt.Alloc, cap []float64) []string {
	var out []string
	shares := make([]float64, len(x))
	for i, row := range x {
		for r, v := range row {
			if s := v / cap[r]; s > shares[i] {
				shares[i] = s
			}
		}
	}
	for i := 1; i < len(shares); i++ {
		if !closeTo(shares[i], shares[0], 1e-6, 0) {
			out = append(out, fmt.Sprintf("dominant share of agent %d (%v) != agent 0 (%v)", i, shares[i], shares[0]))
		}
	}
	saturated := false
	for r, t := range x.ResourceTotals() {
		if t >= cap[r]*(1-fair.EpsCapacityRel) {
			saturated = true
			break
		}
	}
	if !saturated {
		out = append(out, "no resource saturated: water level could rise")
	}
	return out
}

// DRFInvariants runs leontief.DRF on a native Leontief economy and checks
// the water-filling invariants plus feasibility — the direct-generation
// counterpart of the projected DRF subject.
func DRFInvariants(agents []leontief.Utility, cap []float64) []string {
	rows, err := leontief.DRF(agents, cap)
	if err != nil {
		return []string{"DRF error: " + err.Error()}
	}
	x := opt.Alloc(rows)
	var out []string
	for r, t := range x.ResourceTotals() {
		if t > cap[r]*(1+fair.EpsCapacityRel) {
			out = append(out, fmt.Sprintf("resource %d oversubscribed: %v > %v", r, t, cap[r]))
		}
	}
	out = append(out, drfInvariantFindings(x, cap)...)
	// Each agent's bundle must sit exactly on its demand ray: utility equals
	// dominant share divided by dominant demand.
	for i, a := range agents {
		want := math.Inf(1)
		for r, d := range a.Demand {
			if v := rows[i][r] / d; v < want {
				want = v
			}
		}
		if got := a.Eval(rows[i]); !closeTo(got, want, 1e-9, 0) {
			out = append(out, fmt.Sprintf("agent %d utility %v != ray value %v", i, got, want))
		}
	}
	return out
}

// drfMech adapts the Cobb-Douglas→Leontief projection (§2's "what DRF
// would do") to the Mechanism interface so the harness can drive it like
// the others.
type drfMech struct{}

// Name implements mech.Mechanism.
func (drfMech) Name() string { return "DRF (projected elasticities)" }

// Allocate implements mech.Mechanism.
func (drfMech) Allocate(agents []core.Agent, cap []float64) (opt.Alloc, error) {
	return mech.DRFFromElasticities(agents, cap)
}

// IncrementalEq13 is the differential reference for the incremental epoch
// engine: driving the economy through a core.Table under a deterministic
// churn sequence — join everyone, remove every third agent, cross an
// exact resummation, re-add the removed, re-declare the rest as no-ops —
// must land every agent's O(R) row within 1 ulp of the mechanism's
// from-scratch allocation. Both sides maintain compensated (faithfully
// rounded) per-resource sums, so they can disagree by at most the final
// rounding.
func IncrementalEq13() Oracle {
	return Oracle{Name: "incremental-eq13-differential", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		tab := core.NewTable[struct{}](4, len(ec.Cap))
		name := func(i int) string { return fmt.Sprintf("inc%04d", i) }
		for i, a := range ec.Agents {
			tab.Upsert(name(i), struct{}{}, a.Utility.Rescaled().Alpha)
		}
		tab.EndEpoch()
		// Churn: every third agent leaves and the sums are rebuilt
		// exactly, then they rejoin and the others re-declare unchanged
		// utilities.
		for i := range ec.Agents {
			if i%3 == 0 && !tab.Remove(name(i)) {
				return []string{fmt.Sprintf("leave agent %d: not in the table", i)}
			}
		}
		tab.Resum()
		for i, a := range ec.Agents {
			tab.Upsert(name(i), struct{}{}, a.Utility.Rescaled().Alpha)
		}
		tab.EndEpoch()

		var out []string
		sums := tab.Sums(nil)
		row := make([]float64, len(ec.Cap))
		for i := range ec.Agents {
			sh, j, ok := tab.Lookup(name(i))
			if !ok {
				return []string{fmt.Sprintf("agent %d missing from the table", i)}
			}
			core.RowFromSumsBudgeted(row, sh.Weight(j), sh.Budget(j), sums, ec.Cap, len(ec.Agents))
			for r := range ec.Cap {
				if d := core.UlpDiff(row[r], x[i][r]); d > 1 {
					out = append(out, fmt.Sprintf("agent %d resource %d: incremental %v vs mechanism %v (%d ulps apart)",
						i, r, row[r], x[i][r], d))
				}
			}
		}
		return out
	}}
}

// NashOptimality is the differential reference for Equation 13's optimality
// claim (the interior optimum of the Nash program): projected gradient
// ascent warm-started at the closed form must not find a better feasible
// point. A solver objective above the closed form's would mean the closed
// form is not the Nash bargaining solution; one far below means the solver
// or the warm start regressed.
func NashOptimality() Oracle {
	return Oracle{Name: "nash-optimality-differential", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		n := len(ec.Agents)
		agents := make([]opt.Agent, n)
		objClosed := 0.0
		for i, a := range ec.Agents {
			alpha := a.Utility.Rescaled().Alpha
			agents[i] = opt.Agent{Alpha: alpha}
			objClosed += logUtilAt(alpha, x[i])
		}
		cfg := opt.Config{MaxIters: 8000, Init: x}
		_, rep, err := opt.MaximizeNashWelfare(agents, nil, ec.Cap, nil, cfg)
		if err != nil {
			return []string{"solver error: " + err.Error()}
		}
		if rep.Objective > objClosed+1e-6 {
			return []string{fmt.Sprintf("solver found Nash welfare %v above closed form %v: Equation 13 not optimal",
				rep.Objective, objClosed)}
		}
		if rep.Objective < objClosed-0.05 {
			return []string{fmt.Sprintf("solver objective %v far below closed form %v: warm start lost", rep.Objective, objClosed)}
		}
		return nil
	}}
}

// MWFFairness checks the constrained welfare-maximization mechanism: its
// allocation must satisfy SI and EF within solver tolerance and must not
// produce less Nash welfare than the REF closed form, which is feasible for
// the same constraints and seeds the solver's best-iterate tracking.
func MWFFairness() Oracle {
	return Oracle{Name: "mwf-fairness", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		tol := fair.SolverTolerance()
		var out []string
		if res, err := fair.SharingIncentives(utilsOf(ec), ec.Cap, x, tol); err != nil {
			out = append(out, "audit error: "+err.Error())
		} else {
			out = append(out, violationsToFindings(res)...)
		}
		if res, err := fair.EnvyFreeness(utilsOf(ec), x, tol); err != nil {
			out = append(out, "audit error: "+err.Error())
		} else {
			out = append(out, violationsToFindings(res)...)
		}
		ref, err := core.Allocate(ec.Agents, ec.Cap)
		if err != nil {
			return append(out, "REF reference error: "+err.Error())
		}
		welfare := func(a opt.Alloc) float64 {
			var s float64
			for i, ag := range ec.Agents {
				s += logUtilAt(ag.Utility.Alpha, a[i])
			}
			return s
		}
		if got, want := welfare(x), welfare(ref.X); got < want-0.05 {
			out = append(out, fmt.Sprintf("constrained welfare %v below feasible REF welfare %v", got, want))
		}
		return out
	}}
}

// ESNotBelowEqualSplit checks the equal-slowdown solver's one hard
// guarantee: it starts at the equal split and tracks its best iterate, so
// the returned minimum normalized utility can never fall below the equal
// split's.
func ESNotBelowEqualSplit() Oracle {
	return Oracle{Name: "es-not-below-equal-split", Check: func(ec Economy, m mech.Mechanism, x opt.Alloc) []string {
		minU := func(a opt.Alloc) (float64, error) {
			us, err := mech.NormalizedUtilities(ec.Agents, ec.Cap, a)
			if err != nil {
				return 0, err
			}
			lo := math.Inf(1)
			for _, u := range us {
				if u < lo {
					lo = u
				}
			}
			return lo, nil
		}
		got, err := minU(x)
		if err != nil {
			return []string{"normalized utility error: " + err.Error()}
		}
		want, err := minU(opt.EqualSplit(len(ec.Agents), ec.Cap))
		if err != nil {
			return []string{"normalized utility error: " + err.Error()}
		}
		if got < want*(1-1e-6) {
			return []string{fmt.Sprintf("min normalized utility %v below equal split's %v", got, want)}
		}
		return nil
	}}
}

// FastSubjects returns the closed-form mechanisms with the full oracle set
// each one's contract promises. These are cheap enough for thousands of
// trials.
func FastSubjects() []Subject {
	tol := fair.DefaultTolerance()
	return []Subject{
		{Mechanism: mech.ProportionalElasticity{}, Oracles: []Oracle{
			Feasibility(true),
			SIOracle(tol),
			EFOracle(tol),
			PEOracle(tol),
			CEEIOracle(),
			IncrementalEq13(),
			SPLGainBound(),
			PermutationSymmetry(),
			UnitRescaling(),
			ElasticityScaleInvariance(),
		}},
		{Mechanism: mech.MaxWelfareUnfair{}, Oracles: []Oracle{
			Feasibility(true),
			PEOracle(tol),
			PermutationSymmetry(),
			UnitRescaling(),
		}},
		{Mechanism: mech.EqualSplitMech{}, Oracles: []Oracle{
			Feasibility(true),
			SIOracle(tol),
			EFOracle(tol),
			PermutationSymmetry(),
			UnitRescaling(),
			ElasticityScaleInvariance(),
		}},
		{Mechanism: drfMech{}, Oracles: []Oracle{
			Feasibility(false),
			DRFWaterFilling(),
			PermutationSymmetry(),
			UnitRescaling(),
			ElasticityScaleInvariance(),
		}},
	}
}

// SolverSubjects returns the iterative-solver subjects, run on a reduced
// trial budget over small economies (the penalty method is orders of
// magnitude slower than the closed forms).
func SolverSubjects() []Subject {
	return []Subject{
		{Mechanism: mech.ProportionalElasticity{}, Oracles: []Oracle{NashOptimality()}},
		{Mechanism: mech.MaxWelfareFair{}, Oracles: []Oracle{Feasibility(true), MWFFairness()}},
		{Mechanism: mech.EqualSlowdown{}, Oracles: []Oracle{Feasibility(true), ESNotBelowEqualSplit()}},
	}
}
