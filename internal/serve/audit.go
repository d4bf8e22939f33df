package serve

import (
	"fmt"
	"math"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/obs"
	"ref/internal/par"
)

// auditExact runs the full §4 suite over the whole population — the
// historical behavior, kept for populations up to AuditExactBelow where
// the O(N²) envy audit is affordable every epoch. Rows are the published
// ones (recomputed from the same sums the snapshot uses), so the audit
// covers exactly what clients see. Callers hold stateMu.
func (s *Server) auditExact(n int, sums []float64) *Fairness {
	agents := make([]core.Agent, 0, n)
	x := make([][]float64, 0, n)
	var budgets []float64
	if s.credit.Enabled() {
		budgets = make([]float64, 0, n)
	}
	s.table.forEachSorted(func(name string, e agentView) {
		agents = append(agents, core.Agent{Name: name, Utility: e.util})
		x = append(x, core.RowFromSumsBudgeted(nil, e.weight, e.budget, sums, s.cfg.Capacity, n))
		if budgets != nil {
			budgets = append(budgets, e.budget)
		}
	})
	return auditParallel(agents, s.cfg.Capacity, x, budgets, s.cfg.Parallelism)
}

// auditSampled audits at scale in O(Δ + K) per epoch instead of O(N²):
//
//   - SI is checked from each audited agent's *cached* equal-split
//     margin. In rescaled log space the margin of agent i is
//
//     Σ_r α̂_ir·log α̂_ir  +  log N  −  Σ_r α̂_ir·log S_r
//
//     (own Equation 13 bundle vs the equal split C/N; the capacities
//     cancel). The first term is cached per agent at declaration time
//     (agentEntry.siTerm), so per audited agent the check is an O(R)
//     dot product against the log-sums — no utility evaluation, no
//     exponentials. The margin is compared against the exact audit's
//     relative tolerance mapped into rescaled log space, log1p(−tol)/s_i
//     with s_i the agent's elasticity sum, so the two audits agree on
//     pass/fail.
//
//   - EF and the MRS-tangency half of PE run over the audited sample
//     through the same internal/fair code paths as the exact audit
//     (fair.SampledEnvyFreeness, fair.Tangency). Capacity exhaustion —
//     the other half of PE — holds analytically for Equation 13 rows
//     (Σ_i α̂_ir/S_r·C_r = C_r), so it is not re-checked numerically.
//
// The audited set is every agent the current batch upserted (their
// margins are the ones that can newly break) plus a rotating window of
// AuditSample agents, so successive epochs sweep the entire population
// every ~N/AuditSample epochs. Callers hold stateMu.
func (s *Server) auditSampled(n int, sums []float64, touched []string) *Fairness {
	tol := fair.DefaultTolerance()
	k := s.cfg.AuditSample
	if k > n {
		k = n
	}
	entries := make([]agentView, 0, k+len(touched))
	for _, name := range touched {
		if e, ok := s.table.get(name); ok {
			entries = append(entries, e)
		}
	}
	for i := 0; i < k; i++ {
		entries = append(entries, s.table.entryAt((s.auditCursor+i)%n))
	}
	s.auditCursor = (s.auditCursor + k) % n

	if s.cfg.auditObserver != nil {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.wire.Name
		}
		s.cfg.auditObserver(names)
	}

	f := &Fairness{SI: true, EF: true, PE: true, Sampled: true, SampleSize: len(entries)}

	if cap(s.logScratch) < len(sums) {
		s.logScratch = make([]float64, len(sums))
	}
	logS := s.logScratch[:len(sums)]
	for r, v := range sums {
		if v > 0 {
			logS[r] = math.Log(v)
		} else {
			logS[r] = 0
		}
	}
	// logDen is log N on the unweighted path. Under the credit ledger the
	// baseline is the *entitlement* split (b_i/B)·C, and the weighted
	// margin derivation — own bundle b_i·α̂_r/S_r·C_r vs entitlement —
	// cancels the agent's own budget, leaving siTerm + log B − Σα̂·log S
	// over the effective sums: the same O(R) dot product with the total
	// income B in place of the population. At unit budgets B is exactly N
	// (a compensated sum of ones), so the two coincide bit for bit.
	logDen := math.Log(float64(n))
	if s.credit.Enabled() {
		logDen = math.Log(s.pubBudgetSum)
	}
	// The margin distribution and its minimum are fairness telemetry:
	// the histogram shows how much SI headroom the population has, the
	// min (kept on the server and surfaced as a gauge and in flight
	// records) is the agent closest to preferring the equal split.
	marginHist := obs.Installed().Histogram(MetricSIMargin)
	minMargin := math.Inf(1)
	for i, e := range entries {
		margin := e.siTerm + logDen
		for r, wr := range e.weight {
			if wr > 0 {
				margin -= wr * logS[r]
			}
		}
		marginHist.Observe(margin)
		if margin < minMargin {
			minMargin = margin
		}
		if margin < math.Log1p(-tol.Rel)/e.elastSum {
			f.SI = false
			f.Violations = append(f.Violations,
				fmt.Sprintf("SI: sampled agent %d prefers the equal split (log margin %g)", i, margin))
		}
	}
	if len(entries) > 0 {
		s.lastSIMargin = minMargin
	}

	// EF is O(K²) in its sample, so a huge batch (every touched agent is
	// in `entries`) must not ride into it wholesale: bound the pairwise
	// sample at 2·AuditSample — the first AuditSample touched agents plus
	// the full rotating window. The SI loop above already covered every
	// touched agent; it is O(R) per agent and needs no bound.
	efEntries := entries
	if limit := 2 * k; k > 0 && len(efEntries) > limit {
		efEntries = make([]agentView, 0, limit)
		efEntries = append(efEntries, entries[:limit-k]...)
		efEntries = append(efEntries, entries[len(entries)-k:]...)
	}
	utils := make([]cobb.Utility, len(efEntries))
	rows := make([][]float64, len(efEntries))
	var budgets []float64
	if s.credit.Enabled() {
		budgets = make([]float64, len(efEntries))
	}
	for i, e := range efEntries {
		utils[i] = e.util
		rows[i] = core.RowFromSumsBudgeted(nil, e.weight, e.budget, sums, s.cfg.Capacity, n)
		if budgets != nil {
			budgets[i] = e.budget
		}
	}
	ef, err := sampledEnvy(utils, rows, budgets, tol)
	if err != nil {
		f.EF = false
		f.Violations = append(f.Violations, fmt.Sprintf("EF audit failed: %v", err))
	} else {
		f.EF = ef.Satisfied
		for _, v := range ef.Violations {
			f.Violations = append(f.Violations, v.String())
		}
	}
	tang, err := fair.Tangency(utils, rows, tol)
	if err != nil {
		f.PE = false
		f.Violations = append(f.Violations, fmt.Sprintf("PE audit failed: %v", err))
	} else {
		f.PE = tang.Satisfied
		for _, v := range tang.Violations {
			f.Violations = append(f.Violations, v.String())
		}
	}
	return f
}

// auditHier is the agent-level fairness audit on a non-trivial queue
// tree: the paper's guarantees hold *within each leaf* (a leaf's agents
// split the leaf's share by the flat Equation 13, so SI/EF/PE apply
// with the leaf share as the capacity vector and the leaf population as
// N), while the guarantees *between* queues are hier.AuditTree's job
// (attached by publishBatch as Fairness.Hier). Thresholds mirror the
// flat path: populations up to AuditExactBelow run the exact per-leaf
// suite, larger ones run the sampled audit with leaf-relative margins.
// Callers hold stateMu.
func (s *Server) auditHier(n int, touched []string) *Fairness {
	if s.cfg.AuditExactBelow >= 0 && n <= s.cfg.AuditExactBelow {
		return s.auditHierExact()
	}
	return s.auditHierSampled(n, touched)
}

// auditHierExact groups the whole population by leaf queue and runs the
// exact §4 suite per leaf with the leaf's share as capacity, ANDing the
// verdicts. Violations are prefixed with the queue name.
func (s *Server) auditHierExact() *Fairness {
	type group struct {
		agents  []core.Agent
		x       [][]float64
		budgets []float64
	}
	creditOn := s.credit.Enabled()
	groups := make(map[string]*group)
	var order []string
	s.table.forEachSorted(func(name string, e agentView) {
		g := groups[e.queue]
		if g == nil {
			g = &group{}
			groups[e.queue] = g
			order = append(order, e.queue)
		}
		lp := s.pubLeaf[e.queue]
		g.agents = append(g.agents, core.Agent{Name: name, Utility: e.util})
		g.x = append(g.x, core.RowFromSumsBudgeted(nil, e.weight, e.budget, lp.sums, lp.share, lp.n))
		if creditOn {
			g.budgets = append(g.budgets, e.budget)
		}
	})
	f := &Fairness{SI: true, EF: true, PE: true}
	for _, q := range order {
		g := groups[q]
		qf := auditParallel(g.agents, s.pubLeaf[q].share, g.x, g.budgets, s.cfg.Parallelism)
		f.SI = f.SI && qf.SI
		f.EF = f.EF && qf.EF
		f.PE = f.PE && qf.PE
		for _, v := range qf.Violations {
			f.Violations = append(f.Violations, "queue "+q+": "+v)
		}
	}
	return f
}

// auditHierSampled is auditSampled with leaf-relative baselines: an
// agent's SI margin compares its leaf-share Equation 13 bundle to the
// equal split of its *leaf's* share among the leaf's population —
// leaf shares cancel exactly as capacities do in the flat derivation,
// so the margin is siTerm + log n_q − Σ_r α̂_r·log S_qr over the leaf
// count n_q and leaf aggregate S_q. EF and tangency run per-leaf over
// the bounded sample (cross-leaf comparisons are meaningless: different
// leaves clear at different prices, and envy across queues is governed
// by the tree-level audit instead). Callers hold stateMu.
func (s *Server) auditHierSampled(n int, touched []string) *Fairness {
	tol := fair.DefaultTolerance()
	k := s.cfg.AuditSample
	if k > n {
		k = n
	}
	entries := make([]agentView, 0, k+len(touched))
	for _, name := range touched {
		if e, ok := s.table.get(name); ok {
			entries = append(entries, e)
		}
	}
	for i := 0; i < k; i++ {
		entries = append(entries, s.table.entryAt((s.auditCursor+i)%n))
	}
	s.auditCursor = (s.auditCursor + k) % n

	if s.cfg.auditObserver != nil {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.wire.Name
		}
		s.cfg.auditObserver(names)
	}

	f := &Fairness{SI: true, EF: true, PE: true, Sampled: true, SampleSize: len(entries)}

	// Per-leaf log-sums and log-denominator, built lazily for the leaves
	// the sample actually visits. The denominator is the leaf population
	// on the unweighted path and the leaf's total income under the credit
	// ledger — the same entitlement-margin cancellation as the flat
	// sampled audit, leaf-relative.
	creditOn := s.credit.Enabled()
	type leafLogs struct {
		logS []float64
		logN float64
	}
	logs := make(map[string]*leafLogs)
	leafOf := func(q string) *leafLogs {
		if ll, ok := logs[q]; ok {
			return ll
		}
		lp := s.pubLeaf[q]
		ll := &leafLogs{logS: make([]float64, len(lp.sums)), logN: math.Log(float64(lp.n))}
		if creditOn {
			ll.logN = math.Log(lp.bsum)
		}
		for r, v := range lp.sums {
			if v > 0 {
				ll.logS[r] = math.Log(v)
			}
		}
		logs[q] = ll
		return ll
	}

	marginHist := obs.Installed().Histogram(MetricSIMargin)
	minMargin := math.Inf(1)
	for i, e := range entries {
		ll := leafOf(e.queue)
		margin := e.siTerm + ll.logN
		for r, wr := range e.weight {
			if wr > 0 {
				margin -= wr * ll.logS[r]
			}
		}
		marginHist.Observe(margin)
		if margin < minMargin {
			minMargin = margin
		}
		if margin < math.Log1p(-tol.Rel)/e.elastSum {
			f.SI = false
			f.Violations = append(f.Violations,
				fmt.Sprintf("SI: sampled agent %d (queue %s) prefers the equal split (log margin %g)", i, e.queue, margin))
		}
	}
	if len(entries) > 0 {
		s.lastSIMargin = minMargin
	}

	// Bound the O(K²) pairwise sample exactly as the flat path does,
	// then group by leaf: EF and tangency only compare same-leaf agents.
	efEntries := entries
	if limit := 2 * k; k > 0 && len(efEntries) > limit {
		efEntries = make([]agentView, 0, limit)
		efEntries = append(efEntries, entries[:limit-k]...)
		efEntries = append(efEntries, entries[len(entries)-k:]...)
	}
	byLeaf := make(map[string][]agentView)
	var leafOrder []string
	for _, e := range efEntries {
		if _, ok := byLeaf[e.queue]; !ok {
			leafOrder = append(leafOrder, e.queue)
		}
		byLeaf[e.queue] = append(byLeaf[e.queue], e)
	}
	for _, q := range leafOrder {
		group := byLeaf[q]
		lp := s.pubLeaf[q]
		utils := make([]cobb.Utility, len(group))
		rows := make([][]float64, len(group))
		var budgets []float64
		if creditOn {
			budgets = make([]float64, len(group))
		}
		for i, e := range group {
			utils[i] = e.util
			rows[i] = core.RowFromSumsBudgeted(nil, e.weight, e.budget, lp.sums, lp.share, lp.n)
			if budgets != nil {
				budgets[i] = e.budget
			}
		}
		ef, err := sampledEnvy(utils, rows, budgets, tol)
		if err != nil {
			f.EF = false
			f.Violations = append(f.Violations, fmt.Sprintf("queue %s: EF audit failed: %v", q, err))
		} else {
			f.EF = f.EF && ef.Satisfied
			for _, v := range ef.Violations {
				f.Violations = append(f.Violations, "queue "+q+": "+v.String())
			}
		}
		tang, err := fair.Tangency(utils, rows, tol)
		if err != nil {
			f.PE = false
			f.Violations = append(f.Violations, fmt.Sprintf("queue %s: PE audit failed: %v", q, err))
		} else {
			f.PE = f.PE && tang.Satisfied
			for _, v := range tang.Violations {
				f.Violations = append(f.Violations, "queue "+q+": "+v.String())
			}
		}
	}
	return f
}

// sampledEnvy dispatches the pairwise envy audit over a sample: the
// classic form at unit budgets (nil), the income-scaled weighted form
// under the credit ledger.
func sampledEnvy(utils []cobb.Utility, rows [][]float64, budgets []float64, tol fair.Tolerance) (fair.Result, error) {
	if budgets != nil {
		return fair.WeightedEnvyFreeness(utils, rows, budgets, tol)
	}
	return fair.SampledEnvyFreeness(utils, rows, tol)
}

// auditParallel runs the three §4 property audits as independent jobs on
// the internal/par pool — EF is O(n²) in agents and dominates for large
// tenant counts, so the three properties fan out rather than serialize.
// A non-nil budgets vector switches SI and EF to their budget-weighted
// forms (entitlement split and income-scaled envy): under the credit
// ledger the *weighted* properties are the per-epoch guarantees; the
// classic ones are deliberately violated whenever the ledger tilts.
// Pareto efficiency is budget-blind — budgets cancel inside each agent's
// MRS, so the tangency condition is unchanged.
func auditParallel(agents []core.Agent, capacity []float64, x [][]float64, budgets []float64, parallelism int) *Fairness {
	utils := make([]cobb.Utility, len(agents))
	for i, a := range agents {
		utils[i] = a.Utility
	}
	tol := fair.DefaultTolerance()
	results := make([]fair.Result, 3)
	errs := make([]error, 3)
	_ = par.ForEach(3, parallelism, func(i int) error {
		switch i {
		case 0:
			if budgets != nil {
				results[i], errs[i] = fair.WeightedSharingIncentives(utils, capacity, x, budgets, tol)
			} else {
				results[i], errs[i] = fair.SharingIncentives(utils, capacity, x, tol)
			}
		case 1:
			if budgets != nil {
				results[i], errs[i] = fair.WeightedEnvyFreeness(utils, x, budgets, tol)
			} else {
				results[i], errs[i] = fair.EnvyFreeness(utils, x, tol)
			}
		case 2:
			results[i], errs[i] = fair.ParetoEfficiency(utils, capacity, x, tol)
		}
		return nil
	})
	f := &Fairness{SI: results[0].Satisfied, EF: results[1].Satisfied, PE: results[2].Satisfied}
	props := [3]string{"SI", "EF", "PE"}
	for i, err := range errs {
		if err != nil {
			// An audit that cannot run is reported as a violation, never
			// silently dropped.
			f.Violations = append(f.Violations, fmt.Sprintf("%s audit failed: %v", props[i], err))
			switch i {
			case 0:
				f.SI = false
			case 1:
				f.EF = false
			case 2:
				f.PE = false
			}
			continue
		}
		for _, v := range results[i].Violations {
			f.Violations = append(f.Violations, v.String())
		}
	}
	return f
}
