package serve

import (
	"math"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/obs"
)

// audit is the per-epoch fairness audit: the market certificate
// (fair.Market) on the published rows. Each audited agent's row is
// recomputed into one scratch vector from the market rowFor resolves —
// the flat economy, or on a non-trivial tree the agent's leaf, whose
// agents split the leaf's share at the leaf's prices (the guarantees
// between queues are hier.AuditTree's) — and must be the agent's
// Cobb-Douglas demand at its budget. That certifies SI, and the agent
// against every other agent of its market for EF and PE, not only
// against the other audited agents.
//
// The audited set is every agent the batch upserted plus a rotating
// window of AuditSample agents, so successive epochs sweep the whole
// population every ~N/AuditSample epochs. While N ≤ AuditSample the
// window is the whole table: the audit is not sampled, and it also
// checks that every market clears. Above it clearing holds analytically,
// since Σ_i b_i·α̂_ir·C_r/S_r = C_r when the published sums S are the
// running sums of the same effective weights. Callers hold stateMu.
func (s *Server) audit(n int, touched []string) *Fairness {
	f := &Fairness{SI: true, EF: true, PE: true}
	k, whole := n, n <= s.cfg.AuditSample
	if whole {
		touched = nil
		s.flat.resetTotal()
		for _, lp := range s.pubLeaf {
			lp.resetTotal()
		}
	} else {
		k = s.cfg.AuditSample
		f.Sampled = true
	}
	if len(s.rowScratch) != len(s.cfg.Capacity) {
		s.rowScratch = make([]float64, len(s.cfg.Capacity))
	}
	var names []string
	// The SI log margins are telemetry: the histogram shows how much SI
	// headroom the population has, the minimum (a gauge and a flight
	// record field) is the agent closest to preferring its split.
	marginHist := obs.Installed().Histogram(MetricSIMargin)
	minMargin := math.Inf(1)
	audited := 0
	visit := func(e agentView) {
		mk := s.marketOf(e)
		row := core.RowFromSumsBudgeted(s.rowScratch, e.weight, e.budget, mk.sums, mk.share, mk.n)
		if v, ok := (fair.Market{Sums: mk.sums, Capacity: mk.share}).Certify(e.util, row, e.budget); !ok {
			v.Agent = audited
			s.fail(f, e.queue, v)
		}
		margin := siMargin(e.util, mk.sums)
		marginHist.Observe(margin)
		minMargin = math.Min(minMargin, margin)
		if whole {
			for r, x := range row {
				mk.total[r].Add(x)
			}
		}
		if s.cfg.auditObserver != nil {
			names = append(names, e.wire.Name)
		}
		audited++
	}
	for _, name := range touched {
		if e, ok := s.table.get(name); ok {
			visit(e)
		}
	}
	for i := 0; i < k; i++ {
		visit(s.table.entryAt((s.auditCursor + i) % n))
	}
	s.auditCursor = (s.auditCursor + k) % n
	if f.Sampled {
		f.SampleSize = audited
	}
	if audited > 0 {
		s.lastSIMargin = minMargin
	}
	if whole {
		if s.pubLeaf == nil {
			s.clearing(f, "", &s.flat)
		}
		for _, q := range s.pubQueues {
			if lp := s.pubLeaf[q.Name]; lp != nil && lp.n > 0 {
				s.clearing(f, q.Name, lp)
			}
		}
	}
	if s.cfg.auditObserver != nil {
		s.cfg.auditObserver(names)
	}
	return f
}

// clearing runs the certificate's clearing check on one fully audited
// market.
func (s *Server) clearing(f *Fairness, queue string, mk *market) {
	for _, v := range (fair.Market{Sums: mk.sums, Capacity: mk.share}).Clearing(mk.total, nil) {
		s.fail(f, queue, v)
	}
}

// fail records one failed certificate check: the properties it leaves
// unproven turn false, and the finding is prefixed with the queue on a
// non-trivial tree.
func (s *Server) fail(f *Fairness, queue string, v fair.Violation) {
	si, ef, pe := fair.Unproven(v.Property)
	f.SI = f.SI && !si
	f.EF = f.EF && !ef
	f.PE = f.PE && !pe
	msg := v.String()
	if s.pubLeaf != nil {
		msg = "queue " + queue + ": " + msg
	}
	f.Violations = append(f.Violations, msg)
}

// siMargin is an agent's SI log margin in rescaled utility: its
// Equation 13 bundle b_i·α̂_r·C_r/S_r against the entitlement split
// (b_i/B)·C of its market, where B = Σ_r S_r is the market's total income
// (N at unit budgets). Budget and capacities cancel, leaving
// Σ_r α̂_r·log(α̂_r·B/S_r); negative means the agent prefers the split.
func siMargin(u cobb.Utility, sums []float64) float64 {
	income := 0.0
	for _, v := range sums {
		income += v
	}
	s := u.ElasticitySum()
	margin := 0.0
	for r, a := range u.Alpha {
		if a > 0 {
			w := a / s
			margin += w * math.Log(w*income/sums[r])
		}
	}
	return margin
}
