package serve

// This file is the serve side of the time-aware credit ledger: the
// per-epoch settlement pass that turns each tenant's decayed usage history
// into its budget for the weighted Equation 13, and the publication pass
// that closes the loop by recording what each tenant actually received.
// Both are strictly ordered, allocation-light walks under stateMu, and
// both are skipped entirely — not merely neutered — while the ledger is
// disabled, keeping the flat path byte-identical to the unweighted engine.

import (
	"math"

	"ref/internal/core"
	"ref/internal/obs"
)

// creditPass advances the ledger one settlement interval: every tenant
// that was present at the previous publication decays its account by the
// elapsed clock time and accrues the usage it realized over it (at the
// share rate the last publication stored) against its equal-split fair
// share; the account's new clamped budget lands as an O(R)
// effective-weight delta on the tenant's shard (and, when hierarchical
// accounting is live, mirrors into the queue tree). Shards are walked in
// index order and members in canonical order, so the resulting sums are
// deterministic at any parallelism. Fresh joins in the current batch have
// never been published: they accrue nothing and keep their exact unit
// budget. Callers hold stateMu.
func (s *Server) creditPass() {
	now := s.clock.Now()
	dt := now.Sub(s.creditLast).Seconds()
	if dt < 0 {
		dt = 0
	}
	s.creditLast = now
	decay := s.credit.Decay(dt)
	fairDt := 0.0
	if s.creditLastN > 0 {
		fairDt = dt / float64(s.creditLastN)
	}
	for si := 0; si < s.table.NumShards(); si++ {
		sh := s.table.Shard(si)
		for i := 0; i < sh.Len(); i++ {
			e := sh.Payload(i)
			if !e.creditLive {
				continue
			}
			e.credit.Accrue(decay, e.shareRate*dt, fairDt)
			oldEff, newEff := sh.SetBudget(i, s.credit.Budget(e.credit))
			if oldEff != nil && s.hierEver {
				// Cannot fail: the queue holds the agent already and
				// the delta is a same-queue retilt.
				_ = s.tree.AgentDelta(e.queue, e.queue, oldEff, newEff)
			}
		}
	}
}

// creditPublish runs inside publishBatch, after rows are final and before
// the audit: it stores every tenant's realized share rate (computed from
// the same published row a client would read, so a replay mirror fed the
// snapshot stream reproduces the ledger), marks tenants live for the next
// settlement, and assembles the epoch's credit rollup. The walk is
// O(N·R) with no per-agent allocation (each row lands in the scratch
// row) — the cost of running credits, as documented on
// Config.CreditHalfLife. Callers hold stateMu.
func (s *Server) creditPublish(snap *Snapshot, n int) {
	roll := &CreditRollup{
		HalfLifeSeconds: s.credit.HalfLifeSeconds,
		MinBudget:       s.credit.MinBudget,
		MaxBudget:       s.credit.MaxBudget,
		TiltMax:         1,
		TiltMin:         1,
	}
	hist := obs.Installed().Histogram(MetricCreditBudget)
	var usageSum, fairSum core.CompSum
	tiltMax, tiltMin := math.Inf(-1), math.Inf(1)
	inline := !snap.AgentsElided
	if inline {
		snap.Budgets = make([]float64, 0, n)
	}
	row := s.scratchRow()
	s.table.forEachSorted(func(_ string, e agentView) {
		e.shareRate = core.ShareRate(s.rowFor(row, e), s.cfg.Capacity)
		e.creditLive = true
		b := e.budget
		hist.Observe(b)
		if b > tiltMax {
			tiltMax = b
		}
		if b < tiltMin {
			tiltMin = b
		}
		usageSum.Add(e.credit.Usage)
		fairSum.Add(e.credit.Fair)
		if inline {
			snap.Budgets = append(snap.Budgets, b)
		}
	})
	if n > 0 {
		roll.TiltMax, roll.TiltMin = tiltMax, tiltMin
	}
	roll.BudgetSum = s.table.BudgetSum()
	roll.UsageSum = usageSum.Value()
	roll.FairSum = fairSum.Value()
	s.creditLastN = n
	snap.Credit = roll
}
