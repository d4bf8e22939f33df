package serve

// This file is the serve side of the time-aware credit ledger: the
// per-epoch pass that turns each tenant's decayed usage history into its
// budget for the weighted Equation 13. It is the epoch's one strictly
// ordered, allocation-free walk of the population under stateMu, and it
// is skipped entirely — not merely neutered — while the ledger is
// disabled, keeping the flat path byte-identical to the unweighted
// engine.

import (
	"math"

	"ref/internal/core"
	"ref/internal/obs"
)

// creditTotals are the ledger totals of the latest credit pass, which
// the next publication turns into its credit rollup.
type creditTotals struct {
	// n is the population the pass walked; 0 before the first pass.
	n                int
	usage, fair      float64
	tiltMin, tiltMax float64
}

// creditPass advances the ledger one settlement interval, after the
// batch is applied. It walks the shards in index order and each shard's
// rows in canonical order — no merge — and for each agent:
//
//   - reads its share rate at the last publication: computed from the
//     market that publication left in place, or captured by
//     applyAgentRun when this batch re-declared or moved the agent;
//   - decays its account by the elapsed clock time and accrues that
//     usage against its equal-split fair share (fresh joins accrue
//     nothing and keep their exact unit budget);
//   - writes its new clamped budget;
//   - folds the row into an exact rebuild of the shard sums and, once
//     hierarchical accounting is live, of the queue-tree aggregates,
//     and into the credit totals.
//
// When any budget moved, the rebuilt sums replace the running ones: the
// pass is that epoch's exact resummation of the table and the tree.
// When none moved (a [1,1] clamp, or every account fresh) the running
// sums are left untouched. The result does not depend on parallelism;
// the totals' summation order depends on the shard count. Callers hold
// stateMu.
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
	hierOn := s.hierEver
	s.table.BeginRebuild()
	if hierOn {
		s.tree.BeginRebuild()
	}
	hist := &s.budgetHist
	hist.Reset(obs.Installed().Histogram(MetricCreditBudget))
	var usage, fair core.CompSum
	tiltMin, tiltMax := math.Inf(1), math.Inf(-1)
	n := 0
	for si := 0; si < s.table.NumShards(); si++ {
		sh := s.table.Shard(si)
		for i := 0; i < sh.Len(); i++ {
			e, b := sh.Payload(i), sh.Budget(i)
			if e.creditState != creditFresh {
				rate := e.shareRate
				if e.creditState == creditLive {
					rate = s.publishedShareRate(e, sh.Weight(i), b)
				}
				e.credit.Accrue(decay, rate*dt, fairDt)
				b = s.credit.Budget(e.credit)
			}
			e.creditState = creditLive
			eff := sh.RebuildRow(i, b)
			if hierOn {
				s.tree.RebuildAgent(e.leaf, eff)
			}
			usage.Add(e.credit.Usage)
			fair.Add(e.credit.Fair)
			if b < tiltMin {
				tiltMin = b
			}
			if b > tiltMax {
				tiltMax = b
			}
			hist.Observe(b)
			n++
		}
	}
	if s.table.EndRebuild() && hierOn {
		s.tree.EndRebuild()
	}
	hist.Flush()
	s.creditTotals = creditTotals{n: n, usage: usage.Value(), fair: fair.Value(),
		tiltMin: tiltMin, tiltMax: tiltMax}
}

// publishedShareRate is the share rate of an agent's row at the last
// publication — core.ShareRate of the row a client read — from its
// weight and budget as that publication saw them. It reads the markets
// the publication left in place, so it is valid from the end of one
// publishBatch until the next overwrites them. Callers hold stateMu.
func (s *Server) publishedShareRate(e *agentEntry, weight []float64, budget float64) float64 {
	mk := s.marketOf(e)
	return core.RowShareRate(weight, budget, mk.sums, mk.share, mk.n, s.cfg.Capacity)
}

// creditRollup assembles the snapshot's credit rollup from the latest
// pass's totals and records the population the next pass's fair share
// divides by. Callers hold stateMu.
func (s *Server) creditRollup(n int) *CreditRollup {
	roll := &CreditRollup{
		HalfLifeSeconds: s.credit.HalfLifeSeconds,
		MinBudget:       s.credit.MinBudget,
		MaxBudget:       s.credit.MaxBudget,
		TiltMax:         1,
		TiltMin:         1,
		BudgetSum:       s.table.BudgetSum(),
	}
	if t := &s.creditTotals; t.n > 0 && t.n == n {
		roll.TiltMax, roll.TiltMin = t.tiltMax, t.tiltMin
		roll.UsageSum, roll.FairSum = t.usage, t.fair
	}
	s.creditLastN = n
	return roll
}
