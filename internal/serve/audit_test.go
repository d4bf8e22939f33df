package serve

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ref/internal/core"
	"ref/internal/hier"
)

// auditServer builds a white-box server with n agents joined through the
// epoch path. With tree set it declares a two-level queue tree, spreads
// the agents over its leaves, and enables the credit ledger, settling a
// few epochs so budgets tilt. It returns the server and a batch's worth
// of touched names.
func auditServer(t *testing.T, n int, tree bool) (*Server, []string) {
	t.Helper()
	clk := NewFakeClock(t0)
	cfg := Config{Capacity: []float64{24, 12}, InlineSnapshotAgents: -1, Clock: clk}
	leaves := []string{""}
	if tree {
		cfg.Queues = []hier.QueueConfig{
			{Name: "org-a", Quota: []float64{6, 2}},
			{Name: "org-b"},
			{Name: "a-batch", Parent: "org-a"},
			{Name: "a-serve", Parent: "org-a", Quota: []float64{2, 1}},
		}
		leaves = []string{"a-batch", "a-serve", "org-b"}
	}
	s := whiteBoxServer(t, cfg)
	if tree {
		s.credit = core.CreditParams{HalfLifeSeconds: 20}.WithDefaults()
		s.creditLast = clk.Now()
	}
	s.publish(nil)
	rng := rand.New(rand.NewSource(int64(n)))
	muts := make([]mutation, n)
	for i := range muts {
		name := fmt.Sprintf("agent%05d", i)
		u := scaleUtility(rng, 2)
		muts[i] = mutation{kind: mutJoin, name: name, util: u,
			wire: WireAgent{Name: name, Queue: leaves[i%len(leaves)], Alpha0: u.Alpha0, Elasticities: u.Alpha}}
	}
	runScratchEpoch(s, muts)
	for i := 0; i < 4; i++ {
		clk.Advance(5 * time.Second)
		runScratchEpoch(s, muts[i*8:(i+1)*8])
	}
	touched := make([]string, 16)
	for i := range touched {
		touched[i] = muts[rng.Intn(n)].name
	}
	return s, touched
}

// TestAuditAllocsFlat fences the audit's allocations: one verdict and
// no per-agent garbage, so the count is the same at 256 and 2,048
// agents — whole-table and window mode, flat and on a queue tree with
// tilted credit budgets.
func TestAuditAllocsFlat(t *testing.T) {
	for _, tree := range []bool{false, true} {
		for _, whole := range []bool{false, true} {
			measure := func(n int) float64 {
				s, touched := auditServer(t, n, tree)
				s.stateMu.Lock()
				defer s.stateMu.Unlock()
				s.cfg.AuditSample = 64
				if whole {
					s.cfg.AuditSample = n
				}
				if tree {
					if s.pubLeaf == nil || s.table.BudgetSum() == float64(n) {
						t.Fatal("tree case runs without leaf markets or tilted budgets")
					}
				}
				f := s.audit(n, touched) // warm the scratch and clearing sums
				if !f.SI || !f.EF || !f.PE || f.Sampled == whole {
					t.Fatalf("tree=%v whole=%v: verdict %+v", tree, whole, f)
				}
				return testing.AllocsPerRun(10, func() { s.audit(n, touched) })
			}
			small, large := measure(256), measure(2048)
			t.Logf("tree=%v whole=%v: %v allocs per audit", tree, whole, small)
			if small != large {
				t.Errorf("tree=%v whole=%v: audit allocations scale with population: %v at N=256 vs %v at N=2048",
					tree, whole, small, large)
			}
		}
	}
}
