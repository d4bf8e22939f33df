package serve

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/hier"
	"ref/internal/opt"
)

// creditTestServer boots a fake-clock server with MaxBatch 1 (every
// mutation is its own epoch, no window timer) and the given credit knobs.
func creditTestServer(t *testing.T, clk *FakeClock, halfLife time.Duration, min, max float64) *Server {
	t.Helper()
	cfg := testConfig()
	cfg.Clock = clk
	cfg.MaxBatch = 1
	cfg.CreditHalfLife = halfLife
	cfg.CreditMinBudget = min
	cfg.CreditMaxBudget = max
	s := bootServer(t, cfg)
	shortenResumCadence(s, 8) // exercise budget-scaled exact resummation often
	return s
}

// bootServer starts a server from cfg and registers its drain.
func bootServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

func mustJoin(t *testing.T, s *Server, name string, alpha ...float64) {
	t.Helper()
	u := mustUtility(t, 1, alpha...)
	wire := WireAgent{Name: name, Alpha0: u.Alpha0, Elasticities: u.Alpha}
	if _, _, _, apiErr := s.Join(context.Background(), wire, u); apiErr != nil {
		t.Fatalf("join %s: %v", name, apiErr)
	}
}

// tick drives one ledger settlement: advance the fake clock, then run an
// epoch by re-declaring one agent unchanged (epochs only run on
// mutations, so a no-op update is the keepalive).
func tick(t *testing.T, s *Server, clk *FakeClock, dt time.Duration, name string, alpha ...float64) {
	t.Helper()
	clk.Advance(dt)
	u := mustUtility(t, 1, alpha...)
	wire := WireAgent{Name: name, Alpha0: u.Alpha0, Elasticities: u.Alpha}
	if _, _, _, apiErr := s.Update(context.Background(), wire, u); apiErr != nil {
		t.Fatalf("tick %s: %v", name, apiErr)
	}
}

// TestCreditUnitClampBitIdentical pins the tentpole's parity claim from
// the outside: a server with the ledger *enabled* but clamped to
// min=max=1 publishes allocation rows bit-identical to a credits-off
// server under the same mutation and clock script — the entire weighted
// path (credit passes, budgeted rows, resummations, weighted audits)
// must be invisible at unit budgets, on the flat economy and on a
// two-level queue tree. No budget moves, so the credit pass must leave
// every running sum untouched.
func TestCreditUnitClampBitIdentical(t *testing.T) {
	type step struct {
		name  string
		queue string
		alpha []float64
	}
	two := 2.0
	tree := []hier.QueueConfig{
		{Name: "org", Quota: []float64{6, 3}},
		{Name: "leaf1", Parent: "org", Weight: &two},
		{Name: "leaf2", Parent: "org"},
		{Name: "solo", Quota: []float64{4, 2}},
	}
	for _, tc := range []struct {
		name   string
		queues []hier.QueueConfig
		script []step
	}{
		{"flat", nil, []step{
			{"a", "", []float64{0.9, 0.1}},
			{"b", "", []float64{0.2, 0.8}},
			{"c", "", []float64{1, 3}},
			{"a", "", []float64{0.5, 0.5}}, // re-declare
			{"d", "", []float64{7, 1}},
		}},
		{"tree", tree, []step{
			{"a", "leaf1", []float64{0.9, 0.1}},
			{"b", "leaf2", []float64{0.2, 0.8}},
			{"c", "solo", []float64{1, 3}},
			{"d", "", []float64{7, 1}},
			{"a", "leaf1", []float64{0.5, 0.5}}, // re-declare
			{"e", "leaf1", []float64{0.3, 0.6}},
			{"b", "solo", []float64{0.2, 0.8}}, // move
			{"f", "leaf2", []float64{2, 1}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(creditOn bool) []*Snapshot {
				clk := NewFakeClock(t0)
				cfg := testConfig()
				cfg.Clock = clk
				cfg.MaxBatch = 1
				cfg.Queues = tc.queues
				if creditOn {
					cfg.CreditHalfLife = 30 * time.Second
					cfg.CreditMinBudget, cfg.CreditMaxBudget = 1, 1
				}
				s := bootServer(t, cfg)
				shortenResumCadence(s, 8)
				var snaps []*Snapshot
				for _, st := range tc.script {
					clk.Advance(5 * time.Second)
					u := mustUtility(t, 1, st.alpha...)
					wire := WireAgent{Name: st.name, Alpha0: u.Alpha0, Elasticities: u.Alpha, Queue: st.queue}
					if _, _, _, apiErr := s.Join(context.Background(), wire, u); apiErr != nil {
						t.Fatalf("join %s: %v", st.name, apiErr)
					}
					snaps = append(snaps, s.Current())
				}
				return snaps
			}
			off, on := run(false), run(true)
			for i := range off {
				a, b := off[i], on[i]
				if len(a.Allocation) != len(b.Allocation) || len(a.Queues) != len(b.Queues) {
					t.Fatalf("step %d: %d vs %d rows, %d vs %d queues", i,
						len(a.Allocation), len(b.Allocation), len(a.Queues), len(b.Queues))
				}
				for j := range a.Allocation {
					for r := range a.Allocation[j] {
						if a.Allocation[j][r] != b.Allocation[j][r] {
							t.Fatalf("step %d row %d res %d: credits-off %v != clamped-unit %v (ulp %d)",
								i, j, r, a.Allocation[j][r], b.Allocation[j][r],
								core.UlpDiff(a.Allocation[j][r], b.Allocation[j][r]))
						}
					}
				}
				for j := range a.Queues {
					for r := range a.Queues[j].Share {
						if a.Queues[j].Share[r] != b.Queues[j].Share[r] {
							t.Fatalf("step %d queue %s res %d: credits-off share %v != clamped-unit %v",
								i, a.Queues[j].Name, r, a.Queues[j].Share[r], b.Queues[j].Share[r])
						}
					}
				}
				if a.Credit != nil {
					t.Fatalf("step %d: credits-off snapshot grew a credit rollup", i)
				}
				if b.Credit == nil {
					t.Fatalf("step %d: clamped-unit snapshot missing credit rollup", i)
				}
				for j, bud := range b.Budgets {
					if bud != 1 {
						t.Fatalf("step %d: budget[%d] = %v under a [1,1] clamp", i, j, bud)
					}
				}
				if b.Credit.BudgetSum != float64(len(b.Agents)) {
					t.Fatalf("step %d: budget sum %v, want exactly %d", i, b.Credit.BudgetSum, len(b.Agents))
				}
			}
		})
	}
}

// TestCreditPassSumsExact pins the credit pass's resummation: after
// every credit epoch with tilted budgets, the table's sums and budget
// sum and every queue's aggregate equal a from-scratch rebuild in the
// pass's order — shards in index order, each shard's rows in canonical
// order, per-shard compensated sums folded in shard order — bit for bit.
func TestCreditPassSumsExact(t *testing.T) {
	clk := NewFakeClock(t0)
	cfg := testConfig()
	cfg.Clock = clk
	cfg.MaxBatch = 1
	cfg.Shards = 4
	cfg.CreditHalfLife = 20 * time.Second
	two := 2.0
	cfg.Queues = []hier.QueueConfig{
		{Name: "org", Quota: []float64{6, 3}},
		{Name: "leaf1", Parent: "org", Weight: &two},
		{Name: "leaf2", Parent: "org"},
		{Name: "solo"},
	}
	s := bootServer(t, cfg)
	queues := []string{"leaf1", "leaf2", "solo", ""}
	for i := 0; i < 24; i++ {
		u := mustUtility(t, 1, 0.05+float64(i%5)/4, 0.05+float64(i%7)/6)
		wire := WireAgent{Name: fmt.Sprintf("t%02d", i), Alpha0: u.Alpha0, Elasticities: u.Alpha, Queue: queues[i%len(queues)]}
		if _, _, _, apiErr := s.Join(context.Background(), wire, u); apiErr != nil {
			t.Fatalf("join %s: %v", wire.Name, apiErr)
		}
	}
	tilted := false
	for epoch := 0; epoch < 30; epoch++ {
		tick(t, s, clk, 2*time.Second, "t00", 0.05, 0.05)
		s.stateMu.RLock()
		nRes := len(cfg.Capacity)
		var budgets core.CompSum
		sums := make([]core.CompSum, nRes)
		nodes := map[string][]core.CompSum{}
		for si := 0; si < s.table.NumShards(); si++ {
			sh := s.table.Shard(si)
			var shBudget core.CompSum
			shSums := make([]core.CompSum, nRes)
			for i := 0; i < sh.Len(); i++ {
				b, w := sh.Budget(i), sh.Weight(i)
				tilted = tilted || b != 1
				shBudget.Add(b)
				for q := sh.Payload(i).leaf.Name(); q != ""; {
					if nodes[q] == nil {
						nodes[q] = make([]core.CompSum, nRes)
					}
					for r := range w {
						nodes[q][r].Add(b * w[r])
					}
					qc, _ := s.tree.Config(q)
					q = qc.Parent
				}
				for r := range w {
					shSums[r].Add(b * w[r])
				}
			}
			budgets.Merge(shBudget)
			for r := range sums {
				sums[r].Merge(shSums[r])
			}
		}
		got := s.table.Sums(nil)
		for r := range sums {
			if want := sums[r].Value(); got[r] != want {
				t.Fatalf("epoch %d: table sum %d = %v, rebuild in pass order %v", epoch, r, got[r], want)
			}
		}
		if got, want := s.table.BudgetSum(), budgets.Value(); got != want {
			t.Fatalf("epoch %d: budget sum %v, rebuild in pass order %v", epoch, got, want)
		}
		for q, want := range nodes {
			for r, v := range s.tree.LeafSums(q, nil) {
				if v != want[r].Value() {
					t.Fatalf("epoch %d: queue %s sum %d = %v, rebuild in pass order %v", epoch, q, r, v, want[r].Value())
				}
			}
		}
		s.stateMu.RUnlock()
	}
	if !tilted {
		t.Fatal("no budget ever tilted: the pass's rebuild was never exercised")
	}
}

// TestAgentEntrySize pins the agent-table payload to the 160-byte size
// class: flat-1m holds a million entries, so one more field would move
// every entry up to the 176-byte class, about 15 MiB of heap.
func TestAgentEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(agentEntry{}); got > 160 {
		t.Fatalf("agentEntry is %d bytes, want at most 160", got)
	}
}

// TestCreditTiltTracksSustainedUsage drives a persistently asymmetric
// economy: two cache-hungry tenants split resource 1 while a lone tenant
// owns most of resource 2, so the loner's realized share rate runs above
// 1/3 and the ledger must tilt its budget below parity (and the crowded
// pair above) within a few half-lives — then every published epoch must
// still satisfy the *weighted* audits, and point/delta reads must carry
// the live budgets.
func TestCreditTiltTracksSustainedUsage(t *testing.T) {
	clk := NewFakeClock(t0)
	s := creditTestServer(t, clk, 20*time.Second, 0.5, 2)
	mustJoin(t, s, "crowded1", 0.9, 0.1)
	mustJoin(t, s, "crowded2", 0.9, 0.1)
	mustJoin(t, s, "loner", 0.1, 0.9)
	for i := 0; i < 40; i++ { // 80s = 4 half-lives of settlement
		tick(t, s, clk, 2*time.Second, "crowded1", 0.9, 0.1)
	}
	snap := s.Current()
	if snap.Credit == nil || len(snap.Budgets) != 3 {
		t.Fatalf("missing credit state: %+v", snap.Credit)
	}
	// Budgets ride in Agents order (sorted): crowded1, crowded2, loner.
	bl := snap.Budgets[2]
	if bl >= 1 {
		t.Fatalf("loner's budget %v not tilted below parity after 4 half-lives (budgets %v)", bl, snap.Budgets)
	}
	if snap.Budgets[0] <= 1 || snap.Budgets[1] <= 1 {
		t.Fatalf("crowded tenants not tilted above parity: %v", snap.Budgets)
	}
	if snap.Credit.TiltMin != bl || snap.Credit.TiltMax != math.Max(snap.Budgets[0], snap.Budgets[1]) {
		t.Fatalf("rollup tilt extremes %v/%v disagree with budgets %v",
			snap.Credit.TiltMin, snap.Credit.TiltMax, snap.Budgets)
	}
	for _, b := range snap.Budgets {
		if b < 0.5 || b > 2 {
			t.Fatalf("budget %v escaped the [0.5,2] clamp", b)
		}
	}
	if snap.Fairness == nil || !snap.Fairness.SI || !snap.Fairness.EF || !snap.Fairness.PE {
		t.Fatalf("weighted audit not clean under tilt: %+v", snap.Fairness)
	}
	// The tilt must actually move allocations: the crowded pair's boosted
	// budgets buy them more of resource 1 than the unweighted mechanism
	// would give (equal weights on r1 would split it 0.9/1.9 each against
	// the loner's 0.1 share — budget-boosted they clear above it).
	if row := s.AgentRow("crowded1"); row == nil || row.Budget != snap.Budgets[0] {
		t.Fatalf("AgentRow budget = %+v, want %v", row, snap.Budgets[0])
	}
	d := s.DeltaSince(0)
	if !d.Complete || len(d.Changes) == 0 {
		t.Fatalf("delta read: %+v", d)
	}
	for _, ch := range d.Changes {
		if ch.Budget == 0 {
			t.Fatalf("delta change for %s missing budget", ch.Agent.Name)
		}
	}
}

// TestCreditMultiDaySoak runs the ledger across two simulated days of
// churn — joins, departures, re-declares, idle gaps of many half-lives —
// feeding every published snapshot to the long-run oracles exactly as an
// external auditor would (shadow ledger rebuilt from rows; nothing
// trusted from the server but the budgets it published). At the end: no
// long-run SI, entitlement, or starvation findings, every epoch's
// weighted audit clean, every budget inside the clamp, and the ledger
// totals coherent.
func TestCreditMultiDaySoak(t *testing.T) {
	const halfLife = 30 * time.Minute
	clk := NewFakeClock(t0)
	s := creditTestServer(t, clk, halfLife, 0.5, 2)
	aud := fair.NewLongRunAuditor(fair.LongRunConfig{Params: core.CreditParams{
		HalfLifeSeconds: halfLife.Seconds(), MinBudget: 0.5, MaxBudget: 2,
	}})

	type tenant struct {
		name  string
		alpha []float64
	}
	pool := []tenant{
		{"t0", []float64{0.9, 0.1}},
		{"t1", []float64{0.8, 0.2}},
		{"t2", []float64{0.5, 0.5}},
		{"t3", []float64{0.2, 0.8}},
		{"t4", []float64{0.1, 0.9}},
		{"t5", []float64{1, 3}},
	}
	mustJoin(t, s, pool[0].name, pool[0].alpha...)
	mustJoin(t, s, pool[1].name, pool[1].alpha...)
	mustJoin(t, s, pool[2].name, pool[2].alpha...)
	live := map[string]bool{"t0": true, "t1": true, "t2": true}

	lastTime := s.Current().Time
	observe := func(snap *Snapshot) {
		prev, err1 := time.Parse(time.RFC3339Nano, lastTime)
		cur, err2 := time.Parse(time.RFC3339Nano, snap.Time)
		if err1 != nil || err2 != nil {
			t.Fatalf("snapshot timestamps: %v %v", err1, err2)
		}
		lastTime = snap.Time
		dt := cur.Sub(prev).Seconds()
		names := make([]string, len(snap.Agents))
		utils := make([]cobb.Utility, len(snap.Agents))
		for i, a := range snap.Agents {
			names[i] = a.Name
			u, err := cobb.New(a.Alpha0, a.Elasticities...)
			if err != nil {
				t.Fatalf("published agent %s: %v", a.Name, err)
			}
			utils[i] = u
		}
		if err := aud.Observe(names, utils, snap.Budgets, opt.Alloc(snap.Allocation), snap.Capacity, dt); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}

	// 192 epochs × 15 min ≈ 2 days, with a 6-half-life idle gap midway.
	rng := uint64(42)
	next := func(n int) int { // tiny deterministic LCG; no package rand needed
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng >> 33 % uint64(n))
	}
	for i := 0; i < 192; i++ {
		dt := 15 * time.Minute
		if i == 96 {
			dt = 3 * time.Hour // idle: ledger decays most of its history
		}
		clk.Advance(dt)
		tn := pool[next(len(pool))]
		switch {
		case !live[tn.name]:
			mustJoin(t, s, tn.name, tn.alpha...)
			live[tn.name] = true
		case len(live) > 2 && next(4) == 0:
			if _, apiErr := s.Leave(context.Background(), tn.name); apiErr != nil {
				t.Fatalf("leave %s: %v", tn.name, apiErr)
			}
			delete(live, tn.name)
		default:
			u := mustUtility(t, 1, tn.alpha...)
			wire := WireAgent{Name: tn.name, Alpha0: u.Alpha0, Elasticities: u.Alpha}
			if _, _, _, apiErr := s.Update(context.Background(), wire, u); apiErr != nil {
				t.Fatalf("update %s: %v", tn.name, apiErr)
			}
		}
		snap := s.Current()
		if snap.Fairness != nil && (!snap.Fairness.SI || !snap.Fairness.EF || !snap.Fairness.PE) {
			t.Fatalf("epoch %d: weighted audit failed: %+v", snap.Epoch, snap.Fairness.Violations)
		}
		c := snap.Credit
		if c == nil {
			t.Fatalf("epoch %d: no credit rollup", snap.Epoch)
		}
		var bsum float64
		for _, b := range snap.Budgets {
			if b < 0.5-1e-12 || b > 2+1e-12 {
				t.Fatalf("epoch %d: budget %v escaped the clamp", snap.Epoch, b)
			}
			bsum += b
		}
		if math.Abs(bsum-c.BudgetSum) > 1e-9*math.Max(1, bsum) {
			t.Fatalf("epoch %d: Σ budgets %v != rollup budget sum %v", snap.Epoch, bsum, c.BudgetSum)
		}
		if c.TiltMin > c.TiltMax || c.TiltMin <= 0 {
			t.Fatalf("epoch %d: tilt bounds %v/%v", snap.Epoch, c.TiltMin, c.TiltMax)
		}
		observe(snap)
	}
	if f := aud.Findings(); len(f) != 0 {
		t.Fatalf("long-run oracles found violations over the soak: %v", f)
	}
	if aud.AgentCount() < len(pool) {
		t.Fatalf("soak only exercised %d of %d tenants", aud.AgentCount(), len(pool))
	}
}

// TestCreditConfigValidation pins New's rejection of malformed clamps and
// acceptance of the defaulted form.
func TestCreditConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.CreditHalfLife = time.Minute
	cfg.CreditMinBudget = 3 // > 1: invalid
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted min budget > 1")
	}
	cfg.CreditMinBudget = 0
	cfg.CreditMaxBudget = 0.2 // < 1: invalid
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted max budget < 1")
	}
	cfg.CreditMaxBudget = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New rejected defaulted credit config: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Close(ctx)
	if s.credit.MinBudget != core.DefaultCreditMinBudget || s.credit.MaxBudget != core.DefaultCreditMaxBudget {
		t.Fatalf("defaults not applied: %+v", s.credit)
	}
}
