package replay

import (
	"strings"
	"testing"
	"time"

	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/serve"
)

// creditOpts is the canonical credit configuration the replay suite runs:
// a half-life of ten simulated seconds, deep enough decay per one-second
// tick that the ledger visibly tilts and settles inside a default-scale
// trace, with the serve default clamps.
func creditOpts() Options {
	return Options{CreditHalfLife: 10 * time.Second}
}

// TestReplayCreditClean replays every built-in scenario with the credit
// ledger on and requires a spotless run: the mirror ledger reproduces
// every published budget bit for bit, every snapshot passes the weighted
// oracle re-audit and the budgeted Equation 13 differential, and the
// long-run credit auditor finds nothing across the whole history.
func TestReplayCreditClean(t *testing.T) {
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := mustRun(t, name, ScenarioConfig{Seed: 1}, creditOpts())
			if res.Failed() {
				t.Fatalf("violations:\n%s", strings.Join(res.Violations, "\n"))
			}
			if res.Epochs == 0 || res.Checks == 0 {
				t.Fatalf("degenerate run: %+v", res)
			}
		})
	}
}

// TestReplayCreditBitIdentical sweeps shard counts and parallelism with
// the ledger on. The credit pass walks shards in index order and members
// in canonical order, so at a fixed shard count budgets — and through
// them every row and the ledger totals — must not depend on the
// worker-pool width. Across shard counts the totals' summation order
// changes; the mirror ledger sums in the same order, so every run must
// stay clean with its equality checks exact.
func TestReplayCreditBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep is the long half of the suite")
	}
	cfg := ScenarioConfig{Seed: 2}
	for _, shards := range []int{1, 4, 32} {
		var want string
		for _, par := range []int{1, 2, 8} {
			opts := creditOpts()
			opts.Shards, opts.Parallelism = shards, par
			res := mustRun(t, ScenarioCreditCycle, cfg, opts)
			if res.Failed() {
				t.Fatalf("shards=%d par=%d violations:\n%s", shards, par, strings.Join(res.Violations, "\n"))
			}
			if want == "" {
				want = res.GoldenText()
			} else if got := res.GoldenText(); got != want {
				t.Fatalf("shards=%d par=%d diverged:\n--- got ---\n%s--- want ---\n%s", shards, par, got, want)
			}
		}
	}
}

// TestReplayCreditGolden pins the credit-cycle scenario with the ledger
// on: feast-and-settle cohort churn through the weighted engine, every
// budget mirrored, every snapshot digest committed. The credits-off
// golden for the same trace lives in TestReplayGolden; this one moves
// whenever the ledger arithmetic does.
func TestReplayCreditGolden(t *testing.T) {
	res := mustRun(t, ScenarioCreditCycle, ScenarioConfig{Seed: 1}, creditOpts())
	if res.Failed() {
		t.Fatalf("golden run must be clean, got violations: %v", res.Violations)
	}
	checkGolden(t, "credit-cycle-ledger", []byte(res.GoldenText()))
}

// TestReplayCreditHier runs the queue-tree scenario with the ledger on:
// budgets must flow through the hierarchy as effective-weight scaling,
// and the harness's budget-scaled from-scratch tree must reproduce the
// published rows.
func TestReplayCreditHier(t *testing.T) {
	opts := creditOpts()
	res := mustRun(t, ScenarioAdversarialChurn, ScenarioConfig{Seed: 3}, opts)
	if res.Failed() {
		t.Fatalf("violations:\n%s", strings.Join(res.Violations, "\n"))
	}
}

// creditTestDriver builds a minimal white-box driver with the mirror
// ledger armed, for doctored-snapshot checks.
func creditTestDriver() *driver {
	params := core.CreditParams{HalfLifeSeconds: 30}.WithDefaults()
	return &driver{
		res:       &Result{},
		ulps:      2,
		credit:    params,
		ledger:    map[string]core.CreditAccount{},
		prevRates: map[string]float64{},
		prevTime:  ReplayT0,
		auditor:   fair.NewLongRunAuditor(fair.LongRunConfig{Params: params}),
	}
}

// creditTestSnapshot is a one-agent snapshot published one tick after T0
// with the full machine allocated to it.
func creditTestSnapshot(budget float64) (*serve.Snapshot, []core.Agent) {
	wire := serve.WireAgent{Name: "a", Alpha0: 1, Elasticities: []float64{1, 1}}
	util, err := (&Event{Alpha0: wire.Alpha0, Elasticities: wire.Elasticities}).Utility()
	if err != nil {
		panic(err)
	}
	params := core.CreditParams{HalfLifeSeconds: 30}.WithDefaults()
	snap := &serve.Snapshot{
		Epoch:      1,
		Time:       ReplayT0.Add(time.Second).Format(time.RFC3339Nano),
		Capacity:   []float64{10, 10},
		Agents:     []serve.WireAgent{wire},
		Allocation: [][]float64{{10, 10}},
		Budgets:    []float64{budget},
		Credit: &serve.CreditRollup{
			HalfLifeSeconds: params.HalfLifeSeconds,
			MinBudget:       params.MinBudget,
			MaxBudget:       params.MaxBudget,
			BudgetSum:       budget,
			TiltMax:         budget,
			TiltMin:         budget,
		},
	}
	return snap, []core.Agent{{Name: "a", Utility: util}}
}

// TestHarnessFlagsDoctoredLedger is the harness-audits-the-ledger check:
// published budgets the mirror ledger cannot derive from the snapshot
// stream must be flagged — the bit-exact budget comparison is not
// vacuously green.
func TestHarnessFlagsDoctoredLedger(t *testing.T) {
	// A fresh join must carry exactly a unit budget; 1.5 is undeclarable.
	d := creditTestDriver()
	snap, agents := creditTestSnapshot(1.5)
	d.checkCreditSnapshot(snap, agents)
	found := false
	for _, v := range d.res.Violations {
		if strings.Contains(v, "mirror ledger predicts") {
			found = true
		}
	}
	if !found {
		t.Fatalf("doctored budget not flagged: %v", d.res.Violations)
	}

	// A missing rollup under an enabled ledger is a violation.
	d = creditTestDriver()
	snap, agents = creditTestSnapshot(1)
	snap.Credit = nil
	d.checkCreditSnapshot(snap, agents)
	if len(d.res.Violations) == 0 {
		t.Fatal("missing credit rollup not flagged")
	}

	// A rollup whose tilt bounds disagree with the budget vector is a
	// violation even when every budget is individually right.
	d = creditTestDriver()
	snap, agents = creditTestSnapshot(1)
	snap.Credit.TiltMax = 2
	d.checkCreditSnapshot(snap, agents)
	if len(d.res.Violations) == 0 {
		t.Fatal("inconsistent tilt rollup not flagged")
	}

	// The clean counterpart must pass — the checks above fail for their
	// stated reasons, not because the fixture is malformed.
	d = creditTestDriver()
	snap, agents = creditTestSnapshot(1)
	d.checkCreditSnapshot(snap, agents)
	if len(d.res.Violations) != 0 {
		t.Fatalf("clean doctored-snapshot fixture flagged: %v", d.res.Violations)
	}
}

// TestHarnessFlagsStaleLedger: after one settled epoch, republishing the
// same unit budget for a tenant whose usage history implies a tilt must
// be flagged — the mirror actually advances, it does not just rubber-stamp
// fresh joins.
func TestHarnessFlagsStaleLedger(t *testing.T) {
	d := creditTestDriver()
	snap, agents := creditTestSnapshot(1)
	d.checkCreditSnapshot(snap, agents)
	if len(d.res.Violations) != 0 {
		t.Fatalf("epoch 1 should be clean: %v", d.res.Violations)
	}
	// One tick later the tenant has hogged the whole machine (share rate
	// 1.0 against a fair 1/N = 1.0 for a singleton — so craft a two-agent
	// fair split instead): shrink its fair share by claiming two agents
	// were live. Simplest doctored case: advance time and republish with a
	// usage history the mirror knows is nonzero while the snapshot claims
	// a unit budget... which for a singleton is actually correct (its fair
	// share equals its usage). So give the mirror a pre-seeded debt.
	d.ledger["a"] = core.CreditAccount{Usage: 100, Fair: 1}
	snap2, agents2 := creditTestSnapshot(1)
	snap2.Epoch = 2
	snap2.Time = ReplayT0.Add(2 * time.Second).Format(time.RFC3339Nano)
	d.checkCreditSnapshot(snap2, agents2)
	found := false
	for _, v := range d.res.Violations {
		if strings.Contains(v, "mirror ledger predicts") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale unit budget over a debt-laden mirror not flagged: %v", d.res.Violations)
	}
}
