package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ref/internal/cobb"
)

// These differentials pin the tentpole invariant of the weighted
// mechanism: at unit budgets every budget-aware code path is
// bit-identical to the classic equal-income path — not merely close, the
// same IEEE doubles. The credit ledger is invisible until it tilts a
// budget away from 1.

func randEconomy(rng *rand.Rand, n, nRes int) ([]Agent, []float64) {
	agents := make([]Agent, n)
	for i := range agents {
		alpha := make([]float64, nRes)
		for r := range alpha {
			alpha[r] = 0.05 + 2*rng.Float64()
		}
		agents[i] = Agent{Name: fmt.Sprintf("a%d", i), Utility: cobb.MustNew(0.5+rng.Float64(), alpha...)}
	}
	cap := make([]float64, nRes)
	for r := range cap {
		cap[r] = 1 + 99*rng.Float64()
	}
	return agents, cap
}

// TestAllocateBudgetedUnitIdentity: AllocateBudgeted under an explicit
// all-ones budget vector returns the same matrix as Allocate, bit for
// bit, across random economies.
func TestAllocateBudgetedUnitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n, nRes := 1+rng.Intn(12), 1+rng.Intn(5)
		agents, cap := randEconomy(rng, n, nRes)
		classic, err := Allocate(agents, cap)
		if err != nil {
			t.Fatal(err)
		}
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		weighted, err := AllocateBudgeted(agents, ones, cap)
		if err != nil {
			t.Fatal(err)
		}
		for i := range agents {
			for r := range cap {
				if classic.X[i][r] != weighted.X[i][r] {
					t.Fatalf("trial %d agent %d resource %d: classic %v, unit-budget %v",
						trial, i, r, classic.X[i][r], weighted.X[i][r])
				}
			}
		}
	}
}

// TestIncrementalUnitBudgetIdentity drives two agent tables through the
// same churn history — one by plain upserts, one with redundant
// SetBudget(1) retilts on top — and requires every sum and row they
// publish to be bit-identical at every epoch.
func TestIncrementalUnitBudgetIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	capacity := []float64{24, 12, 8}
	classic := NewTable[struct{}](testShards, len(capacity))
	unit := NewTable[struct{}](testShards, len(capacity))
	live := map[string]bool{}
	for epoch := 0; epoch < 40; epoch++ {
		for step := 0; step < 25; step++ {
			name := fmt.Sprintf("t%d", rng.Intn(60))
			switch {
			case live[name] && rng.Float64() < 0.3:
				classic.Remove(name)
				unit.Remove(name)
				delete(live, name)
			default:
				alpha := make([]float64, len(capacity))
				for r := range alpha {
					alpha[r] = 0.05 + 2*rng.Float64()
				}
				w := cobb.MustNew(1, alpha...).Rescaled().Alpha
				classic.Upsert(name, struct{}{}, w)
				unit.Upsert(name, struct{}{}, w)
				live[name] = true
			}
		}
		// A unit-budget retilt must be a no-op on the sums.
		for name := range live {
			if rng.Float64() < 0.2 {
				sh, i, _ := unit.Lookup(name)
				if oldEff, _ := sh.SetBudget(i, 1); oldEff != nil {
					t.Fatalf("agent %s: SetBudget(1) at budget 1 reported a change", name)
				}
			}
		}
		classic.EndEpoch()
		unit.EndEpoch()

		cs := classic.Sums(nil)
		us := unit.Sums(nil)
		for r := range cs {
			if cs[r] != us[r] {
				t.Fatalf("epoch %d resource %d: classic sum %v, unit-budget sum %v", epoch, r, cs[r], us[r])
			}
		}
		if b := unit.BudgetSum(); b != float64(len(live)) {
			t.Fatalf("epoch %d: budget sum %v, want the population %d", epoch, b, len(live))
		}
		for name := range live {
			crow := tableRow(t, classic, capacity, name)
			urow := tableRow(t, unit, capacity, name)
			for r := range crow {
				if crow[r] != urow[r] {
					t.Fatalf("epoch %d agent %s resource %d: classic %v, unit-budget %v",
						epoch, name, r, crow[r], urow[r])
				}
			}
		}
	}
}

// TestTableBudgetedResumIdentity tilts budgets through SetBudget and
// checks that the running effective-weight and budget sums agree with an
// exact resummation within 2 ulps, and that rows read the tilt.
func TestTableBudgetedResumIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	capacity := []float64{24, 12}
	tab := NewTable[struct{}](testShards, len(capacity))
	for i := 0; i < 300; i++ {
		tab.Upsert(fmt.Sprintf("t%03d", i), struct{}{}, cobb.MustNew(1, 0.05+rng.Float64(), 0.05+rng.Float64()).Rescaled().Alpha)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 300; i += 1 + rng.Intn(4) {
			sh, j, _ := tab.Lookup(fmt.Sprintf("t%03d", i))
			sh.SetBudget(j, 0.25+rng.Float64())
		}
	}
	running, budgets := tab.Sums(nil), tab.BudgetSum()
	tab.Resum()
	exact := tab.Sums(nil)
	for r := range running {
		if d := UlpDiff(running[r], exact[r]); d > 2 {
			t.Fatalf("resource %d: running %v vs exact %v (%d ulps)", r, running[r], exact[r], d)
		}
	}
	if d := UlpDiff(budgets, tab.BudgetSum()); d > 2 {
		t.Fatalf("budget sum: running %v vs exact %v (%d ulps)", budgets, tab.BudgetSum(), d)
	}
	sh, j, _ := tab.Lookup("t000")
	b := sh.Budget(j)
	row := RowFromSumsBudgeted(nil, sh.Weight(j), b, exact, capacity, tab.Len())
	if want := b * sh.Weight(j)[0] / exact[0] * capacity[0]; row[0] != want {
		t.Fatalf("row ignores the budget: %v, want %v", row[0], want)
	}
}

// TestScaleWeightsUnitAlias: at budget exactly 1 ScaleWeights returns
// the input slice itself — zero copies, zero multiplications, so the
// unit-budget path cannot perturb a single bit.
func TestScaleWeightsUnitAlias(t *testing.T) {
	w := []float64{0.3, 0.7}
	dst := make([]float64, 2)
	got := ScaleWeights(dst, w, 1)
	if &got[0] != &w[0] {
		t.Fatal("ScaleWeights at budget 1 must alias the input slice")
	}
	got = ScaleWeights(dst, w, 0.5)
	if &got[0] != &dst[0] || got[0] != 0.15 || got[1] != 0.35 {
		t.Fatalf("ScaleWeights at budget 0.5 = %v (aliased dst: %v)", got, &got[0] == &dst[0])
	}
}

// TestRowFromSumsBudgetedUnitIdentity: the budgeted row kernel at budget
// 1 is the classic kernel, bit for bit, including the equal-split
// fallback when no one demands a resource.
func TestRowFromSumsBudgetedUnitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		nRes := 1 + rng.Intn(5)
		w := make([]float64, nRes)
		sums := make([]float64, nRes)
		capacity := make([]float64, nRes)
		for r := range w {
			w[r] = 2 * rng.Float64()
			sums[r] = w[r] + 5*rng.Float64()
			if rng.Float64() < 0.1 {
				w[r], sums[r] = 0, 0 // nobody wants r: equal-split fallback
			}
			capacity[r] = 1 + 99*rng.Float64()
		}
		n := 1 + rng.Intn(20)
		classic := RowFromSums(nil, w, sums, capacity, n)
		unit := RowFromSumsBudgeted(nil, w, 1, sums, capacity, n)
		for r := range classic {
			if classic[r] != unit[r] {
				t.Fatalf("trial %d resource %d: classic %v, unit-budget %v", trial, r, classic[r], unit[r])
			}
		}
	}
}

// TestRowShareRateBitIdentical: the fused share-rate kernel equals
// ShareRate of the materialized budgeted row, bit for bit, including
// the equal-split fallback and leaf shares below capacity.
func TestRowShareRateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		nRes := 1 + rng.Intn(5)
		w := make([]float64, nRes)
		sums := make([]float64, nRes)
		share := make([]float64, nRes)
		capacity := make([]float64, nRes)
		for r := range w {
			w[r] = 2 * rng.Float64()
			sums[r] = w[r] + 5*rng.Float64()
			if rng.Float64() < 0.1 {
				w[r], sums[r] = 0, 0 // nobody wants r: equal-split fallback
			}
			capacity[r] = 1 + 99*rng.Float64()
			share[r] = capacity[r] * rng.Float64()
		}
		budget := 0.25 + 2*rng.Float64()
		if trial%4 == 0 {
			budget = 1
		}
		n := 1 + rng.Intn(20)
		want := ShareRate(RowFromSumsBudgeted(nil, w, budget, sums, share, n), capacity)
		if got := RowShareRate(w, budget, sums, share, n, capacity); got != want {
			t.Fatalf("trial %d: RowShareRate %v, ShareRate of the row %v", trial, got, want)
		}
	}
}

// TestTableRebuild drives the caller-walked rebuild the serve credit
// pass runs: a walk that moves budgets commits sums bit-identical to
// SetBudget followed by an exact Resum and restarts the cadence; a walk
// that moves none leaves the running sums untouched, bit for bit.
func TestTableRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	capacity := []float64{24, 12}
	build := func() *Table[struct{}] {
		rng := rand.New(rand.NewSource(41))
		tab := NewTable[struct{}](testShards, len(capacity))
		for i := 0; i < 300; i++ {
			tab.Upsert(fmt.Sprintf("t%03d", i), struct{}{}, cobb.MustNew(1, 0.05+rng.Float64(), 0.05+rng.Float64()).Rescaled().Alpha)
		}
		return tab
	}
	walk := func(tab *Table[struct{}], budget func(name string, old float64) float64) bool {
		tab.BeginRebuild()
		for si := 0; si < tab.NumShards(); si++ {
			sh := tab.Shard(si)
			for i := 0; i < sh.Len(); i++ {
				sh.RebuildRow(i, budget(sh.Name(i), sh.Budget(i)))
			}
		}
		return tab.EndRebuild()
	}
	tilt := func(name string, _ float64) float64 { return 0.5 + float64(len(name)%7+int(name[len(name)-1]))/97 }

	// Unchanged budgets: the delta-maintained sums stay as they were.
	tab := build()
	for i := 0; i < 300; i += 3 {
		tab.Upsert(fmt.Sprintf("t%03d", i), struct{}{}, cobb.MustNew(1, rng.Float64()+0.01, rng.Float64()+0.01).Rescaled().Alpha)
	}
	before, bsum, resums := tab.Sums(nil), tab.BudgetSum(), tab.Cadence().Resums()
	if walk(tab, func(_ string, old float64) float64 { return old }) {
		t.Fatal("a walk that moved no budget committed")
	}
	for r, v := range tab.Sums(nil) {
		if v != before[r] {
			t.Fatalf("resource %d: untouched sums moved from %v to %v", r, before[r], v)
		}
	}
	if tab.BudgetSum() != bsum || tab.Cadence().Resums() != resums {
		t.Fatal("a walk that moved no budget touched the budget sum or the cadence")
	}

	// Moved budgets: the commit equals SetBudget then an exact Resum.
	ref := build()
	tab = build()
	for si := 0; si < ref.NumShards(); si++ {
		sh := ref.Shard(si)
		for i := 0; i < sh.Len(); i++ {
			sh.SetBudget(i, tilt(sh.Name(i), sh.Budget(i)))
		}
	}
	ref.Resum()
	if !walk(tab, tilt) {
		t.Fatal("a walk that moved budgets did not commit")
	}
	want, got := ref.Sums(nil), tab.Sums(nil)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("resource %d: rebuilt %v, SetBudget+Resum %v", r, got[r], want[r])
		}
	}
	if got, want := tab.BudgetSum(), ref.BudgetSum(); got != want {
		t.Fatalf("budget sum: rebuilt %v, SetBudget+Resum %v", got, want)
	}
	if tab.Cadence().Resums() != 1 {
		t.Fatalf("a committed rebuild counted %d resummations, want 1", tab.Cadence().Resums())
	}
}
