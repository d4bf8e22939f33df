package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"ref/internal/cobb"
)

// maxUlps is the agreement bound the differential tests hold the
// incremental engine to: every allocation entry within one ulp of the
// full recompute.
const maxUlps = 1

// randUtility draws a utility whose elasticities span several magnitude
// classes, including zeros (a resource the agent does not value).
func randUtility(rng *rand.Rand, r int) cobb.Utility {
	alpha := make([]float64, r)
	positive := false
	for j := range alpha {
		switch rng.Intn(4) {
		case 0:
			alpha[j] = 0
		case 1:
			alpha[j] = rng.Float64()
		case 2:
			alpha[j] = rng.Float64() * 1e3
		default:
			alpha[j] = rng.Float64() * 1e-3
		}
		if alpha[j] > 0 {
			positive = true
		}
	}
	if !positive {
		alpha[rng.Intn(r)] = rng.Float64() + 0.1
	}
	return cobb.MustNew(0.5+rng.Float64(), alpha...)
}

// testShards stripes the differential tables, so every sum crosses the
// fixed-order shard combine.
const testShards = 4

// fullRows recomputes the allocation from scratch with Allocate over the
// table's current agents (in canonical order) and returns rows keyed by
// name.
func fullRows(t *testing.T, tab *Table[struct{}], capacity []float64, utils map[string]cobb.Utility) map[string][]float64 {
	t.Helper()
	if tab.Len() == 0 {
		return nil
	}
	agents := make([]Agent, 0, tab.Len())
	tab.Each(func(sh *Shard[struct{}], i int) {
		agents = append(agents, Agent{Name: sh.Name(i), Utility: utils[sh.Name(i)]})
	})
	alloc, err := Allocate(agents, capacity)
	if err != nil {
		t.Fatalf("full recompute: %v", err)
	}
	out := make(map[string][]float64, len(agents))
	for i, ag := range agents {
		out[ag.Name] = alloc.X[i]
	}
	return out
}

// tableRow reads one agent's O(R) row from the table's combined sums.
func tableRow(t *testing.T, tab *Table[struct{}], capacity []float64, name string) []float64 {
	t.Helper()
	sh, i, ok := tab.Lookup(name)
	if !ok {
		t.Fatalf("agent %s missing from the table", name)
	}
	return RowFromSumsBudgeted(nil, sh.Weight(i), sh.Budget(i), tab.Sums(nil), capacity, tab.Len())
}

// assertAgreement compares every agent's incremental row against the full
// recompute at ulp resolution.
func assertAgreement(t *testing.T, tab *Table[struct{}], capacity []float64, utils map[string]cobb.Utility, epoch int) {
	t.Helper()
	want := fullRows(t, tab, capacity, utils)
	for name, w := range want {
		got := tableRow(t, tab, capacity, name)
		for r := range w {
			if d := UlpDiff(got[r], w[r]); d > maxUlps {
				t.Fatalf("epoch %d: agent %s resource %d: incremental %v vs full %v (%d ulps apart)",
					epoch, name, r, got[r], w[r], d)
			}
		}
	}
}

// TestIncrementalDifferential drives randomized join/leave/update
// sequences through the agent table and asserts agreement with the full
// recompute within 1 ulp at every epoch, with the cadence shortened to 7
// so the sequence crosses many exact-resummation boundaries.
func TestIncrementalDifferential(t *testing.T) {
	for _, resources := range []int{2, 3, 5} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("R=%d/seed=%d", resources, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(resources)))
				capacity := make([]float64, resources)
				for r := range capacity {
					capacity[r] = 1 + rng.Float64()*100
				}
				tab := NewTable[struct{}](testShards, resources)
				tab.Cadence().Shorten(7)
				utils := make(map[string]cobb.Utility)
				live := []string{}
				joined := 0
				for epoch := 0; epoch < 60; epoch++ {
					batch := 1 + rng.Intn(8)
					for b := 0; b < batch; b++ {
						switch op := rng.Intn(10); {
						case op < 5 || len(live) == 0: // join
							name := fmt.Sprintf("agent%04d", joined)
							joined++
							u := randUtility(rng, resources)
							utils[name] = u
							live = append(live, name)
							tab.Upsert(name, struct{}{}, u.Rescaled().Alpha)
						case op < 8: // update
							name := live[rng.Intn(len(live))]
							u := randUtility(rng, resources)
							utils[name] = u
							tab.Upsert(name, struct{}{}, u.Rescaled().Alpha)
						default: // leave
							i := rng.Intn(len(live))
							name := live[i]
							live = append(live[:i], live[i+1:]...)
							delete(utils, name)
							if !tab.Remove(name) {
								t.Fatalf("leave %s: not in the table", name)
							}
						}
					}
					tab.EndEpoch()
					assertAgreement(t, tab, capacity, utils, epoch)
				}
				if tab.Cadence().Resums() == 0 {
					t.Fatalf("60 epochs at a cadence of 7 never resummed")
				}
			})
		}
	}
}

// TestIncrementalLargeChurn pushes a bigger economy (N=512) through heavy
// churn to exercise the compensated sums where naive running sums would
// drift, still requiring 1-ulp agreement.
func TestIncrementalLargeChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	capacity := []float64{24, 12, 3}
	tab := NewTable[struct{}](testShards, 3)
	utils := make(map[string]cobb.Utility)
	for i := 0; i < 512; i++ {
		name := fmt.Sprintf("agent%04d", i)
		utils[name] = randUtility(rng, 3)
		tab.Upsert(name, struct{}{}, utils[name].Rescaled().Alpha)
	}
	// 50 epochs of 64-agent update batches: ~6× the population churned
	// through the sums without a single exact resummation (the cadence
	// is 256 epochs).
	for epoch := 0; epoch < 50; epoch++ {
		for b := 0; b < 64; b++ {
			name := fmt.Sprintf("agent%04d", rng.Intn(512))
			utils[name] = randUtility(rng, 3)
			tab.Upsert(name, struct{}{}, utils[name].Rescaled().Alpha)
		}
		tab.EndEpoch()
	}
	if n := tab.Cadence().Resums(); n != 0 {
		t.Fatalf("drift policy fired on benign churn (%d resums)", n)
	}
	assertAgreement(t, tab, capacity, utils, 50)
}

// TestIncrementalDriftTrigger proves the drift policy fires: churn of
// 1e15 through a sum that ends near 1 outruns the 1e12 drift ratio and
// forces an exact resummation of that shard alone at the epoch's end.
func TestIncrementalDriftTrigger(t *testing.T) {
	tab := NewTable[struct{}](testShards, 2)
	tab.Upsert("small", struct{}{}, []float64{0.5, 0.5})
	tab.Upsert("huge", struct{}{}, []float64{1e15, 0.5})
	tab.Remove("huge")
	tab.EndEpoch()
	if n := tab.Cadence().Resums(); n != 1 {
		t.Fatalf("churn 1e15× the live sum did not trigger one resummation (resums=%d)", n)
	}
	if got := tab.Sums(nil); got[0] != 0.5 || got[1] != 0.5 {
		t.Fatalf("sums after the drift resummation = %v, want [0.5 0.5]", got)
	}
	tab.Upsert("small", struct{}{}, []float64{0.25, 0.75})
	tab.EndEpoch()
	if n := tab.Cadence().Resums(); n != 1 {
		t.Fatalf("benign churn triggered a resummation (resums=%d)", n)
	}
}

// TestIncrementalErrors locks the refusal path: removing an unknown
// agent reports false and leaves the sums, the budget sum and the
// population untouched.
func TestIncrementalErrors(t *testing.T) {
	tab := NewTable[struct{}](testShards, 2)
	tab.Upsert("a", struct{}{}, []float64{0.3, 0.7})
	before := tab.Sums(nil)
	if tab.Remove("ghost") {
		t.Fatal("removing an unknown agent succeeded")
	}
	if after := tab.Sums(nil); after[0] != before[0] || after[1] != before[1] {
		t.Fatalf("failed removal changed the sums: %v -> %v", before, after)
	}
	if tab.Len() != 1 || tab.BudgetSum() != 1 {
		t.Fatalf("failed removal changed the population: len %d, budget sum %v", tab.Len(), tab.BudgetSum())
	}
}

// TestTableCanonicalOrder pins the column layout: rows sit in name order
// within a shard whatever the join order, a join or leave shifts the
// rows after it, and Each merges the shards into the global name order.
func TestTableCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := NewTable[int](testShards, 2)
	want := map[string]int{}
	for _, i := range rng.Perm(200) {
		name := fmt.Sprintf("n%03d", i)
		want[name] = i
		tab.Upsert(name, i, []float64{float64(i), 1})
	}
	for i := 0; i < 200; i += 3 {
		name := fmt.Sprintf("n%03d", i)
		delete(want, name)
		tab.Remove(name)
	}
	var prev string
	seen := 0
	tab.Each(func(sh *Shard[int], i int) {
		name := sh.Name(i)
		if name <= prev {
			t.Fatalf("walk out of order: %q after %q", name, prev)
		}
		prev = name
		if p, w := sh.Payload(i), sh.Weight(i); p != want[name] || w[0] != float64(p) || w[1] != 1 || sh.Budget(i) != 1 {
			t.Fatalf("row %s = payload %d weight %v budget %v", name, p, w, sh.Budget(i))
		}
		seen++
	})
	if seen != len(want) || tab.Len() != len(want) {
		t.Fatalf("walk saw %d rows, table holds %d, want %d", seen, tab.Len(), len(want))
	}
	for g := 0; g < tab.Len(); g++ {
		sh, i := tab.At(g)
		if j, ok := sh.Find(sh.Name(i)); !ok || j != i {
			t.Fatalf("At(%d) = row %d of %q, Find says %d/%v", g, i, sh.Name(i), j, ok)
		}
	}
}

// TestUlpDiff pins the ulp metric the differential tests are stated in.
func TestUlpDiff(t *testing.T) {
	cases := []struct {
		a, b float64
		want int64
	}{
		{1, 1, 0},
		{1, math.Nextafter(1, 2), 1},
		{1, math.Nextafter(math.Nextafter(1, 2), 2), 2},
		{0, math.Copysign(0, -1), 0},
		{-1, math.Nextafter(-1, -2), 1},
	}
	for _, c := range cases {
		if got := UlpDiff(c.a, c.b); got != c.want {
			t.Errorf("UlpDiff(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if UlpDiff(math.NaN(), 1) != math.MaxInt64 {
		t.Error("NaN must compare maximally distant")
	}
}

// TestCompSumMerge checks that merging per-shard partial sums preserves
// the compensation (the serve combiner depends on it).
func TestCompSumMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 10000)
	var exact float64 // accumulate in descending magnitude for a tight reference
	for i := range vals {
		vals[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	var one CompSum
	for _, v := range vals {
		one.Add(v)
	}
	shards := make([]CompSum, 16)
	for i, v := range vals {
		shards[i%16].Add(v)
	}
	var merged CompSum
	for i := range shards {
		merged.Merge(shards[i])
	}
	if d := UlpDiff(one.Value(), merged.Value()); d > 1 {
		t.Fatalf("merged shard sums %v vs direct sum %v: %d ulps apart", merged.Value(), one.Value(), d)
	}
	_ = exact
}

// TestShardOfIsFNV1a pins the stripe assignment to hash/fnv's 64-bit
// FNV-1a, which every replay golden's shard-order combine depends on.
func TestShardOfIsFNV1a(t *testing.T) {
	tab := NewTable[struct{}](1024, 1)
	for _, name := range []string{"", "a", "agent0000042", "ünïcode", "tenant-1/leaf-3"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		if got, want := tab.ShardOf(name), int(h.Sum64()%1024); got != want {
			t.Errorf("ShardOf(%q) = %d, want %d", name, got, want)
		}
	}
}
