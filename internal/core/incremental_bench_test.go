package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ref/internal/cobb"
)

// deltaBatch is the small-delta epoch size the BENCH_PR6 comparison is
// stated at: at most 64 mutations against economies up to a million
// agents.
const deltaBatch = 64

// benchShards is the stripe count the benchmark tables use — the
// serving default at 1M agents in the repo benchmark's flat-1m workload.
const benchShards = 1024

// benchEconomy seeds an agent table (and the parallel full-recompute
// agent slice) with n agents over r resources.
func benchEconomy(b *testing.B, n, r int) (*Table[struct{}], []Agent, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	capacity := make([]float64, r)
	for j := range capacity {
		capacity[j] = 1 + rng.Float64()*100
	}
	tab := NewTable[struct{}](benchShards, r)
	agents := make([]Agent, n)
	for i := 0; i < n; i++ {
		alpha := make([]float64, r)
		for j := range alpha {
			alpha[j] = rng.Float64() + 1e-3
		}
		u := cobb.MustNew(1, alpha...)
		name := fmt.Sprintf("agent%07d", i)
		agents[i] = Agent{Name: name, Utility: u}
		tab.Upsert(name, struct{}{}, u.Rescaled().Alpha)
	}
	return tab, agents, capacity
}

var benchSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// BenchmarkEpochIncremental measures one small-delta epoch through the
// agent table: deltaBatch updates applied in O(ΔN·R), the EndEpoch
// policy, and one O(R) row read. Cost must not scale with N.
func BenchmarkEpochIncremental(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tab, agents, capacity := benchEconomy(b, n, 2)
			rng := rand.New(rand.NewSource(2))
			sums := make([]float64, 2)
			row := make([]float64, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for d := 0; d < deltaBatch; d++ {
					ag := agents[rng.Intn(n)]
					tab.Upsert(ag.Name, struct{}{}, ag.Utility.Rescaled().Alpha)
				}
				tab.EndEpoch()
				sh, j, _ := tab.Lookup(agents[0].Name)
				RowFromSumsBudgeted(row, sh.Weight(j), sh.Budget(j), tab.Sums(sums), capacity, n)
			}
		})
	}
}

// BenchmarkIncrementalResum measures the forced exact resummation: the
// O(N·R) compensated walk over every shard's contiguous weight column.
func BenchmarkIncrementalResum(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tab, _, _ := benchEconomy(b, n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Resum()
			}
		})
	}
}

// BenchmarkEpochFull measures the same epoch as a from-scratch recompute:
// Allocate over all N agents, the cost every epoch paid before this
// engine existed.
func BenchmarkEpochFull(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			_, agents, capacity := benchEconomy(b, n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Allocate(agents, capacity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
