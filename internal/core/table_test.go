package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// eachShardCounts spans the loser tree's shapes: a lone leaf, a single
// match, an odd count, powers of two on either side of the stack bound,
// and counts past it that allocate their merge state.
var eachShardCounts = []int{1, 2, 3, 32, 64, 65, 200}

// orderLayout places a name in a shard, bypassing ShardOf so the test
// controls which runs the merge sees.
type orderLayout struct {
	name  string
	shard func(tab *Table[int], rank int, name string) int
}

var orderLayouts = []orderLayout{
	{"hashed", func(tab *Table[int], _ int, name string) int { return tab.ShardOf(name) }},
	{"every-third", func(tab *Table[int], _ int, name string) int {
		si := tab.ShardOf(name)
		return si - si%3
	}},
	{"single-last", func(tab *Table[int], _ int, _ string) int { return tab.NumShards() - 1 }},
	// Contiguous runs of the sorted order in one shard each, so the
	// winner stays put for many steps before handing over.
	{"runs", func(tab *Table[int], rank int, _ string) int { return rank / 37 % tab.NumShards() }},
}

// orderNames draws n distinct names in random order: short ones, ones
// that are prefixes of each other, and ones sharing a 200-byte prefix so
// every comparison runs deep into the strings.
func orderNames(rng *rand.Rand, n int) []string {
	long := strings.Repeat("tenant/", 30)
	seen := map[string]bool{}
	var names []string
	for len(names) < n {
		var name string
		switch rng.Intn(3) {
		case 0:
			name = fmt.Sprintf("a%d", rng.Intn(4*n))
		case 1:
			name = strings.Repeat("p", 1+rng.Intn(12))
		default:
			name = fmt.Sprintf("%s%06d", long, rng.Intn(4*n))
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return names
}

// TestTableEachOrder is the differential for the loser-tree merge: at
// every shard count and layout — empty shards, one non-empty shard,
// long shared prefixes — Each visits exactly the sorted name sequence,
// and each visited row is the one Find resolves.
func TestTableEachOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shards := range eachShardCounts {
		for _, lay := range orderLayouts {
			for _, n := range []int{0, 1, 5, 700} {
				t.Run(fmt.Sprintf("S=%d/%s/N=%d", shards, lay.name, n), func(t *testing.T) {
					tab := NewTable[int](shards, 1)
					names := orderNames(rng, n)
					want := slices.Clone(names)
					slices.Sort(want)
					rank := map[string]int{}
					for i, name := range want {
						rank[name] = i
					}
					for _, name := range names {
						sh := tab.Shard(lay.shard(tab, rank[name], name))
						i, _ := sh.Find(name)
						sh.Insert(i, name, rank[name], []float64{1})
					}
					var got []string
					tab.Each(func(sh *Shard[int], i int) {
						if j, ok := sh.Find(sh.Name(i)); !ok || j != i || sh.Payload(i) != len(got) {
							t.Fatalf("visit %d: row %d of %q, payload %d, Find %d/%v", len(got), i, sh.Name(i), sh.Payload(i), j, ok)
						}
						got = append(got, sh.Name(i))
					})
					if !slices.Equal(got, want) {
						t.Fatalf("Each visited %d names out of sorted order (want %d)", len(got), len(want))
					}
				})
			}
		}
	}
}

// TestTableWindow pins the audit window's sweep to the At sequence it
// replaces: k rows from start, wrapping at Len, over empty shards too.
func TestTableWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shards := range []int{1, 3, 64} {
		tab := NewTable[int](shards, 1)
		for i, name := range orderNames(rng, 150) {
			sh := tab.Shard(orderLayouts[1].shard(tab, i, name))
			j, _ := sh.Find(name)
			sh.Insert(j, name, i, []float64{1})
		}
		n := tab.Len()
		for _, start := range []int{0, 1, n / 2, n - 1} {
			for _, k := range []int{0, 1, 64, n} {
				var got, want []string
				tab.Window(start, k, func(sh *Shard[int], i int) { got = append(got, sh.Name(i)) })
				for i := 0; i < k; i++ {
					sh, j := tab.At((start + i) % n)
					want = append(want, sh.Name(j))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("S=%d Window(%d, %d) = %v, want %v", shards, start, k, got, want)
				}
			}
		}
	}
}

// TestTableEachAllocs pins the stack-resident merge state: a walk at up
// to eachStackShards shards allocates nothing.
func TestTableEachAllocs(t *testing.T) {
	for _, shards := range []int{1, 32, eachStackShards} {
		tab := NewTable[int](shards, 1)
		for i := 0; i < 1000; i++ {
			tab.Upsert(fmt.Sprintf("agent%04d", i), i, []float64{1})
		}
		sum := 0
		allocs := testing.AllocsPerRun(10, func() {
			tab.Each(func(sh *Shard[int], i int) { sum += sh.Payload(i) })
		})
		if allocs != 0 {
			t.Fatalf("Each at %d shards allocated %v times per walk, want 0", shards, allocs)
		}
	}
}

// BenchmarkTableEach times the canonical walk at the tenants workload's
// population on the serving default and on flat-1m's stripe count.
func BenchmarkTableEach(b *testing.B) {
	for _, shards := range []int{32, benchShards} {
		b.Run(fmt.Sprintf("N=20000/S=%d", shards), func(b *testing.B) {
			tab := NewTable[int](shards, 1)
			for i := 0; i < 20_000; i++ {
				tab.Upsert(fmt.Sprintf("agent%07d", i), i, []float64{1})
			}
			sum := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Each(func(sh *Shard[int], i int) { sum += sh.Payload(i) })
			}
		})
	}
}
