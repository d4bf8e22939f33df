package main

import (
	"fmt"
	"math/rand"

	"ref/internal/hier"
)

// capacity is the machine every workload allocates: 24 cache units and
// 12 bandwidth units, as in the committed million-agent refload baseline.
var capacity = []float64{24, 12}

// opKind enumerates the operations a workload issues.
type opKind int

const (
	opJoin opKind = iota
	opLeave
	opUpdate
	opRead
	numKinds
)

var kindNames = [numKinds]string{"join", "leave", "update", "read"}

func (k opKind) mutation() bool { return k != opRead }

// workload is one benchmark input: the server shape, the population
// ramped in before the timed phase, and the timed load.
type workload struct {
	name string
	// agents is the population ramped in during set-up.
	agents int
	// shards and auditSample shape the server; 0 keeps the serve default.
	shards      int
	auditSample int
	// tenants turns on the 3-level queue tree and the credit ledger.
	tenants bool
	// setups is how many times one run sets the server up; setup_s is
	// their median and the timed phase runs on the last one.
	setups int
	// rate is the open-loop arrival rate (ops/s) and mix the
	// join/leave/update/read weights drawn for each arrival.
	rate float64
	mix  [numKinds]float64
	// httpReaders is the number of closed-loop HTTP readers, each on its
	// own keep-alive connection (0 = no HTTP).
	httpReaders int
}

var workloads = []workload{
	{
		// O(Δ) epochs at 1M agents: the shard apply, the sampled audit,
		// the state lock and the periodic O(N) resummation set the tail.
		name: "flat-1m", agents: 1_000_000, shards: 1024, auditSample: 64, setups: 3,
		rate: 2000, mix: [numKinds]float64{1, 1, 2, 6},
	},
	{
		// O(N) credit settle/publish plus tree allocate/audit per epoch.
		// Resummation keeps the serve cadence: at ~20 credit epochs a
		// second about one lands in a timed phase, so the tail is set by
		// ordinary epochs, not by how many resummations a run catches.
		name: "tenants", agents: 20_000, tenants: true, setups: 7,
		rate: 2000, mix: [numKinds]float64{1, 1, 2, 6},
	},
	{
		// HTTP handlers, JSON encoding, deltas and readers contending
		// with the epoch write lock, beside 200 writes/s.
		name: "http-read", agents: 3000, setups: 9, httpReaders: 2,
		rate: 200, mix: [numKinds]float64{1, 1, 2, 0},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// The tenants tree: 4 orgs under the root whose quota floors sum to half
// the capacity, each with 4 leaves of unequal over-quota weights, one of
// them zero.
var (
	orgQuotaShare = []float64{0.2, 0.15, 0.1, 0.05}
	leafWeights   = []float64{4, 2, 1, 0}
)

func orgName(o int) string     { return fmt.Sprintf("org%d", o) }
func leafName(o, l int) string { return fmt.Sprintf("org%d-leaf%d", o, l) }

// numLeaves is the number of leaves agents are spread over.
var numLeaves = len(orgQuotaShare) * len(leafWeights)

// leafByRank maps a Zipf rank to a leaf: consecutive ranks walk across
// orgs first, so every org holds a popular leaf and the zero-weight
// leaves sit in the Zipf tail.
func leafByRank(rank int) string {
	orgs := len(orgQuotaShare)
	return leafName(rank%orgs, rank/orgs)
}

// treeQueues returns the tenants tree, parents first.
func treeQueues() (orgs, leaves []hier.QueueConfig) {
	for o, share := range orgQuotaShare {
		quota := make([]float64, len(capacity))
		for r, c := range capacity {
			quota[r] = share * c
		}
		orgs = append(orgs, hier.QueueConfig{Name: orgName(o), Quota: quota})
		for l := range leafWeights {
			w := leafWeights[l]
			leaves = append(leaves, hier.QueueConfig{Name: leafName(o, l), Parent: orgName(o), Weight: &w})
		}
	}
	return orgs, leaves
}

// agentSpec is one generated tenant declaration.
type agentSpec struct {
	name  string
	elast []float64
	// leaf is the tenant's leaf queue ("" on flat workloads).
	leaf string
}

// randElast draws an elasticity vector; entries stay away from zero so
// every utility validates.
func randElast(rng *rand.Rand) []float64 {
	e := make([]float64, len(capacity))
	for r := range e {
		e[r] = 0.1 + 0.9*rng.Float64()
	}
	return e
}

// leafDraw picks leaves Zipf-skewed by rank (nil on flat workloads).
type leafDraw struct{ z *rand.Zipf }

func newLeafDraw(w workload, rng *rand.Rand) leafDraw {
	if !w.tenants {
		return leafDraw{}
	}
	return leafDraw{rand.NewZipf(rng, 1.1, 1, uint64(numLeaves-1))}
}

func (d leafDraw) next() string {
	if d.z == nil {
		return ""
	}
	return leafByRank(int(d.z.Uint64()))
}

// population generates the set-up ramp from the seed.
func population(w workload, seed int64) []agentSpec {
	rng := rand.New(rand.NewSource(seed))
	leaves := newLeafDraw(w, rng)
	out := make([]agentSpec, w.agents)
	for i := range out {
		out[i] = agentSpec{name: fmt.Sprintf("a%07d", i), elast: randElast(rng), leaf: leaves.next()}
	}
	return out
}

// op is one scheduled arrival of the open loop. Which live agent an
// update, leave or read targets is resolved at dispatch from pick, since
// the live set depends on completions. Every op carries a join's inputs,
// because dispatch turns it into a join when no agent is idle.
type op struct {
	kind  opKind
	elast []float64
	// leaf is the queue a join enters ("" on flat workloads).
	leaf string
	// move is the leaf an update moves its agent to ("" = stay).
	move string
	pick uint64
}

// moveFrac is the share of tenants updates that move the agent to a
// freshly drawn leaf.
const moveFrac = 0.05

// schedule is the seeded open-loop op stream.
type schedule struct {
	w      workload
	rng    *rand.Rand
	leaves leafDraw
	cum    [numKinds]float64
}

func newSchedule(w workload, seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	s := &schedule{w: w, rng: rng, leaves: newLeafDraw(w, rng)}
	total := 0.0
	for k, m := range w.mix {
		total += m
		s.cum[k] = total
	}
	return s
}

func (s *schedule) next() op {
	x := s.rng.Float64() * s.cum[numKinds-1]
	kind := opRead
	for k := opJoin; k < numKinds; k++ {
		if x < s.cum[k] {
			kind = k
			break
		}
	}
	o := op{kind: kind, pick: s.rng.Uint64(), elast: randElast(s.rng), leaf: s.leaves.next()}
	if kind == opUpdate && s.w.tenants && s.rng.Float64() < moveFrac {
		o.move = s.leaves.next()
	}
	return o
}
