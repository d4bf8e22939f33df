package serve

import (
	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/hier"
)

// agentEntry is one tenant's payload in the agent table. The table
// itself keeps the agent's raw rescaled weights (its Equation 13 weight)
// and budget; the entry keeps the declaration — the wire form and the
// utility the audit takes α̂ from — and the credit ledger state.
type agentEntry struct {
	wire WireAgent
	util cobb.Utility
	// leaf is the leaf queue holding the agent (the default leaf when
	// the agent joined without one).
	leaf hier.Leaf
	// credit is the agent's decaying usage/fair-share ledger (zero value
	// while the ledger is disabled or the agent is fresh).
	credit core.CreditAccount
	// shareRate is the agent's share rate at the last publication,
	// captured when this epoch's batch re-declared or moved it (state
	// creditCaptured); otherwise the credit pass computes it.
	shareRate float64
	// creditState is the entry's standing for the next credit pass.
	creditState creditState
}

// creditState is an agent's standing in the credit ledger.
type creditState uint8

const (
	// creditFresh: joined since the last publication. It neither used
	// nor was owed anything before it appeared, so it accrues nothing
	// and keeps its unit budget.
	creditFresh creditState = iota
	// creditLive: present at the last publication, and its weight,
	// budget and queue are still the ones that publication saw, so its
	// share rate is recomputed from the published market.
	creditLive
	// creditCaptured: present at the last publication, and re-declared
	// or moved since; shareRate holds the rate captured before the
	// change.
	creditCaptured
)

// declare (re)sets the entry's declaration and returns the agent's raw
// rescaled weights for the table.
func (e *agentEntry) declare(wire WireAgent, util cobb.Utility, leaf hier.Leaf) []float64 {
	e.wire, e.util, e.leaf = wire, util, leaf
	return util.Rescaled().Alpha
}

// shard is one stripe of the agent table.
type shard = core.Shard[*agentEntry]

// agentView is one table row as the read paths see it: the entry plus
// the row's raw weight and budget. The budget is exactly 1 on a server
// without the credit ledger. The weight is a view into the table, valid
// until the shard's next mutation.
type agentView struct {
	*agentEntry
	weight []float64
	budget float64
}

func viewOf(sh *shard, i int) agentView {
	return agentView{agentEntry: sh.Payload(i), weight: sh.Weight(i), budget: sh.Budget(i)}
}

// agentTable is core's sharded agent table with serve's entry payload.
type agentTable struct {
	*core.Table[*agentEntry]
}

func newAgentTable(shardCount, nRes int) *agentTable {
	return &agentTable{core.NewTable[*agentEntry](shardCount, nRes)}
}

// get returns one agent's row, ok false when absent.
func (t *agentTable) get(name string) (agentView, bool) {
	sh, i, ok := t.Lookup(name)
	if !ok {
		return agentView{}, false
	}
	return viewOf(sh, i), true
}

// forEachSorted visits every agent in the canonical global (name-sorted)
// order. Only materialization paths (inline snapshots, tree
// resummation) walk the whole population that way.
func (t *agentTable) forEachSorted(fn func(name string, e agentView)) {
	t.Each(func(sh *shard, i int) { fn(sh.Name(i), viewOf(sh, i)) })
}
