package serve

import (
	"ref/internal/cobb"
	"ref/internal/core"
)

// agentEntry is one tenant's payload in the agent table. The table
// itself keeps the agent's raw rescaled weights (its Equation 13 weight)
// and budget; the entry keeps the declaration — the wire form and the
// utility the audit takes α̂ from — and the credit ledger state.
type agentEntry struct {
	wire WireAgent
	util cobb.Utility
	// queue is the canonical leaf queue holding the agent ("default"
	// when the agent joined without one).
	queue string
	// credit is the agent's decaying usage/fair-share ledger (zero value
	// while the ledger is disabled or the agent is fresh).
	credit core.CreditAccount
	// shareRate is the agent's normalized share rate at the last
	// publication — what the next credit pass integrates as usage.
	shareRate float64
	// creditLive marks agents that were present at the last publication:
	// only they accrue over the following interval (a fresh join neither
	// used nor was owed anything before it appeared).
	creditLive bool
}

// declare (re)sets the entry's declaration and returns the agent's raw
// rescaled weights for the table.
func (e *agentEntry) declare(wire WireAgent, util cobb.Utility, queue string) []float64 {
	e.wire, e.util, e.queue = wire, util, queue
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
// order. Only materialization paths (inline snapshots, credit
// publication, tree resummation) walk the whole population.
func (t *agentTable) forEachSorted(fn func(name string, e agentView)) {
	t.Each(func(sh *shard, i int) { fn(sh.Name(i), viewOf(sh, i)) })
}
