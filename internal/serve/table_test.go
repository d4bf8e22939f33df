package serve

import (
	"fmt"
	"testing"

	"ref/internal/core"
	"ref/internal/hier"
)

// joinMut builds a join mutation for white-box batches.
func joinMut(t *testing.T, name, queue string, alpha ...float64) mutation {
	t.Helper()
	u := mustUtility(t, 1, alpha...)
	return mutation{kind: mutJoin, name: name, util: u,
		wire: WireAgent{Name: name, Alpha0: u.Alpha0, Elasticities: u.Alpha, Queue: queue}}
}

// assertResumAgrees compares the running table sums and the queue
// tree's leaf aggregates against a fresh exact resummation of both.
func assertResumAgrees(t *testing.T, s *Server, leaves ...string) {
	t.Helper()
	flat := s.table.Sums(nil)
	tree := make(map[string][]float64, len(leaves))
	for _, q := range leaves {
		tree[q] = s.tree.LeafSums(q, nil)
	}
	s.table.Resum()
	s.tree.ResumLeaves(s.treeEach)
	for r, v := range s.table.Sums(nil) {
		if d := core.UlpDiff(flat[r], v); d > 2 {
			t.Errorf("flat sum %d: running %v vs resummed %v (%d ulps)", r, flat[r], v, d)
		}
	}
	for _, q := range leaves {
		for r, v := range s.tree.LeafSums(q, nil) {
			if d := core.UlpDiff(tree[q][r], v); d > 2 {
				t.Errorf("leaf %s sum %d: running %v vs resummed %v (%d ulps)", q, r, tree[q][r], v, d)
			}
		}
	}
}

// TestTreeDeltaSurvivesRowShift pins the copy contract of the tree
// mirror: within one batch agent A re-declares (overwriting its row in
// place) and agent B joins A's shard under a name that sorts before A
// (shifting A's row). The deltas folded into the queue tree after the
// parallel apply must be A's true old and new weights, so the tree's
// aggregates still match an exact resummation; views into the table
// would fold B's weights in their place.
func TestTreeDeltaSurvivesRowShift(t *testing.T) {
	s := whiteBoxServer(t, Config{Capacity: []float64{24, 12}, Shards: 4, Clock: NewFakeClock(t0),
		Queues: []hier.QueueConfig{{Name: "q"}}})
	const a = "agent-m"
	var b string
	for i := 0; b == ""; i++ {
		if c := fmt.Sprintf("agent-a%d", i); s.table.ShardOf(c) == s.table.ShardOf(a) {
			b = c
		}
	}
	s.publish(nil)
	runScratchEpoch(s, []mutation{joinMut(t, a, "q", 0.9, 0.1), joinMut(t, "other", "q", 0.5, 0.5)})
	redeclare := joinMut(t, a, "", 0.2, 0.8)
	redeclare.kind = mutUpdate
	runScratchEpoch(s, []mutation{redeclare, joinMut(t, b, "q", 0.05, 0.95)})
	assertResumAgrees(t, s, "q", hier.DefaultQueue)
}

// TestForcedResumAllocsZero is the allocation guard on the resummation
// path: a forced exact resummation of the agent table and of a live
// queue tree (with tilted budgets, so the tree walk scales weights)
// allocates nothing.
func TestForcedResumAllocsZero(t *testing.T) {
	s := whiteBoxServer(t, Config{Capacity: []float64{24, 12}, Clock: NewFakeClock(t0),
		Queues: []hier.QueueConfig{{Name: "q1"}, {Name: "q2"}}})
	s.publish(nil)
	var batch []mutation
	for i := 0; i < 64; i++ {
		batch = append(batch, joinMut(t, fmt.Sprintf("t%02d", i), fmt.Sprintf("q%d", 1+i%2), 0.1+float64(i)/64, 1))
	}
	runScratchEpoch(s, batch)
	for i := 0; i < 8; i++ {
		sh, j, _ := s.table.Lookup(fmt.Sprintf("t%02d", i))
		sh.SetBudget(j, 0.5+float64(i)/8)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.table.Resum()
		s.tree.ResumLeaves(s.treeEach)
	})
	if allocs != 0 {
		t.Fatalf("forced resummation allocates %v times per run, want 0", allocs)
	}
}
