package hier

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ref/internal/cobb"
	"ref/internal/core"
)

func fp(v float64) *float64 { return &v }

func mustTree(t *testing.T, capacity []float64, queues ...QueueConfig) *Tree {
	t.Helper()
	tr, err := NewTree(capacity, &TreeConfig{Queues: queues}, Options{})
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return tr
}

func util(t *testing.T, alpha ...float64) cobb.Utility {
	t.Helper()
	u, err := cobb.New(1, alpha...)
	if err != nil {
		t.Fatalf("cobb.New(%v): %v", alpha, err)
	}
	return u
}

func join(t *testing.T, tr *Tree, queue string, u cobb.Utility) []float64 {
	t.Helper()
	w := u.Rescaled().Alpha
	if err := tr.AgentDelta("", queue, nil, w); err != nil {
		t.Fatalf("join %s: %v", queue, err)
	}
	return w
}

func TestValidateRejects(t *testing.T) {
	capacity := []float64{24, 12}
	cases := []struct {
		name   string
		queues []QueueConfig
		want   string
	}{
		{"duplicate", []QueueConfig{{Name: "a"}, {Name: "a"}}, "duplicate"},
		{"reserved name", []QueueConfig{{Name: DefaultQueue}}, "reserved"},
		{"reserved parent", []QueueConfig{{Name: "a", Parent: DefaultQueue}}, "reserved"},
		{"empty name", []QueueConfig{{Name: ""}}, "non-empty"},
		{"unknown parent", []QueueConfig{{Name: "a", Parent: "ghost"}}, "unknown parent"},
		{"self cycle", []QueueConfig{{Name: "a", Parent: "a"}}, "cycle"},
		{"two cycle", []QueueConfig{{Name: "a", Parent: "b"}, {Name: "b", Parent: "a"}}, "cycle"},
		{"negative quota", []QueueConfig{{Name: "a", Quota: []float64{-1, 0}}}, "non-negative"},
		{"nan quota", []QueueConfig{{Name: "a", Quota: []float64{math.NaN(), 0}}}, "non-negative"},
		{"quota arity", []QueueConfig{{Name: "a", Quota: []float64{1}}}, "resources"},
		{"negative weight", []QueueConfig{{Name: "a", Weight: fp(-1)}}, "non-negative"},
		{"inf weight", []QueueConfig{{Name: "a", Weight: fp(math.Inf(1))}}, "non-negative"},
		{"quota over capacity", []QueueConfig{{Name: "a", Quota: []float64{25, 0}}}, "exceeding"},
		{"sibling quota sum", []QueueConfig{
			{Name: "a", Quota: []float64{13, 0}}, {Name: "b", Quota: []float64{13, 0}},
		}, "exceeding"},
		{"child quota over parent", []QueueConfig{
			{Name: "p", Quota: []float64{10, 10}}, {Name: "c", Parent: "p", Quota: []float64{11, 0}},
		}, "exceeding"},
		{"child quota over zero-quota parent", []QueueConfig{
			{Name: "p"}, {Name: "c", Parent: "p", Quota: []float64{1, 0}},
		}, "exceeding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := &TreeConfig{Queues: tc.queues}
			err := cfg.Validate(capacity)
			if err == nil {
				t.Fatalf("Validate accepted %v", tc.queues)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsOutOfOrderDeclarations(t *testing.T) {
	cfg := &TreeConfig{Queues: []QueueConfig{
		{Name: "leaf", Parent: "mid"},
		{Name: "mid", Parent: "top", Quota: []float64{4, 2}},
		{Name: "top", Quota: []float64{8, 4}},
	}}
	if err := cfg.Validate([]float64{24, 12}); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// A single-queue tree must reproduce the flat Equation 13 allocation:
// the queue absorbs the full capacity (exactly — its aggregate over
// its own aggregate is 1.0), so only the leaf-level summation order
// can differ from the flat path.
func TestDegenerateSingleQueueMatchesFlat(t *testing.T) {
	capacity := []float64{24, 12, 7}
	rng := rand.New(rand.NewSource(7))
	agents := make([]core.Agent, 12)
	for i := range agents {
		alpha := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if i%4 == 0 {
			alpha[i%3] = 0 // exercise the equal-split fallback path
		}
		if alpha[0]+alpha[1]+alpha[2] == 0 {
			alpha[0] = 1
		}
		agents[i] = core.Agent{Name: string(rune('a' + i)), Utility: cobb.MustNew(1, alpha...)}
	}
	flat, err := core.Allocate(agents, capacity)
	if err != nil {
		t.Fatalf("core.Allocate: %v", err)
	}

	tr := mustTree(t, capacity, QueueConfig{Name: "only"})
	weights := make([][]float64, len(agents))
	for i, a := range agents {
		weights[i] = join(t, tr, "only", a.Utility)
	}
	al := tr.Allocate()
	qa := al.Queue("only")
	for r := range capacity {
		if qa.Share[r] != capacity[r] {
			t.Fatalf("resource %d: single queue share %v != capacity %v", r, qa.Share[r], capacity[r])
		}
	}
	if al.Moved != 0 {
		// The empty default queue has no quota, so nothing reclaims.
		t.Fatalf("degenerate tree moved %v", al.Moved)
	}
	sums := tr.LeafSums("only", nil)
	n := tr.LeafAgents("only")
	for i := range agents {
		row := core.RowFromSums(nil, weights[i], sums, qa.Share, n)
		for r := range capacity {
			if d := core.UlpDiff(row[r], flat.X[i][r]); d > 2 {
				t.Fatalf("agent %d resource %d: hier %v vs flat %v (%d ulps)", i, r, row[r], flat.X[i][r], d)
			}
		}
	}
}

func TestIncrementalAggregatesMatchResum(t *testing.T) {
	capacity := []float64{24, 12}
	tr := mustTree(t, capacity,
		QueueConfig{Name: "org", Quota: []float64{8, 4}},
		QueueConfig{Name: "a", Parent: "org"},
		QueueConfig{Name: "b", Parent: "org", Weight: fp(2)},
		QueueConfig{Name: "solo"},
	)
	rng := rand.New(rand.NewSource(11))
	type live struct {
		queue string
		w     []float64
	}
	agents := map[string]live{}
	names := []string{}
	leaves := []string{"a", "b", "solo", DefaultQueue}
	for step := 0; step < 400; step++ {
		switch {
		case len(names) == 0 || rng.Float64() < 0.5:
			name := "t" + string(rune('0'+len(names)%10)) + string(rune('a'+step%26))
			if _, ok := agents[name]; ok {
				continue
			}
			q := leaves[rng.Intn(len(leaves))]
			w := util(t, rng.Float64()+0.01, rng.Float64()).Rescaled().Alpha
			if err := tr.AgentDelta("", q, nil, w); err != nil {
				t.Fatalf("join: %v", err)
			}
			agents[name] = live{q, w}
			names = append(names, name)
		case rng.Float64() < 0.5:
			name := names[rng.Intn(len(names))]
			old := agents[name]
			w := util(t, rng.Float64()+0.01, rng.Float64()).Rescaled().Alpha
			if err := tr.AgentDelta(old.queue, old.queue, old.w, w); err != nil {
				t.Fatalf("update: %v", err)
			}
			agents[name] = live{old.queue, w}
		default:
			i := rng.Intn(len(names))
			name := names[i]
			old := agents[name]
			if err := tr.AgentDelta(old.queue, "", old.w, nil); err != nil {
				t.Fatalf("leave: %v", err)
			}
			delete(agents, name)
			names = append(names[:i], names[i+1:]...)
		}
	}

	incr := map[string][]float64{}
	counts := map[string]int{}
	for _, q := range append([]string{}, leaves...) {
		incr[q] = tr.LeafSums(q, nil)
		counts[q] = tr.LeafAgents(q)
	}
	each := func(visit func(queue string, w []float64)) {
		for _, name := range names {
			visit(agents[name].queue, agents[name].w)
		}
	}
	tr.Resum(each)
	for _, q := range leaves {
		fresh := tr.LeafSums(q, nil)
		if tr.LeafAgents(q) != counts[q] {
			t.Fatalf("queue %s: count %d after resum, %d before", q, tr.LeafAgents(q), counts[q])
		}
		for r := range capacity {
			if d := core.UlpDiff(incr[q][r], fresh[r]); d > 1 {
				t.Fatalf("queue %s resource %d: incremental %v vs resummed %v (%d ulps)", q, r, incr[q][r], fresh[r], d)
			}
		}
	}
	if tr.Cadence().Resums() != 1 {
		t.Fatalf("resums = %d, want 1", tr.Cadence().Resums())
	}
}

func TestAllocateConservesAndFloors(t *testing.T) {
	capacity := []float64{24, 12}
	tr := mustTree(t, capacity,
		QueueConfig{Name: "org", Quota: []float64{10, 6}, Weight: fp(2)},
		QueueConfig{Name: "a", Parent: "org", Quota: []float64{6, 1}},
		QueueConfig{Name: "b", Parent: "org", Quota: []float64{2, 2}, Weight: fp(0)},
		QueueConfig{Name: "solo", Quota: []float64{3, 0}},
		QueueConfig{Name: "idle", Quota: []float64{5, 3}},
	)
	join(t, tr, "a", util(t, 0.8, 0.2))
	join(t, tr, "a", util(t, 0.5, 0.5))
	join(t, tr, "b", util(t, 0.3, 0.7))
	join(t, tr, "solo", util(t, 0.6, 0.4))
	join(t, tr, DefaultQueue, util(t, 0.5, 0.5))
	// "idle" stays empty: its quota must be donated by the reclaim pass.

	al := tr.Allocate()

	// Top level conserves capacity.
	for r := range capacity {
		got := al.Queue("org").Share[r] + al.Queue("solo").Share[r] +
			al.Queue("idle").Share[r] + al.Queue(DefaultQueue).Share[r]
		if math.Abs(got-capacity[r]) > 1e-9*capacity[r] {
			t.Fatalf("resource %d: top-level shares sum to %v, capacity %v", r, got, capacity[r])
		}
	}
	// The org's children conserve the org's share.
	for r := range capacity {
		got := al.Queue("a").Share[r] + al.Queue("b").Share[r]
		if math.Abs(got-al.Queue("org").Share[r]) > 1e-9*capacity[r] {
			t.Fatalf("resource %d: org children sum to %v, org share %v", r, got, al.Queue("org").Share[r])
		}
	}
	// Empty queue donates everything.
	for r := range capacity {
		if al.Queue("idle").Share[r] != 0 {
			t.Fatalf("idle queue holds %v of resource %d", al.Queue("idle").Share[r], r)
		}
	}
	if al.Queue("idle").ReclaimOut <= 0 || al.Moved <= 0 {
		t.Fatalf("no reclaim recorded: idle out=%v moved=%v", al.Queue("idle").ReclaimOut, al.Moved)
	}
	// Zero-weight queue with demand gets exactly its quota.
	for r := range capacity {
		if got, want := al.Queue("b").Share[r], al.Queue("b").Quota[r]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("zero-weight queue b share %v != quota %v on resource %d", got, want, r)
		}
	}
	// Floors hold for every demand-positive queue.
	rep := AuditTree(tr, al, 0)
	if !rep.Ok() {
		t.Fatalf("audit failed: %v", rep.Findings)
	}
	if math.IsNaN(rep.MinSIMargin) || rep.MinSIMargin < -1e-9 {
		t.Fatalf("MinSIMargin = %v", rep.MinSIMargin)
	}
}

func TestAuditDetectsRiggedAllocation(t *testing.T) {
	capacity := []float64{24, 12}
	tr := mustTree(t, capacity,
		QueueConfig{Name: "a", Quota: []float64{4, 0}},
		QueueConfig{Name: "b"},
	)
	join(t, tr, "a", util(t, 0.5, 0.5))
	join(t, tr, "b", util(t, 0.5, 0.5))
	al := tr.Allocate()
	if rep := AuditTree(tr, al, 0); !rep.Ok() {
		t.Fatalf("honest allocation failed audit: %v", rep.Findings)
	}

	// Divert most of queue a's share to b: floors, SI, and EF all break.
	rig := tr.Allocate()
	for r := range capacity {
		moved := rig.Queue("a").Share[r] * 0.9
		rig.Queue("a").Share[r] -= moved
		rig.Queue("b").Share[r] += moved
	}
	rep := AuditTree(tr, rig, 0)
	if rep.Floors {
		t.Fatal("rigged allocation passed the floors check")
	}
	if rep.SI {
		t.Fatal("rigged allocation passed hier-si")
	}
	if rep.EF {
		t.Fatal("rigged allocation passed hier-ef")
	}
}

func TestReclaimProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k, nRes := 2+rng.Intn(6), 1+rng.Intn(3)
		fair := make([][]float64, k)
		alloc := make([][]float64, k)
		before := make([][]float64, k)
		for i := 0; i < k; i++ {
			fair[i] = make([]float64, nRes)
			alloc[i] = make([]float64, nRes)
			before[i] = make([]float64, nRes)
			for r := 0; r < nRes; r++ {
				fair[i][r] = rng.Float64()*10 + 0.1
				alloc[i][r] = fair[i][r] * (0.2 + 1.6*rng.Float64())
				before[i][r] = alloc[i][r]
			}
		}
		budget := math.Inf(1)
		if trial%2 == 0 {
			budget = rng.Float64() * 5
		}
		arg := budget
		if math.IsInf(budget, 1) {
			arg = -1
		}
		moved := Reclaim(alloc, fair, arg)
		if moved < 0 || (arg >= 0 && moved > budget+1e-12) {
			t.Fatalf("trial %d: moved %v with budget %v", trial, moved, budget)
		}
		for r := 0; r < nRes; r++ {
			sumBefore, sumAfter := 0.0, 0.0
			for i := 0; i < k; i++ {
				sumBefore += before[i][r]
				sumAfter += alloc[i][r]
				// Monotone toward fair, never crossing it.
				db, da := before[i][r]-fair[i][r], alloc[i][r]-fair[i][r]
				if db*da < -1e-12 || math.Abs(da) > math.Abs(db)+1e-9 {
					t.Fatalf("trial %d: queue %d resource %d crossed or receded: %v -> %v (fair %v)",
						trial, i, r, before[i][r], alloc[i][r], fair[i][r])
				}
			}
			if arg >= 0 && math.Abs(sumAfter-sumBefore) > 1e-9*(1+sumBefore) {
				t.Fatalf("trial %d resource %d: sum %v -> %v (not conserved)", trial, r, sumBefore, sumAfter)
			}
			// The KAI invariant: relative saturation-ratio order between
			// any two queues is never strictly inverted.
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					si0, sj0 := before[i][r]/fair[i][r], before[j][r]/fair[j][r]
					si1, sj1 := alloc[i][r]/fair[i][r], alloc[j][r]/fair[j][r]
					if si0 < sj0-1e-12 && si1 > sj1+1e-9 {
						t.Fatalf("trial %d resource %d: saturation order inverted: (%v,%v) -> (%v,%v)",
							trial, r, si0, sj0, si1, sj1)
					}
				}
			}
		}
		if arg < 0 {
			// With both donors and receivers present, an unbounded pass
			// lands exactly on fair; with only one side, nothing can
			// move and the allocation is untouched.
			for r := 0; r < nRes; r++ {
				surplus, deficit := 0.0, 0.0
				for i := 0; i < k; i++ {
					if d := before[i][r] - fair[i][r]; d > 0 {
						surplus += d
					} else {
						deficit -= d
					}
				}
				for i := 0; i < k; i++ {
					want := fair[i][r]
					if surplus == 0 || deficit == 0 {
						want = before[i][r]
					}
					if alloc[i][r] != want {
						t.Fatalf("trial %d resource %d: unbounded reclaim left %v, want %v",
							trial, r, alloc[i][r], want)
					}
				}
			}
		}
	}
}

func TestUpsertDeleteMove(t *testing.T) {
	capacity := []float64{24, 12}
	tr := mustTree(t, capacity,
		QueueConfig{Name: "org", Quota: []float64{10, 6}},
		QueueConfig{Name: "a", Parent: "org", Quota: []float64{4, 2}},
	)
	w := join(t, tr, "a", util(t, 0.5, 0.5))

	if err := tr.Delete("org"); err == nil {
		t.Fatal("deleted a queue with children")
	}
	if err := tr.Delete("a"); err == nil {
		t.Fatal("deleted a queue with agents")
	}
	if err := tr.Upsert(QueueConfig{Name: "x", Parent: "a"}); err == nil {
		t.Fatal("attached a child under a queue holding agents")
	}
	if err := tr.Upsert(QueueConfig{Name: "org", Parent: "a"}); err == nil {
		t.Fatal("moved a queue into its own subtree")
	}
	if err := tr.Upsert(QueueConfig{Name: "a", Parent: "org", Quota: []float64{11, 0}}); err == nil {
		t.Fatal("re-declared quota above the parent's")
	}

	// Move a (with its agent) to the top level; aggregates follow.
	if err := tr.Upsert(QueueConfig{Name: "a", Quota: []float64{4, 2}}); err != nil {
		t.Fatalf("move: %v", err)
	}
	if got := tr.AgentCount("org"); got != 0 {
		t.Fatalf("org still reports %d agents after move", got)
	}
	if got := tr.AgentCount("a"); got != 1 {
		t.Fatalf("a reports %d agents after move", got)
	}
	sums := tr.LeafSums("a", nil)
	for r := range capacity {
		if math.Abs(sums[r]-w[r]) > 1e-12 {
			t.Fatalf("moved leaf sums %v, want %v", sums, w)
		}
	}
	// Now org is an empty leaf and can go.
	if err := tr.Delete("org"); err != nil {
		t.Fatalf("delete empty org: %v", err)
	}
	if tr.Has("org") {
		t.Fatal("org still present after delete")
	}
	// The agent can leave through its moved queue, then the queue can go.
	if err := tr.AgentDelta("a", "", w, nil); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := tr.Delete("a"); err != nil {
		t.Fatalf("delete a: %v", err)
	}
	if tr.NonTrivial() {
		t.Fatal("tree still non-trivial after deleting every queue")
	}
}

func TestConfigSnapshotRoundTrips(t *testing.T) {
	capacity := []float64{24, 12}
	tr := mustTree(t, capacity,
		QueueConfig{Name: "org", Quota: []float64{10, 6}, Weight: fp(2)},
		QueueConfig{Name: "a", Parent: "org", Weight: fp(0)},
		QueueConfig{Name: "b", Parent: "org", Quota: []float64{1, 1}},
	)
	cfg := tr.ConfigSnapshot()
	data, err := cfg.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := DecodeConfig(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("DecodeConfig: %v", err)
	}
	if err := dec.Validate(capacity); err != nil {
		t.Fatalf("round-tripped config invalid: %v", err)
	}
	tr2, err := NewTree(capacity, dec, Options{})
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	if got, want := len(tr2.Names()), len(tr.Names()); got != want {
		t.Fatalf("round-trip lost queues: %d vs %d", got, want)
	}
	if c, ok := tr2.Config("a"); !ok || c.Weight == nil || *c.Weight != 0 {
		t.Fatalf("explicit zero weight lost in round trip: %+v", c)
	}
	if c, ok := tr2.Config("b"); !ok || c.Weight != nil {
		t.Fatalf("default weight materialized in round trip: %+v", c)
	}
}

// TestLeafHandles pins the handle path: Leaf resolves leaves only, slots
// are unique among live queues and a deleted queue's slot is reused, and
// a caller-walked rebuild equals the name-keyed Resum bit for bit — and
// leaves the running aggregates untouched when it does not commit.
func TestLeafHandles(t *testing.T) {
	capacity := []float64{24, 12}
	tr := mustTree(t, capacity,
		QueueConfig{Name: "org"},
		QueueConfig{Name: "a", Parent: "org"},
		QueueConfig{Name: "b", Parent: "org"})
	if tr.Leaf("org").Valid() || tr.Leaf("nope").Valid() {
		t.Fatal("Leaf resolved an internal or unknown queue")
	}
	if l := tr.Leaf(""); !l.Valid() || l.Name() != DefaultQueue {
		t.Fatalf("Leaf(\"\") = %+v, want the default leaf", l)
	}
	seen := map[int]string{}
	for _, name := range tr.Names() {
		l := tr.Leaf(name)
		if !l.Valid() {
			continue
		}
		slot := l.Slot()
		if other, dup := seen[slot]; dup || slot >= tr.Slots() {
			t.Fatalf("queue %s: slot %d (shared with %q, Slots %d)", name, slot, other, tr.Slots())
		}
		seen[slot] = name
	}
	freed := tr.Leaf("b").Slot()
	if err := tr.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Upsert(QueueConfig{Name: "c", Parent: "org"}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Leaf("c").Slot(); got != freed {
		t.Fatalf("new queue took slot %d, want the freed slot %d", got, freed)
	}

	type agent struct {
		leaf Leaf
		w    []float64
	}
	rng := rand.New(rand.NewSource(43))
	var agents []agent
	for i := 0; i < 200; i++ {
		q := []string{"a", "c", ""}[i%3]
		w := util(t, rng.Float64()+0.01, rng.Float64()+0.01).Rescaled().Alpha
		l := tr.Leaf(q)
		tr.LeafDelta(Leaf{}, l, nil, w)
		agents = append(agents, agent{l, w})
	}
	if got := tr.LeafAgents("a"); got != 67 {
		t.Fatalf("leaf a holds %d agents, want 67", got)
	}
	running := tr.LeafSums("a", nil)
	tr.BeginRebuild()
	for _, a := range agents {
		tr.RebuildAgent(a.leaf, a.w)
	}
	for r, v := range tr.LeafSums("a", nil) {
		if v != running[r] {
			t.Fatalf("uncommitted rebuild moved leaf a's sum %d: %v → %v", r, running[r], v)
		}
	}
	tr.ResumLeaves(func(visit func(Leaf, []float64)) {
		for _, a := range agents {
			visit(a.leaf, a.w)
		}
	})
	byHandle := map[string][]float64{}
	for _, q := range []string{"org", "a", "c", DefaultQueue} {
		byHandle[q] = tr.LeafSums(q, nil)
	}
	tr.Resum(func(visit func(string, []float64)) {
		for _, a := range agents {
			visit(a.leaf.Name(), a.w)
		}
	})
	for q, want := range byHandle {
		for r, v := range tr.LeafSums(q, nil) {
			if v != want[r] {
				t.Fatalf("queue %s sum %d: Resum %v, ResumLeaves %v", q, r, v, want[r])
			}
		}
	}
}
