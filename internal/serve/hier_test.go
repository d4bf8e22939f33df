package serve

// Serve-layer tests for hierarchical multi-tenant fairness: queue CRUD
// over HTTP with typed errors, queue membership on join/patch, bitwise
// rollup consistency across snapshot/point-read/delta, the delta-ring
// edge regression for last-agent-of-a-queue departures, the degenerate
// single-queue ≤2-ulp equivalence sweep, and the three-level audit.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"ref/internal/core"
	"ref/internal/hier"
)

// postQueue declares (or re-declares) a queue and decodes the ack.
func postQueue(t *testing.T, base string, q hier.QueueConfig) QueueResponse {
	t.Helper()
	body, _ := json.Marshal(q)
	status, b, _ := do(t, http.MethodPost, base+"/v1/queues", body)
	if status != http.StatusOK {
		t.Fatalf("queue upsert %s: status %d: %s", q.Name, status, b)
	}
	var ack QueueResponse
	if err := json.Unmarshal(b, &ack); err != nil {
		t.Fatalf("queue upsert %s: bad ack: %v", q.Name, err)
	}
	return ack
}

// joinQ joins an agent into a named queue.
func joinQ(t *testing.T, base, name, queue string, elast ...float64) JoinResponse {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"name": name, "queue": queue, "elasticities": elast})
	status, b, _ := do(t, http.MethodPost, base+"/v1/agents", body)
	if status != http.StatusOK {
		t.Fatalf("join %s into %s: status %d: %s", name, queue, status, b)
	}
	var ack JoinResponse
	if err := json.Unmarshal(b, &ack); err != nil {
		t.Fatalf("join %s: bad ack: %v", name, err)
	}
	return ack
}

// wantAPIError asserts a typed error envelope.
func wantAPIError(t *testing.T, status int, b []byte, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (%s); body %s", status, wantStatus, wantCode, b)
	}
	var env ErrorResponse
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("bad error envelope: %v: %s", err, b)
	}
	if env.Err.Code != wantCode {
		t.Fatalf("error code = %q, want %q", env.Err.Code, wantCode)
	}
}

// getQueues reads GET /v1/queues.
func getQueues(t *testing.T, base string) QueuesResponse {
	t.Helper()
	status, b, _ := do(t, http.MethodGet, base+"/v1/queues", nil)
	if status != http.StatusOK {
		t.Fatalf("queues: status %d: %s", status, b)
	}
	var resp QueuesResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("queues: bad body: %v", err)
	}
	return resp
}

// getDelta reads GET /v1/allocation?since=E.
func getDelta(t *testing.T, base string, since uint64) DeltaResponse {
	t.Helper()
	status, b, _ := do(t, http.MethodGet, fmt.Sprintf("%s/v1/allocation?since=%d", base, since), nil)
	if status != http.StatusOK {
		t.Fatalf("delta since %d: status %d: %s", since, status, b)
	}
	var resp DeltaResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("delta: bad body: %v", err)
	}
	return resp
}

// TestQueueCRUD walks the queue lifecycle over HTTP: an empty tree
// serves an empty rollup list, declared queues appear with their quota
// and weight, agents land in them, and deleting an emptied leaf removes
// it again.
func TestQueueCRUD(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	q0 := getQueues(t, ts.URL)
	if len(q0.Queues) != 0 {
		t.Fatalf("trivial tree rollups = %+v, want empty", q0.Queues)
	}

	w := 2.0
	postQueue(t, ts.URL, hier.QueueConfig{Name: "batch", Quota: []float64{6, 3}, Weight: &w})
	postQueue(t, ts.URL, hier.QueueConfig{Name: "prod"})

	qs := getQueues(t, ts.URL)
	byName := map[string]QueueRollup{}
	for _, q := range qs.Queues {
		byName[q.Name] = q
	}
	// default (now internal), batch, prod.
	if len(qs.Queues) != 3 {
		t.Fatalf("rollups = %+v, want default+batch+prod", qs.Queues)
	}
	b, ok := byName["batch"]
	if !ok || !b.Leaf || b.Weight != 2 || len(b.Quota) != 2 || b.Quota[0] != 6 {
		t.Fatalf("batch rollup = %+v", b)
	}
	// "default" is a reserved leaf directly under the root — declaring
	// top-level queues makes them its siblings, never its children.
	if d := byName["default"]; !d.Leaf {
		t.Fatalf("default must stay a leaf: %+v", d)
	}

	joinQ(t, ts.URL, "job1", "batch", 3, 1)
	qs = getQueues(t, ts.URL)
	for _, q := range qs.Queues {
		if q.Name == "batch" && q.Agents != 1 {
			t.Fatalf("batch agents = %d, want 1", q.Agents)
		}
	}

	status, body, _ := do(t, http.MethodDelete, ts.URL+"/v1/agents/job1", nil)
	if status != http.StatusOK {
		t.Fatalf("leave: %d %s", status, body)
	}
	status, body, _ = do(t, http.MethodDelete, ts.URL+"/v1/queues/batch", nil)
	if status != http.StatusOK {
		t.Fatalf("queue delete: %d %s", status, body)
	}
	qs = getQueues(t, ts.URL)
	for _, q := range qs.Queues {
		if q.Name == "batch" {
			t.Fatalf("batch survived deletion: %+v", qs.Queues)
		}
	}
}

// TestQueueErrors pins the typed error surface of the queue API.
func TestQueueErrors(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	postQueue(t, ts.URL, hier.QueueConfig{Name: "team"})
	postQueue(t, ts.URL, hier.QueueConfig{Name: "team-a", Parent: "team"})
	joinQ(t, ts.URL, "a1", "team-a", 2, 1)

	// Unknown parent on upsert.
	body, _ := json.Marshal(hier.QueueConfig{Name: "orphan", Parent: "nope"})
	st, b, _ := do(t, http.MethodPost, ts.URL+"/v1/queues", body)
	wantAPIError(t, st, b, http.StatusNotFound, CodeUnknownQueue)

	// Over-capacity quota is an invalid queue config.
	body, _ = json.Marshal(hier.QueueConfig{Name: "greedy", Quota: []float64{1e9, 1e9}})
	st, b, _ = do(t, http.MethodPost, ts.URL+"/v1/queues", body)
	wantAPIError(t, st, b, http.StatusBadRequest, CodeInvalidQueue)

	// Join into a queue that does not exist.
	body, _ = json.Marshal(map[string]any{"name": "x", "queue": "ghost", "elasticities": []float64{1, 1}})
	st, b, _ = do(t, http.MethodPost, ts.URL+"/v1/agents", body)
	wantAPIError(t, st, b, http.StatusNotFound, CodeUnknownQueue)

	// Join into an internal queue.
	body, _ = json.Marshal(map[string]any{"name": "x", "queue": "team", "elasticities": []float64{1, 1}})
	st, b, _ = do(t, http.MethodPost, ts.URL+"/v1/agents", body)
	wantAPIError(t, st, b, http.StatusBadRequest, CodeInvalidQueue)

	// Deleting the root, an unknown queue, a non-empty leaf, an internal
	// node.
	st, b, _ = do(t, http.MethodDelete, ts.URL+"/v1/queues/default", nil)
	wantAPIError(t, st, b, http.StatusBadRequest, CodeInvalidQueue)
	st, b, _ = do(t, http.MethodDelete, ts.URL+"/v1/queues/ghost", nil)
	wantAPIError(t, st, b, http.StatusNotFound, CodeUnknownQueue)
	st, b, _ = do(t, http.MethodDelete, ts.URL+"/v1/queues/team-a", nil)
	wantAPIError(t, st, b, http.StatusConflict, CodeQueueNotEmpty)
	st, b, _ = do(t, http.MethodDelete, ts.URL+"/v1/queues/team", nil)
	wantAPIError(t, st, b, http.StatusConflict, CodeQueueNotEmpty)
}

// TestQueueInheritance: a PATCH that re-declares elasticities without a
// queue keeps the agent in its queue, and a join ack echoes the queue.
func TestQueueInheritance(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postQueue(t, ts.URL, hier.QueueConfig{Name: "svc"})

	ack := joinQ(t, ts.URL, "a", "svc", 3, 1)
	if ack.Agent.Queue != "svc" {
		t.Fatalf("join ack queue = %q, want svc", ack.Agent.Queue)
	}

	ack2 := patch(t, ts.URL, "a", 1, 3)
	if ack2.Agent.Queue != "svc" {
		t.Fatalf("patch dropped queue: %q, want svc", ack2.Agent.Queue)
	}

	// Explicit "default" in a join normalizes to the canonical empty
	// wire form.
	ackD := joinQ(t, ts.URL, "d", "default", 1, 1)
	if ackD.Agent.Queue != "" {
		t.Fatalf(`explicit default queue = %q, want ""`, ackD.Agent.Queue)
	}
}

// TestHierRollupConsistency: the per-queue rollups served by the
// snapshot, GET /v1/queues, the agent point-read, and the delta read are
// one published array — every float must round-trip bitwise identical
// across all four surfaces.
func TestHierRollupConsistency(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postQueue(t, ts.URL, hier.QueueConfig{Name: "p", Quota: []float64{8, 4}})
	postQueue(t, ts.URL, hier.QueueConfig{Name: "q"})
	joinQ(t, ts.URL, "a", "p", 3, 1)
	joinQ(t, ts.URL, "b", "p", 1, 2)
	start := joinQ(t, ts.URL, "c", "q", 2, 2).Epoch

	snap := getSnapshot(t, ts.URL)
	qs := getQueues(t, ts.URL)
	delta := getDelta(t, ts.URL, start-1)

	if snap.Epoch != qs.Epoch || snap.Epoch != delta.Epoch {
		t.Fatalf("epoch skew: snapshot %d queues %d delta %d", snap.Epoch, qs.Epoch, delta.Epoch)
	}
	canon, _ := json.Marshal(snap.Queues)
	if got, _ := json.Marshal(qs.Queues); string(got) != string(canon) {
		t.Fatalf("GET /v1/queues diverges from snapshot:\n%s\n%s", got, canon)
	}
	if got, _ := json.Marshal(delta.Queues); string(got) != string(canon) {
		t.Fatalf("delta rollups diverge from snapshot:\n%s\n%s", got, canon)
	}

	// The point-read's queue rollup is the same array entry.
	st, b, _ := do(t, http.MethodGet, ts.URL+"/v1/allocation?agent=a", nil)
	if st != http.StatusOK {
		t.Fatalf("point read: %d %s", st, b)
	}
	var row AgentAllocationResponse
	if err := json.Unmarshal(b, &row); err != nil {
		t.Fatal(err)
	}
	if row.Queue == nil || row.Queue.Name != "p" {
		t.Fatalf("point read queue = %+v, want p", row.Queue)
	}
	var want *QueueRollup
	for i := range snap.Queues {
		if snap.Queues[i].Name == "p" {
			want = &snap.Queues[i]
		}
	}
	gotJ, _ := json.Marshal(row.Queue)
	wantJ, _ := json.Marshal(want)
	if string(gotJ) != string(wantJ) {
		t.Fatalf("point-read rollup diverges:\n%s\n%s", gotJ, wantJ)
	}

	// Leaf shares partition the capacity: Σ_leaf share_r == C_r and the
	// quota floor is met.
	for r, c := range snap.Capacity {
		sum := 0.0
		for _, q := range snap.Queues {
			if q.Leaf {
				sum += q.Share[r]
			}
		}
		if !almost(sum, c) {
			t.Fatalf("resource %d: leaf shares sum %g, capacity %g", r, sum, c)
		}
	}
	if want.Share[0] < 8-1e-9 || want.Share[1] < 4-1e-9 {
		t.Fatalf("quota floor violated for p: share %v, quota [8 4]", want.Share)
	}
}

// TestQueueDeltaRingEdge is the regression for the stale-changelog bug:
// when the *last* agent of a queue leaves in the oldest epoch a delta
// window still covers, the delta must report the agent in Left and the
// queue's (now empty) rollup — not a stale per-queue entry and not a
// premature QueuesRemoved. Only deleting the queue itself moves it to
// QueuesRemoved.
func TestQueueDeltaRingEdge(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaWindow = 4
	_, ts := newTestServer(t, cfg)

	postQueue(t, ts.URL, hier.QueueConfig{Name: "tail"})
	joinQ(t, ts.URL, "solo", "tail", 2, 1)
	joinQ(t, ts.URL, "filler0", "default", 1, 1)
	since := join(t, ts.URL, "filler1", 1, 2).Epoch

	// The departure lands in the oldest epoch the window still covers:
	// after it, churn until epoch-since == DeltaWindow exactly.
	st, b, _ := do(t, http.MethodDelete, ts.URL+"/v1/agents/solo", nil)
	if st != http.StatusOK {
		t.Fatalf("leave solo: %d %s", st, b)
	}
	patch(t, ts.URL, "filler0", 2, 1)
	patch(t, ts.URL, "filler1", 1, 3)
	edge := patch(t, ts.URL, "filler0", 1, 1).Epoch
	if edge-since != uint64(cfg.DeltaWindow) {
		t.Fatalf("window setup: epoch %d, since %d, want spread %d", edge, since, cfg.DeltaWindow)
	}

	d := getDelta(t, ts.URL, since)
	if !d.Complete {
		t.Fatalf("delta at ring edge incomplete: %+v", d)
	}
	left := false
	for _, n := range d.Left {
		left = left || n == "solo"
	}
	if !left {
		t.Fatalf("departed agent missing from Left: %+v", d.Left)
	}
	seen := 0
	for _, q := range d.Queues {
		if q.Name == "tail" {
			seen++
			if q.Agents != 0 {
				t.Fatalf("emptied queue rollup agents = %d, want 0", q.Agents)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("tail rollup appears %d times in delta, want exactly 1: %+v", seen, d.Queues)
	}
	for _, n := range d.QueuesRemoved {
		if n == "tail" {
			t.Fatalf("still-live queue reported removed: %+v", d.QueuesRemoved)
		}
	}

	// Deleting the queue itself is what moves it to QueuesRemoved — and
	// drops its rollup.
	st, b, _ = do(t, http.MethodDelete, ts.URL+"/v1/queues/tail", nil)
	if st != http.StatusOK {
		t.Fatalf("queue delete: %d %s", st, b)
	}
	d = getDelta(t, ts.URL, edge)
	removed := false
	for _, n := range d.QueuesRemoved {
		removed = removed || n == "tail"
	}
	if !removed {
		t.Fatalf("deleted queue missing from QueuesRemoved: %+v", d)
	}
	for _, q := range d.Queues {
		if q.Name == "tail" {
			t.Fatalf("deleted queue still in rollups: %+v", d.Queues)
		}
	}
}

// TestHierDegenerateMatchesFlat: a tree with a single explicit leaf
// holding the whole population must reproduce the flat allocator's rows
// within 2 ulps, across the parallelism × shard grid. The leaf inherits
// the full capacity, so every divergence would be a real arithmetic
// difference in the hierarchical path.
func TestHierDegenerateMatchesFlat(t *testing.T) {
	elasts := [][]float64{{3, 1}, {1, 3}, {1, 1}, {4, 1}, {2, 5}, {1, 2}, {5, 5}}
	for _, par := range []int{1, 2, 8} {
		for _, shards := range []int{1, 4, 32} {
			t.Run(fmt.Sprintf("par%d_shards%d", par, shards), func(t *testing.T) {
				flatCfg := testConfig()
				flatCfg.Parallelism, flatCfg.Shards = par, shards
				hierCfg := testConfig()
				hierCfg.Parallelism, hierCfg.Shards = par, shards
				hierCfg.Queues = []hier.QueueConfig{{Name: "solo"}}

				_, flat := newTestServer(t, flatCfg)
				_, tree := newTestServer(t, hierCfg)
				for i, e := range elasts {
					name := fmt.Sprintf("agent%d", i)
					join(t, flat.URL, name, e...)
					joinQ(t, tree.URL, name, "solo", e...)
				}

				fs, hs := getSnapshot(t, flat.URL), getSnapshot(t, tree.URL)
				if len(fs.Agents) != len(elasts) || len(hs.Agents) != len(elasts) {
					t.Fatalf("population: flat %d hier %d", len(fs.Agents), len(hs.Agents))
				}
				for i := range fs.Agents {
					if fs.Agents[i].Name != hs.Agents[i].Name {
						t.Fatalf("agent order diverges at %d: %s vs %s", i, fs.Agents[i].Name, hs.Agents[i].Name)
					}
					for r := range fs.Allocation[i] {
						if d := core.UlpDiff(fs.Allocation[i][r], hs.Allocation[i][r]); d > 2 {
							t.Fatalf("agent %s resource %d: flat %v hier %v (%d ulps)",
								fs.Agents[i].Name, r, fs.Allocation[i][r], hs.Allocation[i][r], d)
						}
					}
				}
			})
		}
	}
}

// TestHierAuditThreeLevel boots a three-level tree, populates sibling
// subtrees, and requires the hierarchical audit to certify quota floors
// and subtree-level sharing incentives/envy-freeness, with the flight
// recorder carrying the per-queue fields.
func TestHierAuditThreeLevel(t *testing.T) {
	cfg := testConfig()
	cfg.FlightRecorder = 16
	cfg.Queues = []hier.QueueConfig{
		{Name: "org-a", Quota: []float64{6, 2}},
		{Name: "org-b"},
		{Name: "a-batch", Parent: "org-a"},
		{Name: "a-serve", Parent: "org-a", Quota: []float64{2, 1}},
	}
	s, ts := newTestServer(t, cfg)

	joinQ(t, ts.URL, "b1", "a-batch", 3, 1)
	joinQ(t, ts.URL, "b2", "a-batch", 1, 2)
	joinQ(t, ts.URL, "s1", "a-serve", 2, 2)
	joinQ(t, ts.URL, "o1", "org-b", 1, 4)
	joinQ(t, ts.URL, "o2", "org-b", 5, 1)

	snap := getSnapshot(t, ts.URL)
	if snap.Fairness == nil || snap.Fairness.Hier == nil {
		t.Fatalf("no hierarchical audit on snapshot: %+v", snap.Fairness)
	}
	h := snap.Fairness.Hier
	if !h.Floors || !h.SI || !h.EF {
		t.Fatalf("hier audit failed: floors=%v si=%v ef=%v violations=%v",
			h.Floors, h.SI, h.EF, snap.Fairness.Violations)
	}
	if !snap.Fairness.SI || !snap.Fairness.EF {
		t.Fatalf("per-agent audit failed under hier: %+v", snap.Fairness)
	}
	if len(snap.Queues) != 5 { // default, org-a, org-b, a-batch, a-serve
		t.Fatalf("rollups = %d queues, want 5: %+v", len(snap.Queues), snap.Queues)
	}

	fl := waitRecords(t, s, snap.Epoch)
	if !fl.Enabled || len(fl.Records) == 0 {
		t.Fatalf("flight recorder empty: %+v", fl)
	}
	last := fl.Records[len(fl.Records)-1]
	if last.Queues != 5 {
		t.Fatalf("flight record queues = %d, want 5", last.Queues)
	}
}
