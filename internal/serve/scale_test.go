package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
)

// patch PATCHes a raw-elasticity re-declaration and decodes the ack.
func patch(t *testing.T, base, name string, elast ...float64) JoinResponse {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"elasticities": elast})
	status, b, _ := do(t, http.MethodPatch, base+"/v1/agents/"+name, body)
	if status != http.StatusOK {
		t.Fatalf("patch %s: status %d: %s", name, status, b)
	}
	var ack JoinResponse
	if err := json.Unmarshal(b, &ack); err != nil {
		t.Fatalf("patch %s: bad ack: %v", name, err)
	}
	return ack
}

// TestPatchUpdate: PATCH re-declares an existing agent's elasticities,
// shifting the allocation, and refuses unknown agents and malformed
// declarations with typed envelopes.
func TestPatchUpdate(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	join(t, ts.URL, "a", 1, 1)
	join(t, ts.URL, "b", 1, 1)

	// Symmetric agents split evenly; tilting a toward bandwidth moves it.
	ack := patch(t, ts.URL, "a", 3, 1)
	if ack.Agent.Name != "a" || len(ack.Allocation) != 2 {
		t.Fatalf("patch ack %+v", ack)
	}
	if ack.Allocation[0] <= 12 {
		t.Fatalf("bandwidth-tilted agent got %v of bandwidth, want > 12", ack.Allocation[0])
	}
	snap := getSnapshot(t, ts.URL)
	if !almost(snap.Agents[0].Elasticities[0], 3) {
		t.Fatalf("patched elasticities not republished: %+v", snap.Agents[0])
	}

	body, _ := json.Marshal(map[string]any{"elasticities": []float64{1, 1}})
	status, b, _ := do(t, http.MethodPatch, ts.URL+"/v1/agents/ghost", body)
	if status != http.StatusNotFound {
		t.Fatalf("patching a ghost: status %d: %s", status, b)
	}
	var env ErrorResponse
	if err := json.Unmarshal(b, &env); err != nil || env.Err.Code != CodeUnknownAgent {
		t.Fatalf("ghost patch envelope %s: %v", b, err)
	}

	body, _ = json.Marshal(map[string]any{"elasticities": []float64{1}})
	if status, b, _ = do(t, http.MethodPatch, ts.URL+"/v1/agents/a", body); status != http.StatusBadRequest {
		t.Fatalf("wrong-arity patch: status %d: %s", status, b)
	}
	body, _ = json.Marshal(map[string]any{"elasticities": []float64{-1, 1}})
	if status, b, _ = do(t, http.MethodPatch, ts.URL+"/v1/agents/a", body); status != http.StatusBadRequest {
		t.Fatalf("negative-elasticity patch: status %d: %s", status, b)
	}
}

// TestPointRead: GET /v1/allocation?agent=X answers one row consistent
// with the published snapshot, 404s unknown names, and rejects
// conflicting or malformed query parameters.
func TestPointRead(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	join(t, ts.URL, "a", 2, 1)
	join(t, ts.URL, "b", 1, 2)

	status, b, _ := do(t, http.MethodGet, ts.URL+"/v1/allocation?agent=a", nil)
	if status != http.StatusOK {
		t.Fatalf("point read: status %d: %s", status, b)
	}
	var pt AgentAllocationResponse
	if err := json.Unmarshal(b, &pt); err != nil {
		t.Fatalf("point read body %s: %v", b, err)
	}
	snap := getSnapshot(t, ts.URL)
	if pt.Epoch != snap.Epoch {
		t.Fatalf("point read epoch %d, snapshot %d", pt.Epoch, snap.Epoch)
	}
	for r := range pt.Allocation {
		if pt.Allocation[r] != snap.Allocation[0][r] {
			t.Fatalf("point row %v != snapshot row %v", pt.Allocation, snap.Allocation[0])
		}
	}

	if status, _, _ = do(t, http.MethodGet, ts.URL+"/v1/allocation?agent=ghost", nil); status != http.StatusNotFound {
		t.Fatalf("ghost point read: status %d", status)
	}
	if status, _, _ = do(t, http.MethodGet, ts.URL+"/v1/allocation?agent=a&since=1", nil); status != http.StatusBadRequest {
		t.Fatalf("agent+since combined: status %d", status)
	}
	if status, _, _ = do(t, http.MethodGet, ts.URL+"/v1/allocation?since=later", nil); status != http.StatusBadRequest {
		t.Fatalf("unparsable since: status %d", status)
	}
}

// TestDeltaRead: GET /v1/allocation?since=E reports exactly the agents
// that changed after E — by final state, with departures in Left — and
// admits when the changelog window no longer covers the cursor.
func TestDeltaRead(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaWindow = 4
	s, ts := newTestServer(t, cfg)
	ctx := context.Background()

	join(t, ts.URL, "a", 1, 1) // epoch 1
	join(t, ts.URL, "b", 2, 1) // epoch 2
	join(t, ts.URL, "c", 1, 2) // epoch 3
	if _, aerr := s.Leave(ctx, "b"); aerr != nil {
		t.Fatalf("leave b: %v", aerr)
	} // epoch 4

	status, b, _ := do(t, http.MethodGet, ts.URL+"/v1/allocation?since=1", nil)
	if status != http.StatusOK {
		t.Fatalf("delta read: status %d: %s", status, b)
	}
	var d DeltaResponse
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("delta body %s: %v", b, err)
	}
	if !d.Complete || d.Epoch != 4 || d.Since != 1 {
		t.Fatalf("delta header %+v", d)
	}
	// After epoch 1: b joined then left → Left; c joined → Changes.
	if len(d.Changes) != 1 || d.Changes[0].Agent.Name != "c" || len(d.Left) != 1 || d.Left[0] != "b" {
		t.Fatalf("delta since 1 = %s", b)
	}
	if len(d.Changes[0].Allocation) != 2 {
		t.Fatalf("delta change carries no row: %s", b)
	}

	// A cursor at the current epoch is trivially complete and empty.
	dd := s.DeltaSince(4)
	if !dd.Complete || len(dd.Changes) != 0 || len(dd.Left) != 0 {
		t.Fatalf("delta at head %+v", dd)
	}

	// Roll the 4-epoch window past epoch 1: cursors before it go stale.
	for i := 0; i < 4; i++ {
		patch(t, ts.URL, "a", 1, float64(i+2)) // epochs 5..8
	}
	if dd = s.DeltaSince(1); dd.Complete {
		t.Fatalf("cursor older than the window reported complete: %+v", dd)
	}
	if dd = s.DeltaSince(4); !dd.Complete || len(dd.Changes) != 1 || dd.Changes[0].Agent.Name != "a" {
		t.Fatalf("delta since 4 after window roll: %+v", dd)
	}
}

// TestElidedSnapshot: above the inline threshold (forced here with a
// negative limit) snapshots and agent dumps carry counts instead of the
// population, while point reads, deltas, health, and mutation acks keep
// working at full fidelity.
func TestElidedSnapshot(t *testing.T) {
	cfg := testConfig()
	cfg.InlineSnapshotAgents = -1
	cfg.AuditSample = 1 // and a sampled audit
	_, ts := newTestServer(t, cfg)

	ack := join(t, ts.URL, "a", 2, 1)
	if len(ack.Allocation) != 2 || !almost(ack.Allocation[0], 24) {
		t.Fatalf("join ack row %v under elision", ack.Allocation)
	}
	join(t, ts.URL, "b", 1, 2)

	snap := getSnapshot(t, ts.URL)
	if !snap.AgentsElided || snap.AgentCount != 2 || snap.NumAgents() != 2 {
		t.Fatalf("snapshot not elided: %+v", snap)
	}
	if len(snap.Agents) != 0 || len(snap.Allocation) != 0 {
		t.Fatalf("elided snapshot still carries %d agents / %d rows", len(snap.Agents), len(snap.Allocation))
	}
	if snap.Fairness == nil || !snap.Fairness.Sampled || !snap.Fairness.SI || !snap.Fairness.EF || !snap.Fairness.PE {
		t.Fatalf("elided snapshot fairness %+v", snap.Fairness)
	}

	status, b, _ := do(t, http.MethodGet, ts.URL+"/v1/agents", nil)
	if status != http.StatusOK {
		t.Fatalf("agents dump: status %d", status)
	}
	var agents agentsResponse
	if err := json.Unmarshal(b, &agents); err != nil || !agents.Elided || agents.Count != 2 {
		t.Fatalf("agents dump %s: %v", b, err)
	}

	status, b, _ = do(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	var health HealthResponse
	if err := json.Unmarshal(b, &health); err != nil || status != http.StatusOK || health.Agents != 2 {
		t.Fatalf("healthz %s: %v", b, err)
	}

	status, b, _ = do(t, http.MethodGet, ts.URL+"/v1/allocation?agent=b", nil)
	if status != http.StatusOK {
		t.Fatalf("point read under elision: status %d: %s", status, b)
	}
}

// scaleUtility mirrors the randomized utilities of the core differential
// tests: elasticities across magnitude classes, zeros allowed.
func scaleUtility(rng *rand.Rand, r int) cobb.Utility {
	alpha := make([]float64, r)
	positive := false
	for j := range alpha {
		switch rng.Intn(4) {
		case 0:
			alpha[j] = 0
		case 1:
			alpha[j] = rng.Float64()
		case 2:
			alpha[j] = rng.Float64() * 1e2
		default:
			alpha[j] = rng.Float64() * 1e-2
		}
		if alpha[j] > 0 {
			positive = true
		}
	}
	if !positive {
		alpha[rng.Intn(r)] = rng.Float64() + 0.1
	}
	return cobb.MustNew(1, alpha...)
}

// populate drives n sequential joins through the Go API.
func populate(t *testing.T, s *Server, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("agent%05d", i)
		u := scaleUtility(rng, len(s.cfg.Capacity))
		wire := WireAgent{Name: name, Alpha0: u.Alpha0, Elasticities: u.Alpha}
		if _, _, _, aerr := s.Join(ctx, wire, u); aerr != nil {
			t.Fatalf("join %s: %v", name, aerr)
		}
	}
}

// TestShardDeterminism: the same mutation sequence produces bitwise
// identical allocations on repeated runs of the same configuration, and
// allocations within 2 ulps across different shard counts and pool
// widths (the per-resource sums are faithfully rounded under any
// shard partition).
func TestShardDeterminism(t *testing.T) {
	const n = 48
	rows := func(shards, parallelism int) map[string][]float64 {
		cfg := testConfig()
		cfg.Shards = shards
		cfg.Parallelism = parallelism
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5e9)
			defer cancel()
			_ = s.Close(ctx)
		}()
		populate(t, s, n, 7)
		snap := s.Current()
		out := make(map[string][]float64, n)
		for i, a := range snap.Agents {
			out[a.Name] = snap.Allocation[i]
		}
		return out
	}

	base := rows(4, 2)
	again := rows(4, 2)
	wide := rows(16, 8)
	for name, row := range base {
		for r := range row {
			if again[name][r] != row[r] {
				t.Fatalf("same config diverged: %s[%d] %v vs %v", name, r, row[r], again[name][r])
			}
			if d := core.UlpDiff(wide[name][r], row[r]); d > 2 {
				t.Fatalf("shard partition changed %s[%d] by %d ulps: %v vs %v", name, r, d, row[r], wide[name][r])
			}
		}
	}
}

// TestSampledAuditAgreesWithExact cross-checks the window audit against
// the whole-table audit and the pairwise internal/fair oracles on the
// same published rows: on the live economy all three must pass, and once
// one agent's row is corrupted all three must fail — the window through
// the corrupted agent being batch-touched.
func TestSampledAuditAgreesWithExact(t *testing.T) {
	const n = 96
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5e9)
		defer cancel()
		_ = s.Close(ctx)
	}()
	populate(t, s, n, 13)

	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	verdicts := func(touched []string) (window, whole *Fairness, pairwise []string) {
		s.cfg.AuditSample = 32
		window = s.audit(n, touched)
		s.cfg.AuditSample = n
		whole = s.audit(n, nil)
		var utils []cobb.Utility
		var rows [][]float64
		s.table.forEachSorted(func(_ string, e agentView) {
			utils = append(utils, e.util)
			rows = append(rows, s.rowFor(e))
		})
		tol := fair.DefaultTolerance()
		si, err1 := fair.SharingIncentives(utils, s.cfg.Capacity, rows, tol)
		ef, err2 := fair.EnvyFreeness(utils, rows, tol)
		pe, err3 := fair.ParetoEfficiency(utils, s.cfg.Capacity, rows, tol)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatal(err)
		}
		for _, res := range []fair.Result{si, ef, pe} {
			for _, v := range res.Violations {
				pairwise = append(pairwise, v.String())
			}
		}
		return window, whole, pairwise
	}
	clean := func(f *Fairness) bool { return f.SI && f.EF && f.PE && len(f.Violations) == 0 }

	window, whole, pairwise := verdicts(nil)
	if !clean(window) || !clean(whole) || len(pairwise) != 0 {
		t.Fatalf("live economy: window %+v, whole %+v, pairwise %v", window, whole, pairwise)
	}
	if !window.Sampled || window.SampleSize != 32 || whole.Sampled || whole.SampleSize != 0 {
		t.Fatalf("audit metadata: window %+v, whole %+v", window, whole)
	}

	// The victim values both resources, so its inflated row also breaks
	// the pairwise tangency condition.
	var victim string
	s.table.forEachSorted(func(name string, e agentView) {
		if victim == "" && e.weight[0] > 0 && e.weight[1] > 0 {
			victim = name
		}
	})
	e, _ := s.table.get(victim)
	e.weight[0] *= 4
	window, whole, pairwise = verdicts([]string{victim})
	if clean(window) || clean(whole) || len(pairwise) == 0 {
		t.Fatalf("corrupted economy: window %+v, whole %+v, pairwise %v", window, whole, pairwise)
	}
}

// benchServer builds a server with n agents preloaded directly into the
// sharded table (bypassing the epoch loop) and an update-only batch of
// size batch ready to replay, for white-box epoch measurements.
func benchServer(tb testing.TB, n, batch int) (*Server, []mutation) {
	tb.Helper()
	s := whiteBoxServer(tb, Config{
		Capacity:             []float64{24, 12},
		InlineSnapshotAgents: -1,
		AuditSample:          64,
		Shards:               64,
		Clock:                NewFakeClock(t0),
	})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("agent%07d", i)
		u := scaleUtility(rng, 2)
		e := &agentEntry{}
		s.table.Upsert(name, e, e.declare(WireAgent{Name: name, Alpha0: u.Alpha0, Elasticities: u.Alpha}, u, "default"))
	}
	s.publish(nil)
	muts := make([]mutation, batch)
	for i := range muts {
		name := fmt.Sprintf("agent%07d", rng.Intn(n))
		u := scaleUtility(rng, 2)
		muts[i] = mutation{kind: mutUpdate, name: name,
			wire: WireAgent{Name: name, Alpha0: u.Alpha0, Elasticities: u.Alpha}, util: u}
	}
	return s, muts
}

// runScratchEpoch replays the prepared batch through one epoch,
// attaching fresh reply channels and draining them.
func runScratchEpoch(s *Server, muts []mutation) {
	for i := range muts {
		muts[i].reply = make(chan mutationResult, 1)
	}
	s.runEpoch(muts)
	for i := range muts {
		res := <-muts[i].reply
		if res.err != nil {
			panic(res.err)
		}
	}
}

// TestSteadyStateEpochAllocsFlat is the regression fence for the scratch
// reuse: a steady-state epoch (updates only, elided snapshot, sampled
// audit) must allocate proportionally to its batch and audit sample,
// not to the total population. An 8× larger economy is allowed at most
// 1.5× the allocations (headroom for map internals), where the old
// full-recompute epoch allocated ∝N.
func TestSteadyStateEpochAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting at N=8192 in -short mode")
	}
	measure := func(n int) float64 {
		s, muts := benchServer(t, n, 32)
		runScratchEpoch(s, muts) // warm scratch buffers
		return testing.AllocsPerRun(10, func() { runScratchEpoch(s, muts) })
	}
	small := measure(1024)
	large := measure(8192)
	if large > small*1.5+64 {
		t.Fatalf("steady-state epoch allocations scale with population: %v at N=1024 vs %v at N=8192", small, large)
	}
}

// BenchmarkServeEpoch measures the full service epoch (batch apply,
// resummation policy, publish with sampled audit, replies) at increasing
// populations — the serve-layer counterpart of the core engine's
// BenchmarkEpochIncremental.
func BenchmarkServeEpoch(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			s, muts := benchServer(b, n, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runScratchEpoch(s, muts)
			}
		})
	}
}
