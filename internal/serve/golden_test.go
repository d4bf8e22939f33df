package serve

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ref/internal/hier"
)

// update rewrites the golden files from the current output:
//
//	go test ./internal/serve -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current wire output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// golden under -update (the internal/exp re-bless convention).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}

// TestGoldenWire locks the ref/serve/v1 JSON wire format against committed
// goldens: the §4.1 snapshot, a join ack, and an error envelope. The fake
// clock pins timestamps, so any diff is a schema change — intentional
// (re-bless with -update and review) or a regression.
func TestGoldenWire(t *testing.T) {
	_, _, base := goldenServer(t, testConfig())

	status, joinBody, _ := do(t, http.MethodPost, base+"/v1/agents",
		[]byte(`{"name":"user1","elasticities":[0.6,0.4]}`))
	if status != http.StatusOK {
		t.Fatalf("join user1: %d: %s", status, joinBody)
	}
	status, b, _ := do(t, http.MethodPost, base+"/v1/agents",
		[]byte(`{"name":"user2","elasticities":[0.2,0.8]}`))
	if status != http.StatusOK {
		t.Fatalf("join user2: %d: %s", status, b)
	}

	snapBody := snapshotBody(t, base)
	_, errBody, _ := do(t, http.MethodDelete, base+"/v1/agents/ghost", nil)

	checkGolden(t, "join_response", joinBody)
	checkGolden(t, "snapshot_41", snapBody)
	checkGolden(t, "error_envelope", errBody)
}

// goldenServer boots a frozen-clock server with one epoch per mutation
// and an httptest front end.
func goldenServer(t *testing.T, cfg Config) (*Server, *FakeClock, string) {
	t.Helper()
	clk := NewFakeClock(t0)
	cfg.Clock = clk
	cfg.MaxBatch = 1
	s, ts := newTestServer(t, cfg)
	return s, clk, ts.URL
}

// goldenJoin joins or re-declares one agent through the Go API, which
// (unlike POST /v1/agents) lets the test set Workload without running
// the profiling sweep.
func goldenJoin(t *testing.T, s *Server, wire WireAgent) {
	t.Helper()
	u := mustUtility(t, 1, wire.Elasticities...)
	wire.Alpha0, wire.Elasticities = u.Alpha0, u.Alpha
	if _, _, _, aerr := s.Join(context.Background(), wire, u); aerr != nil {
		t.Fatalf("join %q: %v", wire.Name, aerr)
	}
}

// snapshotBody reads GET /v1/allocation and returns the raw body.
func snapshotBody(t *testing.T, base string) []byte {
	t.Helper()
	status, b, _ := do(t, http.MethodGet, base+"/v1/allocation", nil)
	if status != http.StatusOK {
		t.Fatalf("allocation: status %d: %s", status, b)
	}
	return b
}

// TestGoldenSnapshotShapes pins the full-snapshot body for the shapes
// snapshot_41 does not reach: the boot snapshot, an inline snapshot with
// a queue tree (rollups with reclaim, fairness.hier), the credit rollup,
// per-agent budgets and names that need escaping, and an elided snapshot
// with a sampled audit.
func TestGoldenSnapshotShapes(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		_, _, base := goldenServer(t, testConfig())
		checkGolden(t, "snapshot_empty", snapshotBody(t, base))
	})

	t.Run("tree_credit", func(t *testing.T) {
		cfg := testConfig()
		cfg.CreditHalfLife = 20 * time.Second
		two := 2.0
		cfg.Queues = []hier.QueueConfig{
			{Name: "org-a", Quota: []float64{6, 2}},
			{Name: "org-b", Weight: &two},
			{Name: "a-batch", Parent: "org-a"},
			{Name: "a-serve", Parent: "org-a", Quota: []float64{2, 1}},
			{Name: "idle", Quota: []float64{1, 1}},
		}
		s, clk, base := goldenServer(t, cfg)
		goldenJoin(t, s, WireAgent{Name: "b1", Queue: "a-batch", Elasticities: []float64{3, 1}})
		goldenJoin(t, s, WireAgent{Name: "b2", Queue: "a-batch", Elasticities: []float64{1, 2}, Workload: "dedup"})
		goldenJoin(t, s, WireAgent{Name: "s1 <ops> & \"q\"", Queue: "a-serve", Elasticities: []float64{2, 2}})
		goldenJoin(t, s, WireAgent{Name: "o1 ü\u2028\t", Queue: "org-b", Elasticities: []float64{1, 4}})
		goldenJoin(t, s, WireAgent{Name: "o2", Queue: "org-b", Elasticities: []float64{5, 1}})
		goldenJoin(t, s, WireAgent{Name: "root", Elasticities: []float64{1, 1e-7}})
		for i := 0; i < 6; i++ { // settle the ledger so budgets tilt
			clk.Advance(5 * time.Second)
			goldenJoin(t, s, WireAgent{Name: "b1", Queue: "a-batch", Elasticities: []float64{3, 1}})
		}
		checkGolden(t, "snapshot_tree_credit", snapshotBody(t, base))
	})

	t.Run("elided", func(t *testing.T) {
		cfg := testConfig()
		cfg.InlineSnapshotAgents = -1
		cfg.AuditSample = 2
		cfg.CreditHalfLife = 20 * time.Second
		s, clk, base := goldenServer(t, cfg)
		for i, e := range [][]float64{{2, 1}, {1, 2}, {1, 1}, {4, 1}} {
			clk.Advance(3 * time.Second)
			goldenJoin(t, s, WireAgent{Name: fmt.Sprintf("e%d", i), Elasticities: e})
		}
		checkGolden(t, "snapshot_elided", snapshotBody(t, base))
	})
}
