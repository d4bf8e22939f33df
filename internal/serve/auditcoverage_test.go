package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// auditRecorder collects the names each audit visited, one set
// per epoch, through the auditObserver test seam.
type auditRecorder struct {
	mu     sync.Mutex
	epochs [][]string
}

func (r *auditRecorder) observe(names []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs = append(r.epochs, append([]string(nil), names...))
}

func (r *auditRecorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs = nil
}

func (r *auditRecorder) snapshot() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]string(nil), r.epochs...)
}

// TestSampledAuditCoverage proves the rotating-window liveness bound:
// with N live agents and window K, every agent is audited within
// ⌈N/K⌉ consecutive epochs — even when the population was churned
// adversarially beforehand (joins and leaves shift the canonical order
// the cursor sweeps) and every epoch's batch keeps re-touching the same
// agent (touched agents ride along without consuming window slots).
func TestSampledAuditCoverage(t *testing.T) {
	const (
		n = 12
		k = 4
	)
	rec := &auditRecorder{}
	cfg := testConfig()
	cfg.AuditSample = k
	cfg.auditObserver = rec.observe
	s, ts := newTestServer(t, cfg)
	ctx := context.Background()

	// Adversarial prelude: churn the table so the audit cursor lands at
	// an arbitrary offset and shard orders have been reshuffled by
	// inserts and removals.
	for i := 0; i < n; i++ {
		join(t, ts.URL, fmt.Sprintf("tenant-%02d", i), 1, 1)
	}
	for i := 0; i < 5; i++ {
		join(t, ts.URL, fmt.Sprintf("churn-%02d", i), 2, 1)
	}
	for i := 0; i < 5; i++ {
		if _, aerr := s.Leave(ctx, fmt.Sprintf("churn-%02d", i)); aerr != nil {
			t.Fatalf("leave churn-%02d: %v", i, aerr)
		}
	}

	// Measurement phase: population is stable at n. Each epoch is
	// triggered by re-declaring tenant-00, the adversarial case for
	// coverage — its touched entry is extra, so the window must still
	// advance by k fresh slots per epoch.
	rec.reset()
	sweeps := (n + k - 1) / k // ⌈N/K⌉
	for i := 0; i < sweeps; i++ {
		patch(t, ts.URL, "tenant-00", 1, float64(i+2))
	}

	visited := map[string]int{}
	epochs := rec.snapshot()
	if len(epochs) != sweeps {
		t.Fatalf("%d audit epochs recorded, want %d", len(epochs), sweeps)
	}
	for e, names := range epochs {
		for _, name := range names {
			if _, ok := visited[name]; !ok {
				visited[name] = e
			}
		}
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		if _, ok := visited[name]; !ok {
			t.Errorf("agent %s never audited in %d epochs (window %d, population %d)", name, sweeps, k, n)
		}
	}
	for _, name := range []string{"churn-00", "churn-04"} {
		if _, ok := visited[name]; ok {
			t.Errorf("departed agent %s appeared in an audit window", name)
		}
	}
}

// corruptWeight multiplies one resource weight of a live agent's entry
// behind the allocator's back: the shard sums no longer match the entry,
// so the rows published next epoch over-allocate the victim — a real
// invariant break both audit paths must catch.
func corruptWeight(t *testing.T, s *Server, name string, factor float64) {
	t.Helper()
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	e, ok := s.table.get(name)
	if !ok {
		t.Fatalf("no entry %q to corrupt", name)
	}
	e.weight[0] *= factor
}

// TestSampledAuditMatchesExactOnCorruption is the parity check the
// window audit owes the whole-table audit: on a deliberately corrupted
// economy both must fail, and on the same economy uncorrupted both must
// pass — sampling may not launder a fairness violation into a green
// verdict.
func TestSampledAuditMatchesExactOnCorruption(t *testing.T) {
	const n = 8
	verdict := func(sampled, corrupt bool) *Fairness {
		cfg := testConfig()
		if sampled {
			// One short of the table, so the verdict is sampled; the
			// window plus the touched t0 cover all but one agent, and the
			// cursor position after these joins puts the victim inside.
			cfg.AuditSample = n - 1
		}
		s, ts := newTestServer(t, cfg)
		for i := 0; i < n; i++ {
			join(t, ts.URL, fmt.Sprintf("t%d", i), 1, 1)
		}
		if corrupt {
			corruptWeight(t, s, "t3", 10)
		}
		// Trigger the epoch that publishes (and audits) the corrupted
		// table through an unrelated agent's re-declaration.
		patch(t, ts.URL, "t0", 1, 2)
		f := s.Current().Fairness
		if f == nil {
			t.Fatal("no fairness verdict on snapshot")
		}
		if f.Sampled != sampled {
			t.Fatalf("Sampled=%v, want %v", f.Sampled, sampled)
		}
		return f
	}

	for _, sampled := range []bool{false, true} {
		clean := verdict(sampled, false)
		if !clean.SI || !clean.EF || !clean.PE {
			t.Errorf("sampled=%v: clean economy failed audit: %+v", sampled, clean)
		}
		bad := verdict(sampled, true)
		if bad.SI && bad.EF && bad.PE {
			t.Errorf("sampled=%v: corrupted economy passed audit: %+v", sampled, bad)
		}
		if len(bad.Violations) == 0 {
			t.Errorf("sampled=%v: corrupted economy reported no violations", sampled)
		}
	}
}
