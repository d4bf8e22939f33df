package serve

import (
	"context"
	"fmt"
	"testing"
)

// deltaAt reads ?since=c and fails the test if the response header is
// inconsistent with the current epoch.
func deltaAt(t *testing.T, s *Server, since uint64) *DeltaResponse {
	t.Helper()
	d := s.DeltaSince(since)
	if d.Since != since {
		t.Fatalf("DeltaSince(%d) echoed Since=%d", since, d.Since)
	}
	cur := s.Current().Epoch
	if d.Epoch != cur {
		t.Fatalf("DeltaSince(%d) at epoch %d reported Epoch=%d", since, cur, d.Epoch)
	}
	return d
}

// TestDeltaWindowBoundary pins the exact coverage edge of the changelog
// ring: with a W-epoch window at epoch k, the oldest retained entry is
// epoch k-W+1, so a cursor c is complete iff c ≥ k-W — the edge cursor
// c = k-W still reconstructs (its first missing epoch is c+1, the oldest
// entry), and c = k-W-1 must admit Complete=false rather than silently
// dropping epoch c+1's changes.
func TestDeltaWindowBoundary(t *testing.T) {
	const W = 4
	cfg := testConfig()
	cfg.DeltaWindow = W
	s, ts := newTestServer(t, cfg)

	// Epochs 1..W: join one agent per epoch. The ring fills exactly.
	for i := 1; i <= W; i++ {
		join(t, ts.URL, fmt.Sprintf("a%d", i), 1, 1)
	}
	if got := s.Current().Epoch; got != W {
		t.Fatalf("epoch %d after %d joins", got, W)
	}

	// Ring exactly full, not yet evicting: epoch 0 (the boot snapshot)
	// is still a covered cursor because epoch 1's entry is present.
	if d := deltaAt(t, s, 0); !d.Complete || len(d.Changes) != W || len(d.Left) != 0 {
		t.Fatalf("full-ring cursor 0: %+v", d)
	}

	// One more epoch evicts epoch 1. Cursor k-W = 1 is the edge: the
	// oldest entry (epoch 2) is exactly its first missing epoch.
	join(t, ts.URL, "b", 2, 1) // epoch W+1
	k := uint64(W + 1)
	if d := deltaAt(t, s, k-W); !d.Complete {
		t.Fatalf("edge cursor k-W=%d not complete: %+v", k-W, d)
	} else if len(d.Changes) != W {
		t.Fatalf("edge cursor: %d changes, want %d", len(d.Changes), W)
	}
	// One past the edge: epoch k-W's changes are gone; must refuse.
	if d := deltaAt(t, s, k-W-1); d.Complete {
		t.Fatalf("cursor k-W-1=%d claims complete past the window", k-W-1)
	}
	// Cursor at the head is trivially complete and empty.
	if d := deltaAt(t, s, k); !d.Complete || len(d.Changes) != 0 || len(d.Left) != 0 {
		t.Fatalf("head cursor: %+v", d)
	}
	// Cursor beyond the head came from another server (one that has
	// since restarted): nothing here covers it, so it must re-read.
	if d := deltaAt(t, s, k+1); d.Complete || len(d.Changes) != 0 {
		t.Fatalf("future cursor: %+v", d)
	}
}

// TestDeltaCursorFromRestartedServer follows one server over HTTP, then
// reads a freshly booted one (the restarted server, back at epoch 0)
// with the old cursor: until the new server reaches the old epoch, the
// delta must say incomplete instead of answering "nothing changed" while
// the follower holds stale state.
func TestDeltaCursorFromRestartedServer(t *testing.T) {
	_, old := newTestServer(t, testConfig())
	join(t, old.URL, "a", 1, 1)
	join(t, old.URL, "b", 1, 2)
	cursor := getSnapshot(t, old.URL).Epoch // 2

	s, fresh := newTestServer(t, testConfig())
	join(t, fresh.URL, "c", 2, 1) // epoch 1
	if d := getDelta(t, fresh.URL, cursor); d.Complete || d.Epoch != 1 || len(d.Changes) != 0 {
		t.Fatalf("stale cursor %d at epoch 1: %+v", cursor, d)
	}
	if d := getDelta(t, fresh.URL, 0); !d.Complete || len(d.Changes) != 1 || d.Changes[0].Agent.Name != "c" {
		t.Fatalf("full catch-up from 0: %+v", d)
	}
	// At the cursor's own epoch the server answers it like any head cursor.
	join(t, fresh.URL, "d", 1, 3) // epoch 2
	if d := deltaAt(t, s, cursor); !d.Complete || len(d.Changes) != 0 {
		t.Fatalf("head cursor %d: %+v", cursor, d)
	}
}

// TestDeltaWindowWraparound rolls the ring through several full
// turnovers and checks the boundary algebra still holds with the head
// index wrapped mid-array, and that final-state semantics survive
// eviction: a join+leave inside the window lands in Left, a leave+rejoin
// lands in Changes.
func TestDeltaWindowWraparound(t *testing.T) {
	const W = 4
	cfg := testConfig()
	cfg.DeltaWindow = W
	s, ts := newTestServer(t, cfg)
	ctx := context.Background()

	join(t, ts.URL, "anchor", 1, 1) // epoch 1
	// Roll the ring through 3+ turnovers with updates to the anchor.
	var k uint64 = 1
	for i := 0; i < 3*W+1; i++ {
		patch(t, ts.URL, "anchor", 1, float64(i+2))
		k++
	}

	// The boundary predicate at an arbitrary wrapped head position.
	for c := k - W; c <= k; c++ {
		if d := deltaAt(t, s, c); !d.Complete {
			t.Fatalf("covered cursor %d (k=%d, W=%d) incomplete", c, k, W)
		} else if want := int(k - c); len(d.Changes) != min(want, 1) {
			// Every covered epoch changed only the anchor, so any
			// cursor before the head sees exactly one change.
			t.Fatalf("cursor %d: %d changes", c, len(d.Changes))
		}
	}
	if d := deltaAt(t, s, k-W-1); d.Complete {
		t.Fatalf("cursor k-W-1=%d claims complete after wraparound", k-W-1)
	}

	// Final-state semantics across a wrapped window: "flash" joins and
	// leaves inside the window → reported departed, not changed.
	join(t, ts.URL, "flash", 1, 1) // epoch k+1
	if _, aerr := s.Leave(ctx, "flash"); aerr != nil {
		t.Fatalf("leave flash: %v", aerr)
	} // epoch k+2
	d := deltaAt(t, s, k)
	if !d.Complete || len(d.Left) != 1 || d.Left[0] != "flash" || len(d.Changes) != 0 {
		t.Fatalf("join+leave in window: %+v", d)
	}

	// ...and a leave+rejoin → reported changed, not departed.
	join(t, ts.URL, "flash", 2, 2) // epoch k+3
	d = deltaAt(t, s, k)
	if !d.Complete || len(d.Left) != 0 || len(d.Changes) != 1 || d.Changes[0].Agent.Name != "flash" {
		t.Fatalf("leave+rejoin in window: %+v", d)
	}
	if len(d.Changes[0].Allocation) != 2 {
		t.Fatalf("rejoin change carries no allocation row: %+v", d.Changes[0])
	}
}

// TestDeltaWindowOne is the degenerate ring: W=1 retains only the most
// recent epoch, so the only complete non-head cursor is k-1.
func TestDeltaWindowOne(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaWindow = 1
	s, ts := newTestServer(t, cfg)

	join(t, ts.URL, "a", 1, 1) // epoch 1
	join(t, ts.URL, "b", 1, 2) // epoch 2

	if d := deltaAt(t, s, 1); !d.Complete || len(d.Changes) != 1 || d.Changes[0].Agent.Name != "b" {
		t.Fatalf("W=1 cursor k-1: %+v", d)
	}
	if d := deltaAt(t, s, 0); d.Complete {
		t.Fatalf("W=1 cursor k-2 claims complete: %+v", d)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
