package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ref/internal/cobb"
	"ref/internal/hier"
)

// testConfig is a two-resource economy matching the paper's §4.1 worked
// example: 24 GB/s of bandwidth and 12 MB of cache.
func testConfig() Config {
	return Config{Capacity: []float64{24, 12}}
}

// whiteBoxServer builds a Server from cfg (defaulted) without starting
// its epoch loop, for tests that drive runEpoch or submit directly. It
// does not publish; call s.publish(nil) once the table is seeded.
func whiteBoxServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := hier.NewTree(cfg.Capacity, &hier.TreeConfig{Queues: cfg.Queues}, hier.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return &Server{cfg: cfg, clock: cfg.Clock, mutCh: make(chan mutation, 1),
		drainCh: make(chan struct{}), doneCh: make(chan struct{}),
		table:  newAgentTable(cfg.Shards, len(cfg.Capacity)),
		deltas: make([]epochDelta, cfg.DeltaWindow),
		tree:   tree, hierEver: tree.NonTrivial()}
}

// shortenResumCadence makes the server's table and queue tree run an
// exact resummation every k epochs instead of the production cadence.
// Call it before the first mutation: the epoch loop reads the cadence
// only after receiving one.
func shortenResumCadence(s *Server, k int) {
	s.table.Cadence().Shorten(k)
	s.tree.Cadence().Shorten(k)
}

// newTestServer boots a Server plus an httptest front end and registers
// cleanup for both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

// do issues one request and returns status, body, and headers.
func do(t *testing.T, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header
}

// join POSTs a raw-elasticity join and decodes the ack.
func join(t *testing.T, base, name string, elast ...float64) JoinResponse {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"name": name, "elasticities": elast})
	status, b, _ := do(t, http.MethodPost, base+"/v1/agents", body)
	if status != http.StatusOK {
		t.Fatalf("join %s: status %d: %s", name, status, b)
	}
	var ack JoinResponse
	if err := json.Unmarshal(b, &ack); err != nil {
		t.Fatalf("join %s: bad ack: %v", name, err)
	}
	return ack
}

// getSnapshot reads /v1/allocation.
func getSnapshot(t *testing.T, base string) Snapshot {
	t.Helper()
	status, b, _ := do(t, http.MethodGet, base+"/v1/allocation", nil)
	if status != http.StatusOK {
		t.Fatalf("allocation: status %d: %s", status, b)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("allocation: bad snapshot: %v", err)
	}
	return snap
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// TestLifecycle walks the full tenant lifecycle over HTTP: boot empty,
// join the §4.1 pair, read the worked-example allocation, re-declare,
// leave, and observe strictly monotone epochs throughout.
func TestLifecycle(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	snap := getSnapshot(t, ts.URL)
	if snap.Epoch != 0 || len(snap.Agents) != 0 || snap.Fairness != nil {
		t.Fatalf("boot snapshot = %+v, want empty epoch 0", snap)
	}
	if snap.Schema != Schema {
		t.Fatalf("schema %q, want %q", snap.Schema, Schema)
	}

	ack1 := join(t, ts.URL, "user1", 0.6, 0.4)
	if !almost(ack1.Allocation[0], 24) || !almost(ack1.Allocation[1], 12) {
		t.Fatalf("sole agent allocation = %v, want the whole machine", ack1.Allocation)
	}
	ack2 := join(t, ts.URL, "user2", 0.2, 0.8)
	if ack2.Epoch <= ack1.Epoch {
		t.Fatalf("epochs not increasing: %d then %d", ack1.Epoch, ack2.Epoch)
	}

	// The §4.1 worked example: user1 = (18 GB/s, 4 MB), user2 = (6, 8).
	snap = getSnapshot(t, ts.URL)
	if snap.Epoch < ack2.Epoch {
		t.Fatalf("snapshot epoch %d older than acked %d", snap.Epoch, ack2.Epoch)
	}
	if len(snap.Agents) != 2 || snap.Agents[0].Name != "user1" || snap.Agents[1].Name != "user2" {
		t.Fatalf("agents = %+v, want sorted [user1 user2]", snap.Agents)
	}
	want := [][]float64{{18, 4}, {6, 8}}
	for i := range want {
		for r := range want[i] {
			if !almost(snap.Allocation[i][r], want[i][r]) {
				t.Errorf("allocation[%d][%d] = %v, want %v", i, r, snap.Allocation[i][r], want[i][r])
			}
		}
	}
	if snap.Fairness == nil || !snap.Fairness.SI || !snap.Fairness.EF || !snap.Fairness.PE {
		t.Fatalf("fairness audit = %+v, want SI/EF/PE all true", snap.Fairness)
	}

	// Re-declaring preferences keeps the tenant count and shifts shares.
	re := join(t, ts.URL, "user1", 0.5, 0.5)
	if re.Epoch <= snap.Epoch {
		t.Fatalf("re-declare epoch %d not after %d", re.Epoch, snap.Epoch)
	}
	snap = getSnapshot(t, ts.URL)
	if len(snap.Agents) != 2 {
		t.Fatalf("re-declare changed agent count: %d", len(snap.Agents))
	}
	if !almost(snap.Agents[0].Elasticities[0], 0.5) {
		t.Fatalf("re-declared elasticities not visible: %v", snap.Agents[0].Elasticities)
	}

	// Leaving hands the remaining tenant the whole machine.
	status, b, _ := do(t, http.MethodDelete, ts.URL+"/v1/agents/user1", nil)
	if status != http.StatusOK {
		t.Fatalf("leave: status %d: %s", status, b)
	}
	var leave LeaveResponse
	if err := json.Unmarshal(b, &leave); err != nil || leave.Name != "user1" {
		t.Fatalf("leave ack %s: %v", b, err)
	}
	snap = getSnapshot(t, ts.URL)
	if len(snap.Agents) != 1 || snap.Agents[0].Name != "user2" {
		t.Fatalf("agents after leave = %+v", snap.Agents)
	}
	if !almost(snap.Allocation[0][0], 24) || !almost(snap.Allocation[0][1], 12) {
		t.Fatalf("survivor allocation = %v, want the whole machine", snap.Allocation[0])
	}

	// /v1/agents and /v1/healthz reflect the same snapshot.
	status, b, _ = do(t, http.MethodGet, ts.URL+"/v1/agents", nil)
	if status != http.StatusOK || !bytes.Contains(b, []byte("user2")) {
		t.Fatalf("agents endpoint: %d %s", status, b)
	}
	status, b, _ = do(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	var health HealthResponse
	if status != http.StatusOK || json.Unmarshal(b, &health) != nil {
		t.Fatalf("healthz: %d %s", status, b)
	}
	if health.Status != "ok" || health.Agents != 1 {
		t.Fatalf("healthz = %+v", health)
	}
}

// waitReceived polls the epoch loop's dequeue counter so fake-clock tests
// can sequence "the loop has seen mutation N" without sleeping blind.
func waitReceived(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.received.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("epoch loop received %d mutations, want %d", s.received.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestEpochWindowBatching drives the batching window with a fake clock:
// two mutations arriving inside one window coalesce into a single epoch,
// and no epoch publishes while the clock is frozen.
func TestEpochWindowBatching(t *testing.T) {
	clock := NewFakeClock(t0)
	cfg := testConfig()
	cfg.Clock = clock
	cfg.Window = 50 * time.Millisecond
	cfg.MaxBatch = 100
	s, ts := newTestServer(t, cfg)

	type ack struct {
		resp JoinResponse
		err  error
	}
	acks := make(chan ack, 2)
	post := func(name string, e0, e1 float64) {
		body, _ := json.Marshal(map[string]any{"name": name, "elasticities": []float64{e0, e1}})
		resp, err := http.Post(ts.URL+"/v1/agents", "application/json", bytes.NewReader(body))
		if err != nil {
			acks <- ack{err: err}
			return
		}
		defer resp.Body.Close()
		var a ack
		a.err = json.NewDecoder(resp.Body).Decode(&a.resp)
		acks <- a
	}

	go post("user1", 0.6, 0.4)
	waitReceived(t, s, 1) // the loop holds user1 in its batch...
	clock.BlockUntil(1)   // ...and has armed the window timer
	go post("user2", 0.2, 0.8)
	waitReceived(t, s, 2)

	// Window still open: nothing published, both requests still waiting.
	if got := s.Current().Epoch; got != 0 {
		t.Fatalf("epoch %d published before the window elapsed", got)
	}
	select {
	case a := <-acks:
		t.Fatalf("join acked before the window elapsed: %+v", a)
	default:
	}

	clock.Advance(cfg.Window)

	for i := 0; i < 2; i++ {
		select {
		case a := <-acks:
			if a.err != nil {
				t.Fatalf("join failed: %v", a.err)
			}
			if a.resp.Epoch != 1 {
				t.Fatalf("join epoch = %d, want 1 (single coalesced epoch)", a.resp.Epoch)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("join did not return after the window fired")
		}
	}
	snap := s.Current()
	if snap.Epoch != 1 || snap.BatchSize != 2 || snap.Applied != 2 {
		t.Fatalf("snapshot = epoch %d batch %d applied %d, want 1/2/2", snap.Epoch, snap.BatchSize, snap.Applied)
	}
	if snap.Time != t0.Add(cfg.Window).UTC().Format(time.RFC3339Nano) {
		t.Fatalf("snapshot time %q not taken from the fake clock", snap.Time)
	}
}

// TestMaxBatchCutsWindowShort: a full batch triggers the epoch with the
// window timer still pending — no clock advance needed.
func TestMaxBatchCutsWindowShort(t *testing.T) {
	clock := NewFakeClock(t0)
	cfg := testConfig()
	cfg.Clock = clock
	cfg.Window = time.Hour // would block forever if the batch cap didn't fire
	cfg.MaxBatch = 2
	s, ts := newTestServer(t, cfg)

	done := make(chan JoinResponse, 2)
	for i, name := range []string{"user1", "user2"} {
		go func(i int, name string) {
			body, _ := json.Marshal(map[string]any{"name": name, "elasticities": []float64{0.5, 0.5}})
			resp, err := http.Post(ts.URL+"/v1/agents", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var a JoinResponse
			if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
				t.Error(err)
				return
			}
			done <- a
		}(i, name)
	}
	for i := 0; i < 2; i++ {
		select {
		case a := <-done:
			if a.Epoch != 1 {
				t.Fatalf("epoch = %d, want 1", a.Epoch)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("batch-size trigger did not fire")
		}
	}
	if snap := s.Current(); snap.BatchSize != 2 {
		t.Fatalf("batch size = %d, want 2", snap.BatchSize)
	}
}

// TestDrainFlushesQueuedMutations: Close applies every accepted mutation
// in a final epoch (every in-flight request gets its reply) and sheds new
// writes with a typed draining error.
func TestDrainFlushesQueuedMutations(t *testing.T) {
	clock := NewFakeClock(t0)
	cfg := testConfig()
	cfg.Clock = clock
	cfg.Window = time.Hour // the drain, not the window, must flush these
	cfg.MaxBatch = 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var acked [2]chan JoinResponse
	for i := range acked {
		acked[i] = make(chan JoinResponse, 1)
		name := fmt.Sprintf("user%d", i+1)
		go func(name string, ch chan JoinResponse) {
			wire := WireAgent{Name: name, Alpha0: 1, Elasticities: []float64{0.5, 0.5}}
			util := mustUtility(t, 1, 0.5, 0.5)
			epoch, row, _, aerr := s.Join(context.Background(), wire, util)
			if aerr != nil {
				t.Errorf("join %s during drain flush: %v", name, aerr)
				return
			}
			ch <- JoinResponse{Epoch: epoch, Allocation: row}
		}(name, acked[i])
	}
	waitReceived(t, s, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for i := range acked {
		select {
		case a := <-acked[i]:
			if a.Epoch != 1 {
				t.Fatalf("flushed mutation epoch = %d, want 1", a.Epoch)
			}
		case <-time.After(time.Second):
			t.Fatal("queued mutation was not replied to during drain")
		}
	}
	snap := s.Current()
	if len(snap.Agents) != 2 || snap.Epoch != 1 {
		t.Fatalf("final snapshot = epoch %d with %d agents, want 1 with 2", snap.Epoch, len(snap.Agents))
	}

	// New writes are refused with the typed draining error; reads and
	// the health endpoint stay up.
	_, _, _, aerr := s.Join(context.Background(), WireAgent{Name: "late"}, mustUtility(t, 1, 1, 1))
	if aerr == nil || aerr.Code != CodeDraining || aerr.Status != http.StatusServiceUnavailable {
		t.Fatalf("join after drain = %+v, want %s", aerr, CodeDraining)
	}
	if aerr.RetryAfter < 1 {
		t.Fatalf("draining error carries no Retry-After hint: %+v", aerr)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Close")
	}
}

func mustUtility(t *testing.T, alpha0 float64, alpha ...float64) cobb.Utility {
	t.Helper()
	util, err := cobb.New(alpha0, alpha...)
	if err != nil {
		t.Fatalf("utility: %v", err)
	}
	return util
}

// TestQueueFullSheds exercises the load-shedding path white-box: with the
// queue at capacity, submit refuses immediately with queue_full and a
// Retry-After hint rather than blocking.
func TestQueueFullSheds(t *testing.T) {
	cfg := testConfig()
	cfg.Clock = NewFakeClock(t0)
	// A server whose epoch loop never runs: the queue cannot drain.
	s := whiteBoxServer(t, cfg)
	s.publish(nil)
	s.mutCh <- mutation{kind: mutLeave, name: "filler"}

	_, _, _, aerr := s.Join(context.Background(), WireAgent{Name: "u"}, mustUtility(t, 1, 1, 1))
	if aerr == nil || aerr.Code != CodeQueueFull || aerr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit with full queue = %+v, want %s", aerr, CodeQueueFull)
	}
	if aerr.RetryAfter < 1 {
		t.Fatalf("queue_full error carries no Retry-After hint: %+v", aerr)
	}

	// Over HTTP the same path yields 503 + Retry-After header.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"name": "u", "elasticities": []float64{1, 1}})
	status, b, hdr := do(t, http.MethodPost, ts.URL+"/v1/agents", body)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", status, b)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	var env ErrorResponse
	if err := json.Unmarshal(b, &env); err != nil || env.Err.Code != CodeQueueFull {
		t.Fatalf("error envelope %s: %v", b, err)
	}
}

// TestRequestDeadline: a mutation whose epoch never publishes (frozen
// fake clock) returns the typed deadline error after RequestTimeout.
func TestRequestDeadline(t *testing.T) {
	clock := NewFakeClock(t0)
	cfg := testConfig()
	cfg.Clock = clock
	cfg.Window = time.Hour
	cfg.MaxBatch = 100
	cfg.RequestTimeout = 20 * time.Millisecond
	s, ts := newTestServer(t, cfg)

	body, _ := json.Marshal(map[string]any{"name": "slow", "elasticities": []float64{1, 1}})
	start := time.Now()
	status, b, _ := do(t, http.MethodPost, ts.URL+"/v1/agents", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", status, b)
	}
	var env ErrorResponse
	if err := json.Unmarshal(b, &env); err != nil || env.Err.Code != CodeDeadline {
		t.Fatalf("error envelope %s: %v", b, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v, want ~RequestTimeout", elapsed)
	}
	_ = s // Cleanup drains the still-queued mutation.
}
