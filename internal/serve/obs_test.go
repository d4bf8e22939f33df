package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ref/internal/obs"
)

// stepClock advances its reading by a fixed step on every Now call, so
// any interval measured across two reads is positive and deterministic —
// the lever the latency-breach tests use to push epochs over the SLO
// without sleeping. Timers are real so the epoch loop still runs.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *stepClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// eventually polls cond until it holds, failing the test after a
// deadline. The epoch loop replies to a mutation before it records the
// epoch, dumps, or emits trace spans, so assertions on those wait for
// the event rather than reading it right after the reply.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitRecords waits until the flight recorder holds the record of epoch
// `epoch` and returns the recorder state.
func waitRecords(t *testing.T, s *Server, epoch uint64) FlightSnapshot {
	t.Helper()
	var fs FlightSnapshot
	eventually(t, fmt.Sprintf("the flight record of epoch %d", epoch), func() bool {
		fs = s.FlightState()
		return len(fs.Records) > 0 && fs.Records[len(fs.Records)-1].Epoch >= epoch
	})
	return fs
}

// waitDump waits until the flight recorder holds a dump for reason and
// returns the recorder state.
func waitDump(t *testing.T, s *Server, reason string) FlightSnapshot {
	t.Helper()
	var fs FlightSnapshot
	eventually(t, "a "+reason+" flight dump", func() bool {
		fs = s.FlightState()
		for _, d := range fs.Dumps {
			if d.Reason == reason {
				return true
			}
		}
		return false
	})
	return fs
}

// obsConfig is testConfig plus an enabled flight recorder.
func obsConfig() Config {
	cfg := testConfig()
	cfg.FlightRecorder = 8
	return cfg
}

func TestFlightRecorderEpochRecords(t *testing.T) {
	s, ts := newTestServer(t, obsConfig())
	join(t, ts.URL, "user1", 0.6, 0.4)
	ack := join(t, ts.URL, "user2", 0.2, 0.8)

	fs := waitRecords(t, s, ack.Epoch)
	if !fs.Enabled || fs.Size != 8 {
		t.Fatalf("flight state header = enabled %v size %d", fs.Enabled, fs.Size)
	}
	if len(fs.Records) < 2 {
		t.Fatalf("got %d records, want >= 2", len(fs.Records))
	}
	last := fs.Records[len(fs.Records)-1]
	if last.Epoch == 0 || last.Time == "" {
		t.Errorf("record missing epoch/time: %+v", last)
	}
	if last.Agents != 2 {
		t.Errorf("record agents = %d, want 2", last.Agents)
	}
	if last.AuditMode != "exact" {
		t.Errorf("record audit mode = %q, want exact (2 agents, default exact threshold)", last.AuditMode)
	}
	if !last.SI || !last.EF || !last.PE {
		t.Errorf("record verdict = %v/%v/%v, want all true", last.SI, last.EF, last.PE)
	}
	if last.TotalSeconds < 0 || last.ApplySeconds < 0 || last.AuditSeconds < 0 {
		t.Errorf("negative stage durations: %+v", last)
	}
	// Epochs are monotone through the ring.
	for i := 1; i < len(fs.Records); i++ {
		if fs.Records[i].Epoch <= fs.Records[i-1].Epoch {
			t.Errorf("record epochs not increasing: %d then %d", fs.Records[i-1].Epoch, fs.Records[i].Epoch)
		}
	}
	// Join accounting rides along.
	var joins int
	for _, rec := range fs.Records {
		joins += rec.Joins
	}
	if joins != 2 {
		t.Errorf("total joins across records = %d, want 2", joins)
	}
}

func TestFlightDumpOnAuditFailure(t *testing.T) {
	cfg := obsConfig()
	cfg.FlightDumpDir = t.TempDir()
	// Force the verdict bad after the real audit ran: Equation 13 rows
	// always pass a real audit, so failure must be injected.
	cfg.AuditHook = func(f *Fairness) { f.SI = false }

	reg := obs.NewRegistry()
	obs.Install(reg)
	defer obs.Install(nil)

	s, ts := newTestServer(t, cfg)
	join(t, ts.URL, "user1", 0.6, 0.4)

	fs := waitDump(t, s, "audit_failure")
	if len(fs.Dumps) != 1 {
		t.Fatalf("got %d dumps, want exactly 1 (re-arm suppresses repeats)", len(fs.Dumps))
	}
	d := fs.Dumps[0]
	if d.Reason != "audit_failure" {
		t.Fatalf("dump reason = %q, want audit_failure", d.Reason)
	}
	if d.File == "" {
		t.Fatal("dump file not written despite FlightDumpDir")
	}
	if len(d.Records) == 0 || d.Records[len(d.Records)-1].SI {
		t.Errorf("dump records do not show the failed verdict: %+v", d.Records)
	}
	if got := reg.Counter(MetricFlightDumps + `{reason="audit_failure"}`).Value(); got != 1 {
		t.Errorf("dump counter = %d, want 1", got)
	}
}

func TestFlightDumpOnLatencyBreach(t *testing.T) {
	cfg := obsConfig()
	cfg.Clock = &stepClock{now: t0, step: 10 * time.Millisecond}
	cfg.SLOEpochLatency = time.Millisecond // every stepped epoch breaches
	cfg.SLOWindow = 16
	s, ts := newTestServer(t, cfg)
	join(t, ts.URL, "user1", 0.6, 0.4)

	waitDump(t, s, "latency_breach")
	slo, ok := s.SLOStats()
	if !ok {
		t.Fatal("SLO configured but SLOStats reports none")
	}
	if slo.Bad == 0 {
		t.Errorf("SLO bad count = 0, want > 0 after forced breaches")
	}
	if slo.BurnRate <= 1 {
		t.Errorf("burn rate = %v, want > 1 with every epoch breaching", slo.BurnRate)
	}
}

func TestFlightDumpOnShedSpike(t *testing.T) {
	cfg := obsConfig()
	cfg.ShedSpike = 3
	s, ts := newTestServer(t, cfg)
	ack := join(t, ts.URL, "user1", 0.6, 0.4)

	// White-box: credit shed writes directly, then run another epoch to
	// evaluate the trigger (the real shed paths feed the same counter).
	// The first epoch must have recorded first: it swaps the shed
	// counter after replying.
	waitRecords(t, s, ack.Epoch)
	s.shedSinceEpoch.Add(5)
	join(t, ts.URL, "user2", 0.2, 0.8)

	fs := waitDump(t, s, "shed_spike")
	var spike *EpochRecord
	for i := range fs.Records {
		if fs.Records[i].Shed > 0 {
			spike = &fs.Records[i]
		}
	}
	if spike == nil || spike.Shed != 5 {
		t.Fatalf("no record carries the shed count; records = %+v", fs.Records)
	}
}

func TestNoShedSpikeDumpWhenDisabled(t *testing.T) {
	cfg := obsConfig()
	cfg.ShedSpike = -1 // negative disables the trigger
	s, ts := newTestServer(t, cfg)
	ack := join(t, ts.URL, "user1", 0.6, 0.4)
	waitRecords(t, s, ack.Epoch)
	s.shedSinceEpoch.Add(1000)
	ack = join(t, ts.URL, "user2", 0.2, 0.8)
	if dumps := waitRecords(t, s, ack.Epoch).Dumps; len(dumps) != 0 {
		t.Fatalf("disabled shed trigger still dumped: %+v", dumps)
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	s, ts := newTestServer(t, obsConfig())
	ack := join(t, ts.URL, "user1", 0.6, 0.4)
	waitRecords(t, s, ack.Epoch)

	status, body, hdr := do(t, http.MethodGet, ts.URL+"/debug/ref/flightrecorder", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/ref/flightrecorder = %d: %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var fs FlightSnapshot
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatalf("bad payload: %v", err)
	}
	if fs.Schema != obs.FlightSchema || !fs.Enabled || len(fs.Records) == 0 {
		t.Errorf("payload = schema %q enabled %v records %d", fs.Schema, fs.Enabled, len(fs.Records))
	}
	if fs.Records[0].Epoch == 0 {
		t.Errorf("first record = %+v, want a real epoch", fs.Records[0])
	}
}

func TestFlightRecorderEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	status, body, _ := do(t, http.MethodGet, ts.URL+"/debug/ref/flightrecorder", nil)
	if status != http.StatusOK {
		t.Fatalf("disabled recorder endpoint = %d", status)
	}
	var fs FlightSnapshot
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatalf("bad payload: %v", err)
	}
	if fs.Enabled || fs.Schema != obs.FlightSchema {
		t.Errorf("disabled payload = %+v, want enabled:false with schema", fs)
	}
}

func TestHealthzQuantilesAndSLO(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Install(reg)
	defer obs.Install(nil)

	cfg := testConfig()
	cfg.SLOEpochLatency = time.Second // generous: epochs pass
	_, ts := newTestServer(t, cfg)
	join(t, ts.URL, "user1", 0.6, 0.4)
	join(t, ts.URL, "user2", 0.2, 0.8)

	status, body, _ := do(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz = %d: %s", status, body)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("bad healthz: %v", err)
	}
	if h.EpochP50Seconds <= 0 || h.EpochP99Seconds <= 0 {
		t.Errorf("epoch quantiles = p50 %v p99 %v, want > 0 with epochs observed", h.EpochP50Seconds, h.EpochP99Seconds)
	}
	if h.EpochP99Seconds < h.EpochP50Seconds {
		t.Errorf("p99 %v < p50 %v", h.EpochP99Seconds, h.EpochP50Seconds)
	}
	if h.SLO == nil {
		t.Fatal("healthz missing slo section with an SLO configured")
	}
	if h.SLO.Name != "epoch_latency" || h.SLO.Good == 0 || h.SLO.Bad != 0 {
		t.Errorf("slo = %+v, want epoch_latency with good epochs only", h.SLO)
	}
	// Raw body carries the JSON keys CI asserts on.
	for _, key := range []string{`"epoch_p50_seconds"`, `"epoch_p99_seconds"`, `"slo"`, `"burn_rate"`} {
		if !bytes.Contains(body, []byte(key)) {
			t.Errorf("healthz body missing %s: %s", key, body)
		}
	}
}

// TestHTTPRequestCounters: every response is counted by status, on the
// snapshot path as on the encoding/json path, including a status outside
// the prebuilt names.
func TestHTTPRequestCounters(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Install(reg)
	defer obs.Install(nil)
	_, ts := newTestServer(t, testConfig())
	do(t, http.MethodGet, ts.URL+"/v1/allocation", nil)
	do(t, http.MethodGet, ts.URL+"/v1/allocation?agent=ghost", nil)
	do(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	writeHeader(httptest.NewRecorder(), http.StatusTeapot)
	for code, want := range map[int]int64{200: 2, 404: 1, 418: 1} {
		name := fmt.Sprintf(MetricHTTPRequests+`{code="%d"}`, code)
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestHealthzWithoutObservability(t *testing.T) {
	obs.Install(nil)
	_, ts := newTestServer(t, testConfig())
	join(t, ts.URL, "user1", 0.6, 0.4)
	status, body, _ := do(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("bad healthz: %v", err)
	}
	if h.EpochP50Seconds != 0 || h.SLO != nil {
		t.Errorf("healthz without registry/SLO = %+v, want zero quantiles and no slo", h)
	}
}

func TestEpochTraceSpans(t *testing.T) {
	tr := obs.NewTracer(256)
	obs.InstallTracer(tr)
	defer obs.InstallTracer(nil)

	_, ts := newTestServer(t, testConfig())
	join(t, ts.URL, "user1", 0.6, 0.4)
	join(t, ts.URL, "user2", 0.2, 0.8)

	// Validate via the Chrome export — the exact payload /debug/trace
	// serves — checking epoch→stage parent links. The epoch loop emits
	// an epoch's spans after replying, so wait for the second epoch's
	// root span (emitted after its stages) to land.
	var ch obs.ChromeTrace
	eventually(t, "two epochs of trace spans", func() bool {
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, tr); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		ch = obs.ChromeTrace{}
		if err := json.Unmarshal(buf.Bytes(), &ch); err != nil {
			t.Fatalf("trace is not valid Chrome JSON: %v", err)
		}
		epochs := 0
		for _, e := range ch.TraceEvents {
			if e.Name == "ref_serve_epoch" {
				epochs++
			}
		}
		return epochs >= 2
	})

	roots := map[float64]bool{} // span IDs of ref_serve_epoch events
	stages := map[string]int{}
	for _, e := range ch.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", e.Name, e.Ph)
		}
		if e.Name == "ref_serve_epoch" {
			roots[e.Args["span"]] = true
			if _, ok := e.Args["batch"]; !ok {
				t.Errorf("epoch root missing batch attr: %+v", e.Args)
			}
		}
	}
	if len(roots) < 2 {
		t.Fatalf("got %d epoch root spans, want >= 2", len(roots))
	}
	wantStages := []string{
		"ref_serve_epoch_apply", "ref_serve_epoch_allocate",
		"ref_serve_epoch_audit", "ref_serve_epoch_publish", "ref_serve_epoch_reply",
	}
	for _, e := range ch.TraceEvents {
		for _, name := range wantStages {
			if e.Name != name {
				continue
			}
			stages[name]++
			parent, ok := e.Args["parent"]
			if !ok {
				t.Errorf("stage %s has no parent link", name)
			} else if !roots[parent] {
				t.Errorf("stage %s parent %v is not an epoch root", name, parent)
			}
			if _, ok := e.Args["epoch"]; !ok {
				t.Errorf("stage %s missing epoch attr", name)
			}
		}
	}
	for _, name := range wantStages {
		if stages[name] < 2 {
			t.Errorf("stage %s emitted %d times, want >= 2 (one per epoch)", name, stages[name])
		}
	}
}

// runScriptInstrumented is runScript with the full observability stack
// enabled: registry, tracer, flight recorder, and SLO.
func runScriptInstrumented(t *testing.T) [][]byte {
	t.Helper()
	obs.Install(obs.NewRegistry())
	obs.InstallTracer(obs.NewTracer(1024))
	defer func() {
		obs.Install(nil)
		obs.InstallTracer(nil)
	}()

	cfg := testConfig()
	cfg.Clock = NewFakeClock(t0)
	cfg.MaxBatch = 1
	cfg.FlightRecorder = 16
	cfg.SLOEpochLatency = time.Second
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})

	var snapshots [][]byte
	for i, step := range mutationScript {
		status, b, _ := do(t, step.method, ts.URL+step.path, []byte(step.body))
		if status != http.StatusOK {
			t.Fatalf("step %d (%s %s): status %d: %s", i, step.method, step.path, status, b)
		}
		_, body, _ := do(t, http.MethodGet, ts.URL+"/v1/allocation", nil)
		snapshots = append(snapshots, body)
	}
	return snapshots
}

// TestDeterminismWithTracing: published snapshots must be bit-identical
// whether the observability stack is on or off — instrumentation never
// feeds back into allocation state.
func TestDeterminismWithTracing(t *testing.T) {
	obs.Install(nil)
	obs.InstallTracer(nil)
	plain := runScript(t, 1)
	traced := runScriptInstrumented(t)
	if len(plain) != len(traced) {
		t.Fatalf("%d vs %d snapshots", len(plain), len(traced))
	}
	for i := range plain {
		if !bytes.Equal(plain[i], traced[i]) {
			t.Errorf("snapshot %d differs with tracing on\n--- off ---\n%s\n--- on ---\n%s",
				i, plain[i], traced[i])
		}
	}
}
