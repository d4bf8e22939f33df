package replay

import (
	"bytes"
	"strings"
	"testing"

	"ref/internal/serve"
)

// smallCfg keeps white-box driver tests fast; the goldens and the
// determinism sweep run the default scale.
func smallCfg(seed int64) ScenarioConfig {
	return ScenarioConfig{Agents: 10, Epochs: 8, Seed: seed}
}

func mustRun(t *testing.T, name string, cfg ScenarioConfig, opts Options) *Result {
	t.Helper()
	res, err := RunScenario(name, cfg, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestReplayClean replays every built-in scenario at default scale and
// requires a spotless run: every snapshot passes the oracle re-audit,
// the Equation 13 differential, the delta-read reconstruction, and the
// fairness-verdict checks.
func TestReplayClean(t *testing.T) {
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := mustRun(t, name, ScenarioConfig{Seed: 1}, Options{})
			if res.Failed() {
				t.Fatalf("violations:\n%s", strings.Join(res.Violations, "\n"))
			}
			if res.Epochs == 0 || res.Checks == 0 {
				t.Fatalf("degenerate run: %+v", res)
			}
			if res.Epochs != len(res.EpochDigests) {
				t.Fatalf("Epochs=%d but %d digests", res.Epochs, len(res.EpochDigests))
			}
			for i, e := range res.EpochDigests {
				if e.Epoch != uint64(i+1) {
					t.Fatalf("digest %d is for epoch %d: epochs not contiguous", i, e.Epoch)
				}
			}
		})
	}
}

// TestReplayBitIdentical is the acceptance determinism sweep: each
// scenario replayed twice at par widths 1, 2, and 8 must produce the
// same golden text byte for byte — queue sequencing, the fake clock, and
// canonical snapshots leave scheduling no way in.
func TestReplayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep is the long half of the suite")
	}
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := ScenarioConfig{Seed: 2}
			var want string
			for _, par := range []int{1, 2, 8} {
				for run := 0; run < 2; run++ {
					res := mustRun(t, name, cfg, Options{Parallelism: par})
					got := res.GoldenText()
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("par=%d run=%d diverged:\n--- got ---\n%s--- want ---\n%s", par, run, got, want)
					}
				}
			}
		})
	}
}

// TestReplayShardInvariance: the digest must not depend on the agent
// table's stripe count — shard-partitioned batch applies and S-way
// merged snapshots are representation details.
func TestReplayShardInvariance(t *testing.T) {
	cfg := smallCfg(3)
	var want string
	for _, shards := range []int{1, 4, 32} {
		res := mustRun(t, ScenarioAdversarialChurn, cfg, Options{Shards: shards})
		if res.Failed() {
			t.Fatalf("shards=%d violations:\n%s", shards, strings.Join(res.Violations, "\n"))
		}
		if want == "" {
			want = res.GoldenText()
		} else if got := res.GoldenText(); got != want {
			t.Fatalf("shards=%d diverged:\n--- got ---\n%s--- want ---\n%s", shards, got, want)
		}
	}
}

// TestReplayFromFile: a generated trace serialized to JSONL and decoded
// back must replay to the same digest as the in-memory trace — the
// -trace file path is not a second dialect.
func TestReplayFromFile(t *testing.T) {
	tr, err := GenerateScenario(ScenarioDiurnal, smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Run(decoded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Digest != fromFile.Digest {
		t.Fatalf("file round trip changed the digest: %s vs %s", direct.Digest, fromFile.Digest)
	}
	if fromFile.Failed() {
		t.Fatalf("violations:\n%s", strings.Join(fromFile.Violations, "\n"))
	}
}

// TestReplaySampledParity shrinks the audit window below the churn-heavy
// scenario's population: the server's sampled verdict and the harness's
// pairwise oracle re-audit must both come back clean, and the sampled
// flag must be set exactly on the epochs whose population exceeds the
// window.
func TestReplaySampledParity(t *testing.T) {
	res := mustRun(t, ScenarioAdversarialChurn, ScenarioConfig{Seed: 5},
		Options{AuditSample: 8})
	if res.Failed() {
		t.Fatalf("violations:\n%s", strings.Join(res.Violations, "\n"))
	}
}

// TestReplayInjectedAuditFailure drives the anomaly path end to end: an
// SI verdict flipped through the AuditHook at one epoch must surface in
// that epoch's snapshot and trigger exactly the audit_failure
// flight-recorder dump — and must not trip any other invariant.
func TestReplayInjectedAuditFailure(t *testing.T) {
	res := mustRun(t, ScenarioSteady, smallCfg(6),
		Options{FlightRecorder: 8, InjectAuditFailureEpoch: 5})
	if res.Failed() {
		t.Fatalf("violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if res.FlightDumps == 0 {
		t.Fatal("no flight dumps recorded")
	}
}

// TestReplayCleanFlightRecorder: with the recorder on and no injected
// anomaly, a replay must capture zero dumps — the triggers do not
// misfire on healthy epochs.
func TestReplayCleanFlightRecorder(t *testing.T) {
	res := mustRun(t, ScenarioSteady, smallCfg(7), Options{FlightRecorder: 8})
	if res.Failed() {
		t.Fatalf("violations:\n%s", strings.Join(res.Violations, "\n"))
	}
	if res.FlightDumps != 0 {
		t.Fatalf("clean run captured %d dumps", res.FlightDumps)
	}
}

// TestReplayDeltaWindowPressure shrinks the changelog ring below the
// epoch count so the one-past-the-window cursor check exercises the
// Complete=false path on every late epoch.
func TestReplayDeltaWindowPressure(t *testing.T) {
	res := mustRun(t, ScenarioDiurnal, ScenarioConfig{Agents: 10, Epochs: 16, Seed: 8},
		Options{DeltaWindow: 4})
	if res.Failed() {
		t.Fatalf("violations:\n%s", strings.Join(res.Violations, "\n"))
	}
}

// TestHarnessFlagsBadVerdict is the harness-audits-the-auditor check:
// a doctored snapshot whose server verdict is wrong for the
// configuration must be flagged — the invariant checks are not
// vacuously green.
func TestHarnessFlagsBadVerdict(t *testing.T) {
	mirror := map[string]mirrorAgent{"a": {wire: serve.WireAgent{Name: "a", Alpha0: 1, Elasticities: []float64{1, 1}}}}

	newDriver := func(opts Options) *driver {
		return &driver{res: &Result{}, opts: opts, mirror: mirror}
	}

	d := newDriver(Options{})
	d.checkFairnessVerdict(&serve.Snapshot{Epoch: 1, Fairness: &serve.Fairness{SI: false, EF: true, PE: true}})
	if len(d.res.Violations) == 0 {
		t.Error("failed SI verdict not flagged")
	}

	d = newDriver(Options{})
	d.checkFairnessVerdict(&serve.Snapshot{Epoch: 1})
	if len(d.res.Violations) == 0 {
		t.Error("missing fairness verdict not flagged")
	}

	d = newDriver(Options{})
	d.checkFairnessVerdict(&serve.Snapshot{Epoch: 1, Fairness: &serve.Fairness{SI: true, EF: true, PE: true, Sampled: true}})
	if len(d.res.Violations) == 0 {
		t.Error("sampled verdict for a population inside the audit window not flagged")
	}

	two := map[string]mirrorAgent{"a": mirror["a"], "b": {wire: serve.WireAgent{Name: "b", Alpha0: 1, Elasticities: []float64{2, 1}}}}
	d = &driver{res: &Result{}, opts: Options{AuditSample: 1}, mirror: two}
	d.checkFairnessVerdict(&serve.Snapshot{Epoch: 1, Fairness: &serve.Fairness{SI: true, EF: true, PE: true}})
	if len(d.res.Violations) == 0 {
		t.Error("whole-table verdict for a population above the audit window not flagged")
	}

	d = newDriver(Options{InjectAuditFailureEpoch: 2})
	d.checkFairnessVerdict(&serve.Snapshot{Epoch: 2, Fairness: &serve.Fairness{SI: true, EF: true, PE: true}})
	if len(d.res.Violations) == 0 {
		t.Error("injected-epoch verdict that did NOT flip was not flagged")
	}
}
