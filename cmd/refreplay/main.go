// Command refreplay is the deterministic trace-replay regression
// driver: it pushes tenant arrival/departure/re-declaration traces —
// synthesized by the seeded built-in scenario generators or loaded from
// a ref/trace/v1 file — through the real allocation server on a fake
// clock, re-auditing every published snapshot with the §4 fairness
// oracles and checking the online invariants (epoch monotonicity,
// delta-read consistency, Equation 13 differential, sampled-audit
// parity) inline. Replays are bit-identical across runs, worker-pool
// widths, and shard counts; the run digest printed per scenario is the
// value the committed goldens pin.
//
//	refreplay -scenario all -seed 1 -run-manifest replay.json
//	refreplay -scenario flashcrowd -agents 96 -epochs 60 -golden
//	refreplay -scenario credit-cycle -half-life 10s -golden
//	refreplay -trace trace.jsonl -audit-sample 16
//
// Exactly one of -scenario or -trace selects the input. -half-life boots
// the replayed server with the time-aware credit ledger and arms the
// replay driver's mirror ledger: every published budget, rollup, and
// long-run fairness oracle is re-derived independently from the snapshot
// stream and any divergence is a violation. Any invariant violation makes
// the exit status nonzero; the manifest's `replay` section carries each
// scenario's digest and violation list so CI can assert emptiness with a
// JSON query instead of scraping stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ref"
	"ref/internal/cliutil"
)

func main() {
	var (
		scenario    = flag.String("scenario", "", "built-in scenario to replay, or \"all\" (one of: "+scenarioList()+")")
		tracePath   = flag.String("trace", "", "replay a ref/trace/v1 file (JSON or JSONL) instead of a built-in scenario")
		agents      = flag.Int("agents", 0, "scenario population scale (0 = default)")
		epochs      = flag.Int("epochs", 0, "scenario length in ticks (0 = default)")
		queueCount  = flag.Int("queue-count", 0, "static queues declared by queue-aware scenarios (0 = default, negative disables; others ignore it)")
		shards      = flag.Int("shards", 0, "agent-table shards (0 = serve default)")
		deltaWindow = flag.Int("delta-window", 0, "changelog ring depth for ?since= reads (0 = serve default)")
		auditSample = flag.Int("audit-sample", 0, "server audit window; populations above it get a sampled verdict (0 = serve default)")
		flightRec   = flag.Int("flight-recorder", 0, "epoch flight-recorder ring size (0 = off)")
		injectFail  = flag.Uint64("inject-audit-failure", 0, "flip the SI verdict at this epoch to exercise the anomaly path (0 = off)")
		maxUlps     = flag.Int64("max-ulps", 0, "Equation 13 differential tolerance in ulps (0 = default)")
		golden      = flag.Bool("golden", false, "print the full golden text (per-epoch digests), not just the summary")

		seed        int64
		parallelism int
		manifestOut string
		credit      cliutil.CreditFlags
	)
	cliutil.SeedVar(flag.CommandLine, &seed, "scenario generator seed")
	cliutil.ParallelismVar(flag.CommandLine, &parallelism)
	cliutil.RunManifestVar(flag.CommandLine, &manifestOut)
	cliutil.CreditVar(flag.CommandLine, &credit)
	flag.Parse()
	if err := credit.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "refreplay: %v\n", err)
		os.Exit(1)
	}
	if err := run(*scenario, *tracePath, seed, *agents, *epochs, *queueCount, ref.ReplayOptions{
		Parallelism:             parallelism,
		Shards:                  *shards,
		DeltaWindow:             *deltaWindow,
		AuditSample:             *auditSample,
		FlightRecorder:          *flightRec,
		InjectAuditFailureEpoch: *injectFail,
		MaxUlps:                 *maxUlps,
		CreditHalfLife:          credit.HalfLife,
		CreditMinBudget:         credit.MinBudget,
		CreditMaxBudget:         credit.MaxBudget,
	}, *golden, manifestOut); err != nil {
		fmt.Fprintf(os.Stderr, "refreplay: %v\n", err)
		os.Exit(1)
	}
}

func scenarioList() string {
	s := ""
	for i, name := range ref.ReplayScenarios() {
		if i > 0 {
			s += ", "
		}
		s += name
	}
	return s
}

func run(scenario, tracePath string, seed int64, agents, epochs, queueCount int,
	opts ref.ReplayOptions, golden bool, manifestOut string) error {
	if (scenario == "") == (tracePath == "") {
		return fmt.Errorf("need exactly one of -scenario or -trace")
	}

	var manifest *ref.RunManifest
	if manifestOut != "" {
		manifest = ref.NewRunManifest("refreplay", os.Args[1:])
		manifest.Parallelism = ref.ResolveParallelism(opts.Parallelism)
	}

	// Assemble the work list: named scenarios generate their trace on
	// the fly; -trace decodes one file.
	type job struct {
		name  string
		trace *ref.ReplayTrace
	}
	var jobs []job
	switch {
	case tracePath != "":
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		tr, err := ref.DecodeReplayTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", tracePath, err)
		}
		name := tr.Name
		if name == "" {
			name = tracePath
		}
		jobs = append(jobs, job{name, tr})
	case scenario == "all":
		for _, name := range ref.ReplayScenarios() {
			jobs = append(jobs, job{name: name})
		}
	default:
		jobs = append(jobs, job{name: scenario})
	}

	cfg := ref.ReplayScenarioConfig{Agents: agents, Epochs: epochs, Seed: seed, Queues: queueCount}
	failed := 0
	for _, j := range jobs {
		start := time.Now()
		var res *ref.ReplayResult
		var err error
		if j.trace != nil {
			res, err = ref.RunReplay(j.trace, opts)
		} else {
			res, err = ref.RunReplayScenario(j.name, cfg, opts)
		}
		secs := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if manifest != nil {
			manifest.RecordReplay(ref.ReplayRecord{
				Name:        res.Trace,
				Seed:        res.Seed,
				Events:      res.Events,
				Epochs:      res.Epochs,
				FinalAgents: res.FinalAgents,
				PeakAgents:  res.PeakAgents,
				Checks:      res.Checks,
				Digest:      res.Digest,
				Violations:  append([]string{}, res.Violations...),
				FlightDumps: res.FlightDumps,
				Seconds:     secs,
			})
			var runErr error
			if res.Failed() {
				runErr = fmt.Errorf("%d invariant violations", len(res.Violations))
			}
			manifest.Record("replay:"+res.Trace, secs, runErr)
		}
		if golden {
			fmt.Print(res.GoldenText())
		}
		verdict := "ok"
		if res.Failed() {
			verdict = fmt.Sprintf("FAIL (%d violations)", len(res.Violations))
			failed++
		}
		fmt.Printf("refreplay: %-21s seed=%-3d events=%-5d epochs=%-3d agents=%d/%d checks=%-5d %.2fs digest=%s %s\n",
			res.Trace, res.Seed, res.Events, res.Epochs, res.FinalAgents, res.PeakAgents,
			res.Checks, secs, res.Digest[:16], verdict)
		for _, v := range res.Violations {
			fmt.Printf("refreplay:   violation: %s\n", v)
		}
	}

	if manifest != nil {
		if err := manifest.WriteFile(manifestOut); err != nil {
			return err
		}
		fmt.Printf("refreplay: run manifest written to %s\n", manifestOut)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d replays violated invariants", failed, len(jobs))
	}
	return nil
}
