// Command refcheck runs the property-based correctness harness: N seeded
// random economies checked against every mechanism's invariant oracles —
// the paper's SI/EF/PE theorems, feasibility, CEEI and solver differential
// references, SPL gain bounds, and metamorphic symmetries. It prints any
// violations as minimized, ready-to-paste Go counterexamples and exits
// nonzero.
//
//	refcheck -trials 2000 -seed 1
//	refcheck -trials 1 -seed 1 -trial-offset 1234   # replay one failing trial
//	refcheck -trials 0 -solver-trials -1 -hier-trials -1 -credit-trials 500
//
// -trials also sizes the market stream, which checks on as many other
// economies that a pass of the market certificate (the allocation
// service's audit) implies the pairwise SI/EF/PE audits.
//
// -credit-trials runs the repeated-game stream: each trial replays a
// random economy through a multi-round history under the time-aware
// credit ledger (random half-life, clamps, and settlement intervals),
// checking the weighted SI/EF audits every round and the long-run credit
// oracles over the whole history.
//
// -metrics-addr serves live Prometheus metrics for the duration of the
// run; -run-manifest writes a structured JSON record; -cx-out writes the
// shrunk counterexamples to a file (CI uploads it as an artifact on
// failure).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ref"
	"ref/internal/cliutil"
)

func main() {
	var (
		trials       = flag.Int("trials", 2000, "random economies to check against the closed-form mechanisms")
		trialOffset  = flag.Int("trial-offset", 0, "first trial index (replay a specific failing trial without the run before it)")
		maxAgents    = flag.Int("max-agents", 0, "max agents per economy (0 = default 64)")
		maxResources = flag.Int("max-resources", 0, "max resources per economy (0 = default 8)")
		solverTrials = flag.Int("solver-trials", 0, "trials for the iterative-solver subjects (0 = trials/50, negative disables)")
		hierTrials   = flag.Int("hier-trials", 0, "trials for the hierarchical queue-tree stream (0 = trials, negative disables)")
		simTrials    = flag.Int("sim-trials", 0, "trials whose economies are sim-backed 3-resource profile fits (0 disables)")
		simAccesses  = flag.Int("sim-accesses", 0, "per-configuration access budget for sim-backed profiling (0 = default 2000)")
		creditTrials = flag.Int("credit-trials", 0, "multi-round credit-ledger economies checked against the weighted and long-run oracles (0 disables)")
		creditRounds = flag.Int("credit-rounds", 0, "settlement rounds per credit trial (0 = default 12)")
		noShrink     = flag.Bool("no-shrink", false, "skip counterexample minimization")
		cxOut        = flag.String("cx-out", "", "write shrunk counterexamples (Go literals) to this path on failure")

		seed        int64
		parallelism int
		metricsAddr string
		manifestOut string
	)
	cliutil.SeedVar(flag.CommandLine, &seed, "base seed; every trial's economy derives deterministically from it")
	cliutil.ParallelismVar(flag.CommandLine, &parallelism)
	cliutil.MetricsAddrVar(flag.CommandLine, &metricsAddr)
	cliutil.RunManifestVar(flag.CommandLine, &manifestOut)
	flag.Parse()
	if err := run(*trials, seed, *trialOffset, *maxAgents, *maxResources, *solverTrials, *hierTrials,
		*simTrials, *simAccesses, *creditTrials, *creditRounds, parallelism, *noShrink,
		metricsAddr, manifestOut, *cxOut); err != nil {
		fmt.Fprintln(os.Stderr, "refcheck:", err)
		os.Exit(1)
	}
}

func run(trials int, seed int64, trialOffset, maxAgents, maxResources, solverTrials, hierTrials,
	simTrials, simAccesses, creditTrials, creditRounds, parallelism int, noShrink bool,
	metricsAddr, manifestOut, cxOut string) error {
	reg := ref.NewMetricsRegistry()
	ref.InstallMetrics(reg)
	var manifest *ref.RunManifest
	if manifestOut != "" {
		manifest = ref.NewRunManifest("refcheck", os.Args[1:])
		manifest.Parallelism = ref.ResolveParallelism(parallelism)
	}
	if metricsAddr != "" {
		srv, err := ref.ServeMetrics(metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("serving metrics on http://%s/metrics\n", srv.Addr())
	}

	cfg := ref.PropertyCheckConfig{
		Trials:       trials,
		Seed:         seed,
		TrialOffset:  trialOffset,
		MaxAgents:    maxAgents,
		MaxResources: maxResources,
		SolverTrials: solverTrials,
		HierTrials:   hierTrials,
		SimTrials:    simTrials,
		SimAccesses:  simAccesses,
		CreditTrials: creditTrials,
		CreditRounds: creditRounds,
		Parallelism:  parallelism,
		NoShrink:     noShrink,
	}
	start := time.Now()
	sum, err := ref.RunPropertyChecks(cfg)
	elapsed := time.Since(start)
	if manifest != nil {
		manifest.Record("check", elapsed.Seconds(), err)
		if werr := manifest.WriteFile(manifestOut); werr != nil {
			fmt.Fprintln(os.Stderr, "refcheck: manifest:", werr)
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("refcheck: %d fast + %d solver + %d sim + %d hier + %d credit trials, %d oracle evaluations in %s (seed %d)\n",
		sum.Trials, sum.SolverTrials, sum.SimTrials, sum.HierTrials, sum.CreditTrials,
		sum.Checks, elapsed.Round(time.Millisecond), seed)
	if sum.OK() {
		fmt.Println("refcheck: all properties hold")
		return nil
	}

	var cx strings.Builder
	for i, f := range sum.Failures {
		fmt.Printf("\nFAIL %d/%d: %s\n", i+1, len(sum.Failures), f)
		for _, finding := range f.Findings {
			fmt.Println("  " + finding)
		}
		if f.ShrunkTree != nil {
			// Hier-stream failures shrink to a queue-tree economy; replay
			// them by pinning the hier stream to the failing trial.
			fmt.Printf("  replay: refcheck -trials 1 -hier-trials 1 -seed %d -trial-offset %d\n", seed, f.Trial)
			fmt.Printf("  shrunk counterexample (%d agents, %d queues):\n%#v\n",
				f.ShrunkTree.NumAgents(), len(f.ShrunkTree.Cfg.Queues), *f.ShrunkTree)
			fmt.Fprintf(&cx, "// %s\n// findings: %s\n%#v\n\n", f, strings.Join(f.Findings, "; "), *f.ShrunkTree)
			continue
		}
		if f.Stream == "credit" {
			// Credit-stream failures need the credit stream alone: the
			// trial's economy, ledger parameters, and intervals all derive
			// from (seed, trial).
			fmt.Printf("  replay: refcheck -trials 0 -solver-trials -1 -hier-trials -1 -credit-trials 1 -seed %d -trial-offset %d\n",
				seed, f.Trial)
		} else {
			fmt.Printf("  replay: refcheck -trials 1 -seed %d -trial-offset %d\n", seed, f.Trial)
		}
		fmt.Printf("  shrunk counterexample (%d agents, %d resources):\n%#v\n",
			f.Shrunk.NumAgents(), f.Shrunk.NumResources(), f.Shrunk)
		fmt.Fprintf(&cx, "// %s\n// findings: %s\n%#v\n\n", f, strings.Join(f.Findings, "; "), f.Shrunk)
	}
	if cxOut != "" {
		if werr := os.WriteFile(cxOut, []byte(cx.String()), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "refcheck: cx-out:", werr)
		} else {
			fmt.Printf("\ncounterexamples written to %s\n", cxOut)
		}
	}
	return fmt.Errorf("%d invariant violation(s)", len(sum.Failures))
}
