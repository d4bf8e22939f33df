// Package check is the repo's property-based correctness harness. The REF
// paper's contribution is a set of provable game-theoretic properties —
// sharing incentives (Theorem 4), envy-freeness (Theorem 5), Pareto
// efficiency (Theorem 6), and strategy-proofness in the large (Theorem 7) —
// and this package exercises them over the whole preference space instead
// of the handful of fitted SPEC workloads:
//
//   - gen.go draws seeded random economies — Cobb-Douglas and Leontief —
//     spanning the degenerate corners (zero elasticities, near-equal
//     agents, one dominant agent, denormalized α) with deterministic
//     derivation via trace.DeriveSeed, so every failure is reproducible
//     from (seed, trial) alone;
//   - oracle.go holds the invariant oracles: the fair audits (SI, EF, PE),
//     budget/capacity feasibility, a CEEI differential reference, an
//     iterative-solver differential reference for Equation 13's optimality,
//     SPL deviation-gain bounds, and metamorphic properties (permutation
//     symmetry, resource-unit rescaling, elasticity-scale invariance);
//   - market.go cross-validates the market certificate the allocation
//     service audits with against the pairwise SI/EF/PE audits;
//   - shrink.go minimizes a failing economy — fewer agents, fewer
//     resources, rounder numbers — and renders it as a ready-to-paste Go
//     literal;
//   - this file runs N trials across all mechanisms in parallel on the
//     internal/par pool and aggregates failures.
//
// The cmd/refcheck CLI fronts Run; go test wires bounded trial counts; the
// cobb/opt/mech fuzz targets reuse the same generators and oracles.
package check

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"ref/internal/obs"
	"ref/internal/par"
	"ref/internal/trace"
)

// ErrBadConfig reports malformed harness configuration.
var ErrBadConfig = errors.New("check: bad config")

// Config tunes one property-check run.
type Config struct {
	// Trials is the number of random economies checked against the fast
	// (closed-form) mechanisms, and again (other economies) in the market
	// stream, which cross-validates the market certificate against the
	// pairwise audits (see MarketSubjects).
	Trials int
	// Seed is the base seed every trial's economy is derived from.
	Seed int64
	// TrialOffset shifts the trial index range to [TrialOffset,
	// TrialOffset+Trials), so a single failing trial can be reproduced
	// exactly without re-running everything before it.
	TrialOffset int
	// MaxAgents and MaxResources bound generated economy sizes. Zero
	// selects the defaults (64 agents, 8 resources).
	MaxAgents, MaxResources int
	// SolverTrials is the number of trials for the iterative-solver
	// subjects (MaxWelfareFair, EqualSlowdown, and the Equation 13
	// differential), which are orders of magnitude slower than the closed
	// forms. Zero derives Trials/50 (at least 1 when Trials > 0); negative
	// disables the solver stream.
	SolverTrials int
	// SimTrials is the number of trials for the sim-backed stream, whose
	// economies are real 3-resource profile→fit products (see GenerateSim)
	// checked against the closed-form subjects. Zero disables the stream —
	// the first trial pays for platform simulations.
	SimTrials int
	// SimAccesses is the per-configuration access budget of the sim-backed
	// stream's profiling sweeps. Zero selects DefaultSimAccesses.
	SimAccesses int
	// HierTrials is the number of trials for the hierarchical stream:
	// random queue trees (see GenerateTree) checked against the
	// internal/hier invariants — quota floors, subtree SI/EF, reclaim
	// order preservation, and the degenerate-tree ulp bound. Zero
	// derives Trials; negative disables the stream.
	HierTrials int
	// CreditTrials is the number of trials for the credit stream: random
	// multi-round economies replayed under the decaying-ledger weighted
	// mechanism and checked against the weighted per-round audits plus the
	// long-run credit oracles (see RunCreditEconomy). Zero disables the
	// stream.
	CreditTrials int
	// CreditRounds is the history length of each credit trial. Zero
	// selects DefaultCreditRounds.
	CreditRounds int
	// Parallelism bounds the worker pool; zero selects the default
	// ($REF_PARALLELISM, else GOMAXPROCS). Results are bit-identical at
	// any width.
	Parallelism int
	// NoShrink skips counterexample minimization on failure.
	NoShrink bool
	// Subjects overrides the checked mechanism/oracle pairs. Nil selects
	// FastSubjects for the trial stream and SolverSubjects for the solver
	// stream; non-nil replaces the trial stream and disables the solver
	// stream (used by tests to hunt mutants).
	Subjects []Subject
}

// solverGen bounds the iterative-solver stream to economies the penalty
// method solves in milliseconds.
const (
	solverMaxAgents    = 6
	solverMaxResources = 3
)

// DefaultSimAccesses keeps the sim-backed stream's one-time profiling cost
// to a few seconds per catalog workload on the coarse SimSpec grid.
const DefaultSimAccesses = 2000

func (c *Config) normalize() error {
	if c.Trials < 0 {
		return fmt.Errorf("%w: Trials = %d", ErrBadConfig, c.Trials)
	}
	if c.MaxAgents == 0 {
		c.MaxAgents = DefaultMaxAgents
	}
	if c.MaxResources == 0 {
		c.MaxResources = DefaultMaxResources
	}
	if c.MaxAgents < 2 || c.MaxResources < 2 {
		return fmt.Errorf("%w: need ≥ 2 agents and ≥ 2 resources (got %d, %d)",
			ErrBadConfig, c.MaxAgents, c.MaxResources)
	}
	if c.SolverTrials == 0 && c.Subjects == nil {
		c.SolverTrials = c.Trials / 50
		if c.SolverTrials == 0 && c.Trials > 0 {
			c.SolverTrials = 1
		}
	}
	if c.SolverTrials < 0 || c.Subjects != nil {
		c.SolverTrials = 0
	}
	if c.SimTrials < 0 || c.Subjects != nil {
		c.SimTrials = 0
	}
	if c.HierTrials == 0 && c.Subjects == nil {
		c.HierTrials = c.Trials
	}
	if c.HierTrials < 0 || c.Subjects != nil {
		c.HierTrials = 0
	}
	if c.CreditTrials < 0 || c.Subjects != nil {
		c.CreditTrials = 0
	}
	if c.CreditRounds < 0 {
		return fmt.Errorf("%w: CreditRounds = %d", ErrBadConfig, c.CreditRounds)
	}
	if c.SimAccesses == 0 {
		c.SimAccesses = DefaultSimAccesses
	}
	if c.SimAccesses < 0 {
		return fmt.Errorf("%w: SimAccesses = %d", ErrBadConfig, c.SimAccesses)
	}
	return nil
}

// Failure is one violated invariant, with its reproduction coordinates and
// (unless shrinking was disabled) a minimized counterexample.
type Failure struct {
	// Mechanism and Oracle identify what failed.
	Mechanism, Oracle string
	// Trial is the failing trial index; Stream names the stream ("fast",
	// "market", "solver", "sim", "hier", or "credit").
	Trial  int
	Stream string
	// EconomySeed reproduces the economy directly:
	// rand.New(rand.NewSource(EconomySeed)) fed to Generate.
	EconomySeed int64
	// Findings describes each violation instance.
	Findings []string
	// Economy is the original failing economy.
	Economy Economy
	// Shrunk is the minimized counterexample (equal to Economy when
	// shrinking is disabled or no reduction survived).
	Shrunk Economy
	// Tree and ShrunkTree are the hierarchical stream's counterparts of
	// Economy and Shrunk; nil for the flat streams.
	Tree, ShrunkTree *TreeEconomy
}

// String renders the failure header.
func (f Failure) String() string {
	return fmt.Sprintf("%s / %s: trial %d (%s stream, economy seed %d): %d finding(s)",
		f.Mechanism, f.Oracle, f.Trial, f.Stream, f.EconomySeed, len(f.Findings))
}

// Summary aggregates one Run.
type Summary struct {
	// Trials, SolverTrials, SimTrials, HierTrials, and CreditTrials count
	// executed trials per stream.
	Trials, SolverTrials, SimTrials, HierTrials, CreditTrials int
	// Checks counts individual oracle evaluations.
	Checks int64
	// Failures holds every violated invariant, ordered by stream then
	// trial index then subject order — deterministic at any parallelism.
	Failures []Failure
}

// OK reports whether no invariant was violated.
func (s *Summary) OK() bool { return len(s.Failures) == 0 }

// economySeed derives the deterministic per-trial seed for a stream.
func economySeed(base int64, stream string, trial int) int64 {
	return trace.DeriveSeed(base, "check", stream, strconv.Itoa(trial))
}

// Run checks Config.Trials random economies against every subject and
// returns the aggregated summary. Trials run concurrently on the shared
// worker pool; each trial derives its own rand source, so the summary is
// bit-identical at any parallelism.
func Run(cfg Config) (*Summary, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sum := &Summary{Trials: cfg.Trials, SolverTrials: cfg.SolverTrials, SimTrials: cfg.SimTrials,
		HierTrials: cfg.HierTrials, CreditTrials: cfg.CreditTrials}
	var checks atomic.Int64

	fastSubjects := cfg.Subjects
	if fastSubjects == nil {
		fastSubjects = FastSubjects()
	}
	fastGen := GenConfig{MaxAgents: cfg.MaxAgents, MaxResources: cfg.MaxResources}
	fails, err := runStream(cfg, "fast", cfg.Trials, fastSubjects, synthGen(fastGen), &checks)
	if err != nil {
		return nil, err
	}
	sum.Failures = append(sum.Failures, fails...)

	if cfg.Subjects == nil {
		fails, err := runStream(cfg, "market", cfg.Trials, MarketSubjects(), synthGen(fastGen), &checks)
		if err != nil {
			return nil, err
		}
		sum.Failures = append(sum.Failures, fails...)
	}

	if cfg.SolverTrials > 0 {
		solverGen := GenConfig{
			MaxAgents:    min(cfg.MaxAgents, solverMaxAgents),
			MaxResources: min(cfg.MaxResources, solverMaxResources),
		}
		fails, err := runStream(cfg, "solver", cfg.SolverTrials, SolverSubjects(), synthGen(solverGen), &checks)
		if err != nil {
			return nil, err
		}
		sum.Failures = append(sum.Failures, fails...)
	}

	if cfg.SimTrials > 0 {
		simGen := func(rng *rand.Rand) (Economy, error) {
			return GenerateSim(rng, cfg.SimAccesses)
		}
		fails, err := runStream(cfg, "sim", cfg.SimTrials, FastSubjects(), simGen, &checks)
		if err != nil {
			return nil, err
		}
		sum.Failures = append(sum.Failures, fails...)
	}
	if cfg.HierTrials > 0 {
		fails, err := runHierStream(cfg, &checks)
		if err != nil {
			return nil, err
		}
		sum.Failures = append(sum.Failures, fails...)
	}
	if cfg.CreditTrials > 0 {
		fails, err := runCreditStream(cfg, &checks)
		if err != nil {
			return nil, err
		}
		sum.Failures = append(sum.Failures, fails...)
	}
	sum.Checks = checks.Load()
	return sum, nil
}

// runHierStream fans the hierarchical trials out on the worker pool:
// each trial draws a random queue tree and checks every HierOracle,
// shrinking tree counterexamples with ShrinkTree.
func runHierStream(cfg Config, checks *atomic.Int64) ([]Failure, error) {
	oracles := HierOracles()
	gen := GenConfig{MaxAgents: min(cfg.MaxAgents, treeMaxAgents),
		MaxResources: min(cfg.MaxResources, treeMaxResources)}
	perTrial := make([][]Failure, cfg.HierTrials)
	err := par.ForEach(cfg.HierTrials, cfg.Parallelism, func(i int) error {
		trial := cfg.TrialOffset + i
		seed := economySeed(cfg.Seed, "hier", trial)
		te := GenerateTree(rand.New(rand.NewSource(seed)), gen)
		start := time.Now()
		for _, o := range oracles {
			o := o
			checks.Add(1)
			findings := o.Check(te)
			if len(findings) == 0 {
				continue
			}
			f := Failure{
				Mechanism:   "hier-tree",
				Oracle:      o.Name,
				Trial:       trial,
				Stream:      "hier",
				EconomySeed: seed,
				Findings:    findings,
				Tree:        &te,
			}
			shrunk := te
			if !cfg.NoShrink {
				shrunk = ShrinkTree(te, func(cand TreeEconomy) bool {
					return len(o.Check(cand)) > 0
				})
			}
			f.ShrunkTree = &shrunk
			perTrial[i] = append(perTrial[i], f)
			obs.Inc(fmt.Sprintf("ref_check_violations_total{mechanism=%q,oracle=%q}", "hier-tree", o.Name))
		}
		obs.Inc(`ref_check_trials_total{stream="hier"}`)
		obs.Observe("ref_check_trial_seconds", time.Since(start).Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Failure
	for _, fs := range perTrial {
		out = append(out, fs...)
	}
	return out, nil
}

// synthGen adapts a synthetic GenConfig to runStream's generator hook.
func synthGen(gen GenConfig) func(*rand.Rand) (Economy, error) {
	return func(rng *rand.Rand) (Economy, error) {
		return Generate(rng, gen), nil
	}
}

// runStream fans one stream's trials out on the worker pool and collects
// failures in trial order. The generator hook turns each trial's derived
// rand source into an economy — synthetic preference classes or sim-backed
// fits — and must itself be deterministic in the rng.
func runStream(cfg Config, stream string, trials int, subjects []Subject, gen func(*rand.Rand) (Economy, error), checks *atomic.Int64) ([]Failure, error) {
	if trials <= 0 || len(subjects) == 0 {
		return nil, nil
	}
	perTrial := make([][]Failure, trials)
	err := par.ForEach(trials, cfg.Parallelism, func(i int) error {
		trial := cfg.TrialOffset + i
		seed := economySeed(cfg.Seed, stream, trial)
		ec, err := gen(rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		start := time.Now()
		for _, sub := range subjects {
			fail := func(oracle string, findings []string, keep func(Economy) bool) {
				f := Failure{
					Mechanism:   sub.Mechanism.Name(),
					Oracle:      oracle,
					Trial:       trial,
					Stream:      stream,
					EconomySeed: seed,
					Findings:    findings,
					Economy:     ec,
					Shrunk:      ec,
				}
				if !cfg.NoShrink {
					f.Shrunk = Shrink(ec, keep)
				}
				perTrial[i] = append(perTrial[i], f)
				obs.Inc(fmt.Sprintf("ref_check_violations_total{mechanism=%q,oracle=%q}", sub.Mechanism.Name(), oracle))
			}
			checks.Add(1)
			x, err := sub.Mechanism.Allocate(ec.Agents, ec.Cap)
			if err != nil {
				fail("allocate", []string{err.Error()}, func(cand Economy) bool {
					_, e := sub.Mechanism.Allocate(cand.Agents, cand.Cap)
					return e != nil
				})
				continue
			}
			for _, o := range sub.Oracles {
				o := o
				checks.Add(1)
				findings := o.Check(ec, sub.Mechanism, x)
				if len(findings) == 0 {
					continue
				}
				fail(o.Name, findings, func(cand Economy) bool {
					cx, e := sub.Mechanism.Allocate(cand.Agents, cand.Cap)
					if e != nil {
						return false // different failure mode; don't chase it
					}
					return len(o.Check(cand, sub.Mechanism, cx)) > 0
				})
			}
		}
		obs.Inc(fmt.Sprintf("ref_check_trials_total{stream=%q}", stream))
		obs.Observe("ref_check_trial_seconds", time.Since(start).Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Failure
	for _, fs := range perTrial {
		out = append(out, fs...)
	}
	return out, nil
}

// ReproduceEconomy regenerates the economy of one recorded failure from its
// seed, for tests and bug reports.
func ReproduceEconomy(econSeed int64, gen GenConfig) Economy {
	return Generate(rand.New(rand.NewSource(econSeed)), gen)
}

// logUtilAt returns Σ_r α_r log x_r (−Inf when a needed resource is zero),
// the log-space utility every differential oracle compares in. Mirrors the
// internal/opt objective exactly.
func logUtilAt(alpha, x []float64) float64 {
	var s float64
	for r, a := range alpha {
		if a == 0 {
			continue
		}
		if x[r] <= 0 {
			return math.Inf(-1)
		}
		s += a * math.Log(x[r])
	}
	return s
}
