// Package serve is the online allocation service: REF as a long-lived
// daemon instead of a one-shot CLI. Tenants join, leave, and re-declare
// Cobb-Douglas preferences over HTTP; writes are coalesced into
// **allocation epochs** — the server collects mutations for a batching
// window (or until a maximum batch size, whichever comes first), applies
// the batch to the agent set, advances the Equation 13 mechanism, audits
// the result with the §4 fairness oracles, and atomically publishes an
// immutable versioned Snapshot that readers access lock-free.
//
// Epochs are **incremental**: the agent set lives in core's sharded
// agent table (striped by name hash), whose shards keep their members'
// weights in contiguous canonical-order columns under compensated
// running sums of the rescaled elasticity vectors — the only global
// state Equation 13 needs. A batch of Δ mutations costs O(Δ·R)
// regardless of the total population, because each join/leave/update is
// an O(R) delta against its shard's sums and any agent's allocation row
// is an O(R) read from the combined sums. The table's fixed resummation
// policy (an exact resummation on a fixed epoch cadence, or sooner when
// accumulated churn outruns the drift tolerance) bounds floating-point
// drift so published rows stay within 1 ulp of a from-scratch recompute;
// the differential tests in internal/core pin that bound.
//
// Snapshots adapt to scale: below InlineSnapshotAgents the snapshot
// materializes the full agent list and allocation matrix (small servers
// behave exactly as before); above it the snapshot elides them
// (AgentsElided/AgentCount) and clients read point allocations
// (GET /v1/allocation?agent=X) or deltas (?since=EPOCH) answered from
// the table without serializing millions of entries.
//
// Every epoch audits the published rows with the market certificate:
// Equation 13 is the competitive equilibrium at prices p_r = S_r/C_r, so
// an agent whose row is its Cobb-Douglas demand at its budget (O(R) to
// check) is certified SI, and EF and PE against every other agent of its
// market. The audit covers the batch's touched agents plus a rotating
// window of AuditSample agents; while the population fits in the window
// it covers everyone, also checks market clearing, and is not sampled.
//
// Robustness is part of the contract:
//
//   - per-request deadlines (mutations give up with a typed
//     deadline_exceeded error when their epoch does not publish in time);
//   - bounded request bodies and a typed JSON error envelope on every
//     failure path;
//   - load shedding: when the mutation queue is full, writes are refused
//     immediately with 503 + Retry-After instead of queueing unboundedly;
//   - graceful drain: Close stops new mutations, flushes everything
//     already accepted through one final epoch, and replies to every
//     in-flight request before returning.
//
// Everything is instrumented through internal/obs: epoch latency and
// batch-size histograms, shed counters, and live snapshot-epoch/agent
// gauges (see the Metric* constants).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/hier"
	"ref/internal/obs"
	"ref/internal/par"
	"ref/internal/platform"
)

// Metric names published on the installed obs registry.
const (
	// MetricEpochs counts published allocation epochs.
	MetricEpochs = "ref_serve_epochs_total"
	// MetricEpochSeconds is the epoch computation-latency histogram
	// (mutation apply + Equation 13 + fairness audit + publish).
	MetricEpochSeconds = "ref_serve_epoch_seconds"
	// MetricBatchSize is the mutations-per-epoch histogram.
	MetricBatchSize = "ref_serve_epoch_batch_size"
	// MetricEpochGauge is the live snapshot's epoch number.
	MetricEpochGauge = "ref_serve_epoch"
	// MetricAgentsGauge is the live snapshot's agent count.
	MetricAgentsGauge = "ref_serve_agents"
	// MetricShed counts refused writes, labeled by reason
	// (queue_full, draining).
	MetricShed = "ref_serve_shed_total"
	// MetricResums counts exact resummations of the incremental sums
	// (periodic or drift-triggered).
	MetricResums = "ref_serve_resums_total"
	// MetricAuditMode reports the live audit mode: 0 whole table, 1
	// sampled (population above AuditSample).
	MetricAuditMode = "ref_serve_audit_mode"
	// MetricAuditCoverage is the fraction of the population the latest
	// audit covered (1 for the whole table, sample/N when sampled).
	MetricAuditCoverage = "ref_serve_audit_coverage"
	// MetricSIMargin is the histogram of audited per-agent SI log margins
	// (distance from preferring the equal split; negative = violation).
	MetricSIMargin = "ref_serve_si_margin"
	// MetricSIMarginMin is the smallest SI log margin the latest audit
	// observed.
	MetricSIMarginMin = "ref_serve_si_margin_min"
	// MetricSLOGood / MetricSLOBad count epochs that met / missed the
	// configured epoch-latency SLO.
	MetricSLOGood = "ref_serve_slo_epoch_good_total"
	MetricSLOBad  = "ref_serve_slo_epoch_bad_total"
	// MetricSLOBurn is the epoch-latency SLO's rolling burn rate
	// (window bad fraction / error budget; above 1 the SLO is burning).
	MetricSLOBurn = "ref_serve_slo_epoch_burn_rate"
	// MetricFlightDumps counts anomaly-triggered flight-recorder dumps,
	// labeled by reason (audit_failure, latency_breach, shed_spike).
	MetricFlightDumps = "ref_serve_flight_dumps_total"
	// MetricQueues is the live number of queues in the tree (default
	// included; 0 while the tree is trivial and the flat path runs).
	MetricQueues = "ref_serve_queues"
	// MetricQueueMutations counts applied queue declarations and
	// deletions, labeled by kind (upsert, delete).
	MetricQueueMutations = "ref_serve_queue_mutations_total"
	// MetricReclaimMoved is the allocation volume the order-preserving
	// reclaim pass moved in the latest epoch.
	MetricReclaimMoved = "ref_serve_reclaim_moved"
	// MetricQueueSIMarginMin is the smallest normalized per-queue SI
	// log margin of the latest hierarchical audit.
	MetricQueueSIMarginMin = "ref_serve_queue_si_margin_min"
	// MetricCreditBudget is the histogram of credit-adjusted per-agent
	// budgets observed each epoch (only populated when the credit ledger
	// is enabled; 1 everywhere at parity).
	MetricCreditBudget = "ref_serve_credit_budget"
	// MetricCreditTiltMax / MetricCreditTiltMin are the largest and
	// smallest live budgets — how far the ledger is currently tilting.
	MetricCreditTiltMax = "ref_serve_credit_tilt_max"
	MetricCreditTiltMin = "ref_serve_credit_tilt_min"
	// MetricCreditBudgetSum is Σ budgets over the live population (≈ N at
	// parity — the weighted mechanism's total income).
	MetricCreditBudgetSum = "ref_serve_credit_budget_sum"
	// MetricCreditUsageSum / MetricCreditFairSum are the ledger totals:
	// decayed usage and decayed fair-share integrals summed over the
	// population (they track each other on a fully-allocated machine).
	MetricCreditUsageSum = "ref_serve_credit_usage_sum"
	MetricCreditFairSum  = "ref_serve_credit_fair_sum"
)

// DefaultAuditSample is the audit window a zero Config.AuditSample
// selects.
const DefaultAuditSample = 256

// Config parameterizes a Server. The zero value of every field except
// Capacity selects a sensible default.
type Config struct {
	// Capacity holds total capacity per resource; required, every entry
	// positive and finite.
	Capacity []float64
	// Window is how long the epoch loop collects mutations after the
	// first one arrives before running the mechanism (default 10ms).
	Window time.Duration
	// MaxBatch caps mutations per epoch; a full batch triggers the epoch
	// without waiting out the window (default 64).
	MaxBatch int
	// QueueDepth bounds the mutation queue; writes beyond it are shed
	// with 503 + Retry-After (default 4×MaxBatch).
	QueueDepth int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline for mutation requests
	// (default 10s). The HTTP request context, if it expires first, also
	// cancels the wait.
	RequestTimeout time.Duration
	// Parallelism is the internal/par pool width used for the per-shard
	// batch apply (0 = $REF_PARALLELISM, else GOMAXPROCS).
	Parallelism int
	// ProfileAccesses is the per-configuration simulation budget used
	// when a tenant joins with a workload profile instead of raw
	// elasticities (default 20000, the refbench default; the 28-workload
	// sweep is memoized process-wide after the first such join).
	ProfileAccesses int
	// Spec selects the platform resource model used to profile and fit
	// workload-profile joins. Empty infers a spec from the capacity
	// dimensionality (2 → the paper's cache+bandwidth machine, 3 → the
	// 3-resource machine); when set, its dimensionality must match
	// Capacity, and an empty Capacity defaults to the spec's capacities.
	Spec platform.Spec
	// Clock drives the batching window and snapshot timestamps; nil
	// selects the wall clock. Tests inject a FakeClock.
	Clock Clock

	// CreditHalfLife enables the time-aware credit ledger: each epoch
	// every tenant's decayed usage integral (half-life CreditHalfLife)
	// is compared to its decayed fair share, and the ratio — clamped to
	// [CreditMinBudget, CreditMaxBudget] — becomes the tenant's budget in
	// the weighted Equation 13. Zero (the default) disables the ledger
	// entirely: every budget stays exactly 1 and the epoch path is
	// byte-identical to the unweighted engine. Note the credit pass walks
	// the whole population each epoch (O(N·R)); it is intended for epoch
	// windows where that is affordable, not for the million-agent
	// O(Δ)-per-epoch regime.
	CreditHalfLife time.Duration
	// CreditMinBudget / CreditMaxBudget bound the budget tilt (defaults
	// 0.5 / 2.0 when the ledger is enabled; must satisfy 0 < min ≤ 1 ≤
	// max). The bounds guarantee every tenant an instantaneous
	// entitlement of at least CreditMinBudget/(CreditMaxBudget·N) of the
	// machine — the floor behind the starvation-bound oracle.
	CreditMinBudget float64
	CreditMaxBudget float64

	// Queues is the boot-time queue-tree declaration (hierarchical
	// multi-tenant fairness; see internal/hier). Empty boots the flat
	// economy — queues can still be declared at runtime over
	// POST /v1/queues. Validation failures fail New.
	Queues []hier.QueueConfig

	// Shards is the number of stripes in the agent table (default 32).
	// Million-agent deployments want more (joins pay an O(n/Shards)
	// sorted-insert within their shard).
	Shards int
	// InlineSnapshotAgents is the largest population whose snapshots
	// still materialize the full agent list and allocation matrix
	// (default 4096). Above it snapshots set AgentsElided/AgentCount and
	// clients use point or delta reads. Negative never inlines.
	InlineSnapshotAgents int
	// AuditSample is the rotating audit-window size (default
	// DefaultAuditSample). Each epoch certifies the agents its batch
	// touched plus the next AuditSample agents of the table, so the whole
	// population is re-audited every ~N/AuditSample epochs. While
	// N ≤ AuditSample the window is the whole table and the verdict is
	// not Sampled.
	AuditSample int
	// DeltaWindow is how many epochs of changes the server retains for
	// GET /v1/allocation?since=E (default 64). Older cursors get
	// Complete=false and must fall back to a full read.
	DeltaWindow int

	// FlightRecorder, when positive, keeps the last N per-epoch records
	// (batch composition, per-stage durations, audit verdict, shed
	// counts) in a bounded ring served at GET /debug/ref/flightrecorder,
	// with anomaly-triggered dumps. 0 disables the recorder.
	FlightRecorder int
	// FlightDumpDir, when set, additionally writes each anomaly dump as
	// a JSON file in that directory.
	FlightDumpDir string
	// SLOEpochLatency, when positive, is the epoch-latency objective,
	// measured on the server's Clock. Epochs over it count against the
	// SLO (and, with the flight recorder on, trigger a latency_breach
	// dump). 0 disables SLO tracking.
	SLOEpochLatency time.Duration
	// SLOBudget is the allowed fraction of epochs over the objective
	// (default 0.01).
	SLOBudget float64
	// SLOWindow is the rolling epoch window behind the SLO burn rate
	// (default 1024).
	SLOWindow int
	// ShedSpike is the sheds-between-epochs count that triggers a
	// shed_spike flight dump (default 256; negative disables).
	ShedSpike int

	// AuditHook, when set, observes (and may mutate) each epoch's
	// fairness verdict after the audit runs — a seam for injecting audit
	// failures without constructing an unfair allocation, which
	// Equation 13 never produces. The serve tests and the replay
	// harness use it to drive the audit_failure flight-recorder trigger
	// deterministically.
	AuditHook func(*Fairness)

	// auditObserver, when set, receives the names the audit covered each
	// epoch — the tap behind the audit-coverage tests.
	auditObserver func(names []string)
}

// withDefaults validates Capacity and fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if len(c.Spec.Dims) > 0 {
		if err := c.Spec.Validate(); err != nil {
			return c, fmt.Errorf("serve: %w", err)
		}
		if len(c.Capacity) == 0 {
			c.Capacity = c.Spec.Capacities()
		}
		if len(c.Capacity) != c.Spec.NumResources() {
			return c, fmt.Errorf("serve: %d capacities for the %d-resource spec %q",
				len(c.Capacity), c.Spec.NumResources(), c.Spec.Name)
		}
	}
	if len(c.Capacity) == 0 {
		return c, errors.New("serve: config needs at least one resource capacity")
	}
	for r, cap := range c.Capacity {
		if math.IsNaN(cap) || math.IsInf(cap, 0) || cap <= 0 {
			return c, fmt.Errorf("serve: capacity[%d] = %v, must be positive and finite", r, cap)
		}
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.ProfileAccesses <= 0 {
		c.ProfileAccesses = 20000
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	if c.Shards <= 0 {
		c.Shards = 32
	}
	if c.InlineSnapshotAgents == 0 {
		c.InlineSnapshotAgents = 4096
	}
	if c.AuditSample <= 0 {
		c.AuditSample = DefaultAuditSample
	}
	if c.DeltaWindow <= 0 {
		c.DeltaWindow = 64
	}
	if c.SLOBudget <= 0 {
		c.SLOBudget = 0.01
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 1024
	}
	if c.ShedSpike == 0 {
		c.ShedSpike = 256
	}
	return c, nil
}

// mutationKind discriminates the mutation union.
type mutationKind int

const (
	mutJoin mutationKind = iota
	mutUpdate
	mutLeave
	mutQueueUpsert
	mutQueueDelete
)

// isQueueMutation discriminates tree-topology mutations, which apply
// serially (they mutate shared tree state and must not race the
// per-shard agent apply), from agent mutations, which apply in parallel.
func (k mutationKind) isQueueMutation() bool {
	return k == mutQueueUpsert || k == mutQueueDelete
}

// mutation is one queued agent-set or queue-tree change with its reply
// channel.
type mutation struct {
	kind  mutationKind
	name  string
	wire  WireAgent         // join/update only
	util  cobb.Utility      // join/update only
	qcfg  *hier.QueueConfig // queue upsert only
	reply chan mutationResult
}

// mutationResult is delivered to the waiting request handler after the
// mutation's epoch publishes.
type mutationResult struct {
	epoch uint64
	// row is the agent's allocation row (join/update only, on success).
	row []float64
	// queue is the applied entry's canonical wire queue ("" for the
	// default queue) — what join/patch acks echo, so a PATCH that
	// inherits its queue reports where the agent actually sits.
	queue string
	// err is the typed rejection, nil when the mutation applied.
	err *APIError
}

// epochDelta is one epoch's entry in the changelog ring: the names whose
// declarations changed (joins and updates that applied) and the names
// that departed. Rows are not stored — a delta read materializes them
// from the live sums, so the ring costs O(Δ) strings per epoch.
type epochDelta struct {
	epoch   uint64
	upserts []string
	leaves  []string
	// queueUpserts and queueDeletes are the queue names this epoch
	// declared/re-declared and deleted. A delta read maps each through
	// the live tree to its *final* state — still present means its
	// rollup is in the response's full Queues set, gone means
	// QueuesRemoved — so a queue whose last agent departed never leaves
	// a stale changelog entry behind (the agent's own leave is recorded
	// under leaves; the queue only appears here when its declaration
	// itself changed).
	queueUpserts []string
	queueDeletes []string
}

// Server is the online allocation service. Create with New, mount
// Handler on an HTTP server, and Close to drain.
type Server struct {
	cfg   Config
	clock Clock

	mutCh   chan mutation
	drainCh chan struct{}
	doneCh  chan struct{}

	snap atomic.Pointer[Snapshot]

	// mu guards draining; enqWG tracks handlers between the draining
	// check and their queue send, so Close can wait for the queue to
	// stop growing before flushing it.
	mu       sync.Mutex
	draining bool
	enqWG    sync.WaitGroup
	closeErr error
	drainOne sync.Once

	// received counts mutations the epoch loop has dequeued — a test
	// hook for sequencing fake-clock scenarios.
	received atomic.Int64

	// stateMu guards the sharded table, the published sums, and the
	// changelog ring. The epoch loop write-locks while applying a batch
	// and publishing; point reads, delta reads, and full dumps RLock, so
	// what readers compute from the table is always consistent with the
	// latest published snapshot.
	stateMu             sync.RWMutex
	table               *agentTable
	deltas              []epochDelta
	deltaHead, deltaLen int
	auditCursor         int
	epoch               uint64

	// tree is the queue hierarchy (internal/hier); it always exists,
	// trivially (just the default leaf) on a queue-free server. hierEver
	// flips true the moment the tree first becomes non-trivial — from
	// then on agent mutations mirror their weight deltas into the tree
	// aggregates (O(depth·R) each), applied serially in batch order so
	// same-queue agents in different shards never race. While hierEver
	// is false the tree costs nothing: no capture, no serial pass, and
	// the publish path is byte-identical to the historical flat one.
	tree     *hier.Tree
	hierEver bool
	// flat is the published flat market: the rounded combined sums
	// backing the published rows, the capacity, and the population.
	flat market
	// pubLeaf / pubQueues / pubQIdx are the published hierarchical
	// state backing point and delta reads: per-leaf markets for O(R) row
	// reads, the rollup set of the published snapshot, and its name
	// index. All nil while the tree is trivial.
	pubLeaf   map[string]*market
	pubQueues []QueueRollup
	pubQIdx   map[string]int

	// Steady-state epoch scratch, reused so an epoch's allocations are
	// proportional to its batch, never to the total population.
	resScratch   []mutationResult
	shardMuts    [][]int
	activeShards []int
	rowScratch   []float64
	treeCap      []treeDelta
	treeW        []float64
	effScratch   []float64

	// flight is the epoch flight recorder (nil when disabled); slo
	// tracks the epoch-latency objective (nil when disabled). Both are
	// nil-safe, but runEpoch still gates its record-building on them so
	// the disabled path stays allocation-free.
	flight *obs.FlightRecorder[EpochRecord]
	slo    *obs.SLO
	// shedSinceEpoch counts shed writes since the last published epoch,
	// feeding the shed_spike anomaly trigger.
	shedSinceEpoch atomic.Int64
	// lastSIMargin is the smallest SI log margin the latest audit
	// observed (NaN when the epoch audited nobody). Guarded by stateMu.
	lastSIMargin float64
	// timingScratch is the per-epoch stage-timestamp scratch, reused so
	// tracing adds no steady-state allocations.
	timingScratch epochTiming

	// credit is the defaulted, validated ledger parameterization (zero —
	// disabled — without Config.CreditHalfLife). creditLast and
	// creditLastN are the previous publication's clock reading and
	// population: the interval the next credit pass integrates over and
	// its equal-split denominator. Both guarded by stateMu.
	credit      core.CreditParams
	creditLast  time.Time
	creditLastN int
}

// New validates cfg, publishes the empty epoch-0 snapshot, and starts the
// epoch loop.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.Capacity = append([]float64(nil), cfg.Capacity...)
	tree, err := hier.NewTree(cfg.Capacity, &hier.TreeConfig{Queues: cfg.Queues}, hier.Options{})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	credit := core.CreditParams{
		HalfLifeSeconds: cfg.CreditHalfLife.Seconds(),
		MinBudget:       cfg.CreditMinBudget,
		MaxBudget:       cfg.CreditMaxBudget,
	}.WithDefaults()
	if err := credit.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		clock:    cfg.Clock,
		mutCh:    make(chan mutation, cfg.QueueDepth),
		drainCh:  make(chan struct{}),
		doneCh:   make(chan struct{}),
		table:    newAgentTable(cfg.Shards, len(cfg.Capacity)),
		deltas:   make([]epochDelta, cfg.DeltaWindow),
		tree:     tree,
		hierEver: tree.NonTrivial(),
		credit:   credit,
	}
	s.creditLast = s.clock.Now()
	if cfg.FlightRecorder > 0 {
		s.flight = obs.NewFlightRecorder[EpochRecord](cfg.FlightRecorder, obs.FlightOptions{Dir: cfg.FlightDumpDir})
	}
	if cfg.SLOEpochLatency > 0 {
		s.slo = obs.NewSLO("epoch_latency", cfg.SLOEpochLatency, cfg.SLOBudget, cfg.SLOWindow)
	}
	s.stateMu.Lock()
	s.publish(nil) // epoch 0: empty agent set, so readers always see a snapshot
	s.stateMu.Unlock()
	go s.run()
	return s, nil
}

// Capacity returns the configured per-resource capacities (a copy).
func (s *Server) Capacity() []float64 {
	return append([]float64(nil), s.cfg.Capacity...)
}

// Current returns the live snapshot, lock-free. The returned value is
// immutable and must not be modified.
func (s *Server) Current() *Snapshot { return s.snap.Load() }

// ReceivedMutations reports how many mutations the epoch loop has
// dequeued since boot. Deterministic drivers (the replay harness, the
// fake-clock tests) sequence on it: submit one mutation, wait for the
// counter to advance, submit the next — which fixes the queue order, and
// with it the batch composition, independent of goroutine scheduling.
func (s *Server) ReceivedMutations() int64 { return s.received.Load() }

// Draining reports whether Close has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close drains the server: new mutations are refused with a draining
// error, everything already queued is flushed through a final epoch (so
// every accepted request gets its reply), and the epoch loop exits. Close
// is idempotent; ctx bounds the wait.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainOne.Do(func() {
		// Wait for handlers that passed the draining check to finish
		// their queue sends, so the flush below sees the final queue.
		s.enqWG.Wait()
		close(s.drainCh)
	})
	select {
	case <-s.doneCh:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Join queues a join/re-declare mutation and waits for its epoch. The
// utility must already be validated against the server's capacity vector.
func (s *Server) Join(ctx context.Context, wire WireAgent, util cobb.Utility) (uint64, []float64, string, *APIError) {
	return s.submit(ctx, mutation{kind: mutJoin, name: wire.Name, wire: wire, util: util})
}

// Update queues an elasticity re-declaration for an existing agent and
// waits for its epoch. Unlike Join it fails with unknown_agent when the
// name is not in the agent set at apply time.
func (s *Server) Update(ctx context.Context, wire WireAgent, util cobb.Utility) (uint64, []float64, string, *APIError) {
	return s.submit(ctx, mutation{kind: mutUpdate, name: wire.Name, wire: wire, util: util})
}

// Leave queues a departure mutation and waits for its epoch.
func (s *Server) Leave(ctx context.Context, name string) (uint64, *APIError) {
	epoch, _, _, err := s.submit(ctx, mutation{kind: mutLeave, name: name})
	return epoch, err
}

// QueueUpsert queues a queue declaration (create, re-declare, or move —
// see hier.Tree.Upsert) and waits for its epoch.
func (s *Server) QueueUpsert(ctx context.Context, cfg hier.QueueConfig) (uint64, *APIError) {
	epoch, _, _, err := s.submit(ctx, mutation{kind: mutQueueUpsert, name: cfg.Name, qcfg: &cfg})
	return epoch, err
}

// QueueDelete queues a queue deletion and waits for its epoch. Only
// empty leaves may go; a queue with child queues or agents is refused
// with queue_not_empty.
func (s *Server) QueueDelete(ctx context.Context, name string) (uint64, *APIError) {
	epoch, _, _, err := s.submit(ctx, mutation{kind: mutQueueDelete, name: name})
	return epoch, err
}

// QueueRollups returns the published per-queue rollups and the epoch
// they are consistent with (nil rollups while the tree is trivial). The
// returned slice is the published one and must not be modified.
func (s *Server) QueueRollups() (uint64, []QueueRollup) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.snap.Load().Epoch, s.pubQueues
}

// treeDelta is one agent mutation's captured effective-weight movement,
// recorded during the parallel per-shard apply and folded into the queue
// tree serially in batch order. oldW and newW are copies in the batch's
// treeW scratch, never views into the table: a later join in the same
// shard shifts the rows, and a re-declare overwrites its row in place.
type treeDelta struct {
	oldW, newW []float64
	oldQ, newQ string
	has        bool
}

// market is one published Equation 13 market — the flat economy, or a
// leaf queue — as its rows see it: the budgeted elasticity sums, the
// capacity (or leaf share) the members split, and the member count —
// everything an O(R) per-agent row read needs.
type market struct {
	sums  []float64
	share []float64
	n     int
	// total accumulates the members' rows for the whole-table audit's
	// clearing check.
	total []core.CompSum
}

// resetTotal zeroes the clearing accumulators.
func (m *market) resetTotal() {
	if len(m.total) != len(m.share) {
		m.total = make([]core.CompSum, len(m.share))
	}
	clear(m.total)
}

// treeEach adapts the canonical table walk to the tree's resummation
// callback contract. The tree aggregates *effective* weights — at unit
// budgets that is the raw weight slice, bit for bit. Callers hold stateMu.
func (s *Server) treeEach(visit func(queue string, weight []float64)) {
	if len(s.effScratch) != len(s.cfg.Capacity) {
		s.effScratch = make([]float64, len(s.cfg.Capacity))
	}
	s.table.Each(func(sh *shard, i int) {
		visit(sh.Payload(i).queue, core.ScaleWeights(s.effScratch, sh.Weight(i), sh.Budget(i)))
	})
}

// marketOf resolves the published market agent e trades in: its leaf
// queue when the tree is non-trivial, the flat economy otherwise.
func (s *Server) marketOf(e agentView) *market {
	if lp, ok := s.pubLeaf[e.queue]; ok {
		return lp
	}
	return &s.flat
}

// rowFor computes one agent's published allocation row from its market.
func (s *Server) rowFor(e agentView) []float64 {
	mk := s.marketOf(e)
	return core.RowFromSumsBudgeted(nil, e.weight, e.budget, mk.sums, mk.share, mk.n)
}

// queueRollupFor returns the published rollup of e's leaf queue, nil on
// the flat path.
func (s *Server) queueRollupFor(e agentView) *QueueRollup {
	if i, ok := s.pubQIdx[e.queue]; ok {
		return &s.pubQueues[i]
	}
	return nil
}

// retryAfterSeconds is the shedding backoff hint: one epoch window,
// rounded up to the 1-second Retry-After granularity.
func (s *Server) retryAfterSeconds() int {
	secs := int(s.cfg.Window / time.Second)
	if time.Duration(secs)*time.Second < s.cfg.Window || secs < 1 {
		secs++
	}
	return secs
}

// submit enqueues m (shedding if the queue is full or the server is
// draining) and waits for the epoch loop's reply or the deadline.
func (s *Server) submit(ctx context.Context, m mutation) (uint64, []float64, string, *APIError) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.shedSinceEpoch.Add(1)
		obs.Inc(MetricShed + `{reason="draining"}`)
		return 0, nil, "", &APIError{Code: CodeDraining, Status: http.StatusServiceUnavailable,
			RetryAfter: s.retryAfterSeconds(),
			Message:    "server is draining; no new mutations accepted"}
	}
	s.enqWG.Add(1)
	s.mu.Unlock()

	m.reply = make(chan mutationResult, 1)
	select {
	case s.mutCh <- m:
		s.enqWG.Done()
	default:
		s.enqWG.Done()
		s.shedSinceEpoch.Add(1)
		obs.Inc(MetricShed + `{reason="queue_full"}`)
		return 0, nil, "", &APIError{Code: CodeQueueFull, Status: http.StatusServiceUnavailable,
			RetryAfter: s.retryAfterSeconds(),
			Message:    fmt.Sprintf("mutation queue full (%d pending); retry after the epoch window", s.cfg.QueueDepth)}
	}

	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	select {
	case res := <-m.reply:
		return res.epoch, res.row, res.queue, res.err
	case <-ctx.Done():
		// The mutation stays queued and may still apply in a later
		// epoch; the typed error tells the client so.
		return 0, nil, "", &APIError{Code: CodeDeadline, Status: http.StatusGatewayTimeout,
			Message: "deadline expired before the mutation's epoch published; it may still be applied"}
	}
}

// run is the epoch loop: one goroutine owning all agent-set writes.
func (s *Server) run() {
	defer close(s.doneCh)
	for {
		select {
		case m := <-s.mutCh:
			s.received.Add(1)
			batch := s.collect([]mutation{m})
			s.runEpoch(batch)
		case <-s.drainCh:
			if batch := s.flushQueue(nil); len(batch) > 0 {
				s.runEpoch(batch)
			}
			return
		}
	}
}

// collect gathers mutations after the first until the batching window
// elapses, the batch fills, or a drain begins (which flushes whatever is
// already queued into this final batch).
func (s *Server) collect(batch []mutation) []mutation {
	if len(batch) >= s.cfg.MaxBatch {
		return batch
	}
	t := s.clock.NewTimer(s.cfg.Window)
	defer t.Stop()
	for {
		select {
		case m := <-s.mutCh:
			s.received.Add(1)
			batch = append(batch, m)
			if len(batch) >= s.cfg.MaxBatch {
				return batch
			}
		case <-t.C():
			return batch
		case <-s.drainCh:
			return s.flushQueue(batch)
		}
	}
}

// flushQueue drains every mutation already sitting in the queue.
func (s *Server) flushQueue(batch []mutation) []mutation {
	for {
		select {
		case m := <-s.mutCh:
			s.received.Add(1)
			batch = append(batch, m)
		default:
			return batch
		}
	}
}

// runEpoch applies one batch through the sharded incremental engine,
// publishes the snapshot, and replies to every mutation in the batch.
// Total cost is O(Δ·R) in the batch plus the (inline or sampled)
// publication work — never a full pass over the population.
func (s *Server) runEpoch(batch []mutation) {
	start := s.clock.Now()
	wallStart := time.Now()

	// Stage timestamps are captured only when the flight recorder or a
	// tracer wants them; the disabled path takes the exact pre-existing
	// clock reads, keeping steady-state epochs allocation-flat.
	tr := obs.InstalledTracer()
	var tm *epochTiming
	if s.flight != nil || tr != nil {
		s.timingScratch = epochTiming{start: start}
		tm = &s.timingScratch
	}

	if cap(s.resScratch) < len(batch) {
		s.resScratch = make([]mutationResult, len(batch))
	}
	results := s.resScratch[:len(batch)]
	for i := range results {
		results[i] = mutationResult{}
	}

	s.stateMu.Lock()
	resumsBefore := s.table.Cadence().Resums()

	// Split the batch into segments: runs of agent mutations apply in
	// parallel across shards, queue mutations apply serially (they
	// mutate shared tree topology). Segment boundaries preserve batch
	// order, so "create queue, join it" works within one batch.
	if cap(s.treeCap) < len(batch) {
		s.treeCap = make([]treeDelta, len(batch))
	}
	for i := 0; i < len(batch); {
		if batch[i].kind.isQueueMutation() {
			s.applyQueueMutation(batch[i], &results[i])
			i++
			continue
		}
		j := i
		for j < len(batch) && !batch[j].kind.isQueueMutation() {
			j++
		}
		s.applyAgentRun(batch, results, i, j)
		i = j
	}

	// With the ledger enabled, settle credits before the epoch closes:
	// every tenant's account accrues the interval since the last
	// publication and its new clamped budget lands as an O(R)
	// effective-weight delta — so the resummation policy right below sees
	// the credit churn too.
	if s.credit.Enabled() {
		s.creditPass()
	}

	s.table.EndEpoch()
	if s.hierEver {
		s.tree.EndEpoch(s.treeEach)
	}
	if tm != nil {
		tm.afterApply = s.clock.Now()
	}

	applied, rejected := 0, 0
	joins, updates, departs := 0, 0, 0
	queueUps, queueDels := 0, 0
	var upserts, leaves, qUpserts, qDeletes []string
	touched := make([]string, 0, len(batch))
	for i, m := range batch {
		if results[i].err != nil {
			rejected++
			continue
		}
		applied++
		switch m.kind {
		case mutLeave:
			leaves = append(leaves, m.name)
			departs++
		case mutQueueUpsert:
			qUpserts = append(qUpserts, m.name)
			queueUps++
		case mutQueueDelete:
			qDeletes = append(qDeletes, m.name)
			queueDels++
		default:
			if m.kind == mutJoin {
				joins++
			} else {
				updates++
			}
			upserts = append(upserts, m.name)
			touched = append(touched, m.name)
		}
	}

	snap := s.publishBatch(&batchInfo{size: len(batch), applied: applied, rejected: rejected, started: start}, touched, tm)

	// Record this epoch in the changelog ring so ?since= readers can
	// catch up without a full dump.
	s.recordDelta(epochDelta{epoch: snap.Epoch, upserts: upserts, leaves: leaves,
		queueUpserts: qUpserts, queueDeletes: qDeletes})

	n := s.table.Len()
	resums := s.table.Cadence().Resums()
	siMargin := s.lastSIMargin
	s.stateMu.Unlock()

	// Reply after publishing so a client that got its ack always finds
	// an epoch ≥ the acked one at GET /v1/allocation. Rows are O(R)
	// reads from the published sums — no per-epoch index over the
	// population is built (the old code rebuilt an O(N) row map here).
	for i, m := range batch {
		res := results[i]
		res.epoch = snap.Epoch
		if res.err == nil && (m.kind == mutJoin || m.kind == mutUpdate) {
			if e, ok := s.table.get(m.name); ok {
				res.row = s.rowFor(e)
				res.queue = e.wire.Queue
			}
		}
		m.reply <- res
	}

	// The epoch's clock-measured duration feeds the SLO and the anomaly
	// triggers; under a FakeClock tests can inject a breach
	// deterministically.
	var clockSecs float64
	if tm != nil || s.slo != nil {
		end := s.clock.Now()
		if tm != nil {
			tm.end = end
		}
		clockSecs = end.Sub(start).Seconds()
	}

	r := obs.Installed()
	if r != nil {
		r.Counter(MetricEpochs).Inc()
		r.Histogram(MetricEpochSeconds).Observe(time.Since(wallStart).Seconds())
		r.Histogram(MetricBatchSize).Observe(float64(len(batch)))
		r.Gauge(MetricEpochGauge).Set(float64(snap.Epoch))
		r.Gauge(MetricAgentsGauge).Set(float64(n))
		r.Gauge(MetricResums).Set(float64(resums))
		r.Gauge(MetricQueues).Set(float64(len(snap.Queues)))
		if queueUps > 0 {
			r.Counter(MetricQueueMutations + `{kind="upsert"}`).Add(int64(queueUps))
		}
		if queueDels > 0 {
			r.Counter(MetricQueueMutations + `{kind="delete"}`).Add(int64(queueDels))
		}
		if fair := snap.Fairness; fair != nil && fair.Hier != nil {
			r.Gauge(MetricReclaimMoved).Set(fair.Hier.ReclaimMoved)
			r.Gauge(MetricQueueSIMarginMin).Set(fair.Hier.MinSIMargin)
		}
		if c := snap.Credit; c != nil {
			r.Gauge(MetricCreditTiltMax).Set(c.TiltMax)
			r.Gauge(MetricCreditTiltMin).Set(c.TiltMin)
			r.Gauge(MetricCreditBudgetSum).Set(c.BudgetSum)
			r.Gauge(MetricCreditUsageSum).Set(c.UsageSum)
			r.Gauge(MetricCreditFairSum).Set(c.FairSum)
		}
		if fair := snap.Fairness; fair != nil {
			mode, coverage := 0.0, 1.0
			if fair.Sampled {
				mode = 1
				if coverage = float64(fair.SampleSize) / float64(n); coverage > 1 {
					coverage = 1
				}
			}
			r.Gauge(MetricAuditMode).Set(mode)
			r.Gauge(MetricAuditCoverage).Set(coverage)
			if !math.IsNaN(siMargin) {
				r.Gauge(MetricSIMarginMin).Set(siMargin)
			}
		}
	}

	breach := false
	if s.slo != nil {
		good := s.slo.Observe(clockSecs)
		breach = !good
		if r != nil {
			if good {
				r.Counter(MetricSLOGood).Inc()
			} else {
				r.Counter(MetricSLOBad).Inc()
			}
			r.Gauge(MetricSLOBurn).Set(s.slo.BurnRate())
		}
	}

	shed := s.shedSinceEpoch.Swap(0)
	if s.flight != nil {
		s.flight.Record(s.buildEpochRecord(snap, tm, n, len(batch), applied, rejected,
			joins, updates, departs, clockSecs, siMargin, shed, resums > resumsBefore))
		s.maybeDump(snap.Fairness, breach, shed)
	}

	if tr != nil && tm != nil {
		s.emitEpochTrace(tr, tm, snap, n, len(batch), applied, rejected)
	}
}

// applyAgentRun applies one run of agent mutations batch[lo:hi) through
// the sharded table in parallel, then — once hierarchical accounting is
// live — folds the captured weight deltas into the queue tree serially
// in batch order (two same-queue agents may land in different shards, so
// the tree update cannot ride inside the parallel loop). The tree is
// only *read* inside the parallel loop (queue existence and leaf
// checks); topology is frozen for the whole run because queue mutations
// segment the batch. Callers hold stateMu.
func (s *Server) applyAgentRun(batch []mutation, results []mutationResult, lo, hi int) {
	if s.shardMuts == nil {
		s.shardMuts = make([][]int, s.cfg.Shards)
	}
	active := s.activeShards[:0]
	for i := lo; i < hi; i++ {
		si := s.table.ShardOf(batch[i].name)
		if len(s.shardMuts[si]) == 0 {
			active = append(active, si)
		}
		s.shardMuts[si] = append(s.shardMuts[si], i)
	}
	s.activeShards = active
	hierOn := s.hierEver
	nRes := len(s.cfg.Capacity)
	if nw := 2 * nRes * len(batch); hierOn && len(s.treeW) < nw {
		s.treeW = make([]float64, nw)
	}

	_ = par.ForEach(len(active), s.cfg.Parallelism, func(k int) error {
		sh := s.table.Shard(active[k])
		for _, bi := range s.shardMuts[active[k]] {
			m := batch[bi]
			// With hierarchical accounting live, the mutation's old and
			// new effective weights are copied into its own slice of the
			// batch scratch (disjoint per mutation, so parallel shards
			// never share a byte).
			var d *treeDelta
			var dw []float64
			if hierOn {
				d, dw = &s.treeCap[bi], s.treeW[2*nRes*bi:2*nRes*(bi+1)]
			}
			i, found := sh.Find(m.name)
			switch m.kind {
			case mutJoin, mutUpdate:
				// Handlers validate before enqueueing; re-check here so a
				// bad utility can never corrupt the published state.
				if err := m.util.Validate(); err != nil || m.util.NumResources() != nRes {
					results[bi].err = &APIError{Code: CodeInvalidUtility, Status: http.StatusBadRequest,
						Message: fmt.Sprintf("agent %q: utility rejected at apply time", m.name)}
					continue
				}
				if m.kind == mutUpdate && !found {
					results[bi].err = &APIError{Code: CodeUnknownAgent, Status: http.StatusNotFound,
						Message: fmt.Sprintf("no agent named %q", m.name)}
					continue
				}
				// Resolve the leaf queue: an explicit name wins; an empty
				// field inherits the existing entry's queue (PATCH bodies
				// and re-declares without a queue stay put).
				queue := hier.CanonicalQueue(m.wire.Queue)
				if m.wire.Queue == "" && found {
					queue = sh.Payload(i).queue
				}
				if !s.tree.Has(queue) {
					results[bi].err = &APIError{Code: CodeUnknownQueue, Status: http.StatusNotFound,
						Message: fmt.Sprintf("agent %q: no queue named %q", m.name, queue)}
					continue
				}
				if !s.tree.IsLeaf(queue) {
					results[bi].err = &APIError{Code: CodeInvalidQueue, Status: http.StatusBadRequest,
						Message: fmt.Sprintf("agent %q: queue %q is not a leaf; only leaf queues hold agents", m.name, queue)}
					continue
				}
				wire := m.wire
				if queue == hier.DefaultQueue {
					wire.Queue = "" // canonical wire form for the default queue
				} else {
					wire.Queue = queue
				}
				if found {
					// A re-declare keeps the agent's budget (and ledger):
					// the table moves the delta between the old and new
					// effective weights.
					e := sh.Payload(i)
					if d != nil {
						*d = treeDelta{has: true, oldQ: e.queue, oldW: sh.AppendEff(dw[:0:nRes], i)}
					}
					sh.Set(i, e.declare(wire, m.util, queue))
				} else {
					e := &agentEntry{}
					sh.Insert(i, m.name, e, e.declare(wire, m.util, queue))
					if d != nil {
						*d = treeDelta{has: true}
					}
				}
				if d != nil {
					d.newQ, d.newW = queue, sh.AppendEff(dw[nRes:nRes:2*nRes], i)
				}
			case mutLeave:
				if !found {
					results[bi].err = &APIError{Code: CodeUnknownAgent, Status: http.StatusNotFound,
						Message: fmt.Sprintf("no agent named %q", m.name)}
					continue
				}
				if d != nil {
					*d = treeDelta{has: true, oldQ: sh.Payload(i).queue, oldW: sh.AppendEff(dw[:0:nRes], i)}
				}
				sh.Delete(i)
			}
		}
		s.shardMuts[active[k]] = s.shardMuts[active[k]][:0]
		return nil
	})

	if hierOn {
		for i := lo; i < hi; i++ {
			if d := &s.treeCap[i]; d.has {
				// Cannot fail: the queue was checked to be an existing
				// leaf in this run, and topology is frozen within it.
				_ = s.tree.AgentDelta(d.oldQ, d.newQ, d.oldW, d.newW)
				*d = treeDelta{}
			}
		}
	}
}

// applyQueueMutation applies one queue-tree mutation serially. A
// successful first declaration activates hierarchical accounting: the
// tree resums its aggregates from the live table (agents already in the
// default queue get counted), and every later agent mutation mirrors
// into the tree. Callers hold stateMu.
func (s *Server) applyQueueMutation(m mutation, res *mutationResult) {
	switch m.kind {
	case mutQueueUpsert:
		q := *m.qcfg
		if q.Parent != "" && q.Parent != hier.DefaultQueue && !s.tree.Has(q.Parent) {
			res.err = &APIError{Code: CodeUnknownQueue, Status: http.StatusNotFound,
				Message: fmt.Sprintf("queue %q: no parent queue named %q", q.Name, q.Parent)}
			return
		}
		if err := s.tree.Upsert(q); err != nil {
			res.err = &APIError{Code: CodeInvalidQueue, Status: http.StatusBadRequest, Message: err.Error()}
			return
		}
		if !s.hierEver {
			s.hierEver = true
			s.tree.Resum(s.treeEach)
		}
	case mutQueueDelete:
		switch {
		case hier.CanonicalQueue(m.name) == hier.DefaultQueue:
			res.err = &APIError{Code: CodeInvalidQueue, Status: http.StatusBadRequest,
				Message: fmt.Sprintf("queue %q is reserved and cannot be deleted", hier.DefaultQueue)}
		case !s.tree.Has(m.name):
			res.err = &APIError{Code: CodeUnknownQueue, Status: http.StatusNotFound,
				Message: fmt.Sprintf("no queue named %q", m.name)}
		case !s.tree.IsLeaf(m.name) || s.tree.AgentCount(m.name) > 0:
			res.err = &APIError{Code: CodeQueueNotEmpty, Status: http.StatusConflict,
				Message: fmt.Sprintf("queue %q still has child queues or agents", m.name)}
		default:
			if err := s.tree.Delete(m.name); err != nil {
				res.err = &APIError{Code: CodeInvalidQueue, Status: http.StatusBadRequest, Message: err.Error()}
			}
		}
	}
}

// batchInfo carries per-epoch accounting into publish.
type batchInfo struct {
	size, applied, rejected int
	started                 time.Time
}

// recordDelta appends one epoch to the changelog ring, evicting the
// oldest entry when the window is full. Callers hold stateMu.
func (s *Server) recordDelta(d epochDelta) {
	if s.deltaLen < len(s.deltas) {
		s.deltas[(s.deltaHead+s.deltaLen)%len(s.deltas)] = d
		s.deltaLen++
		return
	}
	s.deltas[s.deltaHead] = d
	s.deltaHead = (s.deltaHead + 1) % len(s.deltas)
}

// publish is the epoch-0 boot publication. Callers hold stateMu.
func (s *Server) publish(info *batchInfo) *Snapshot {
	return s.publishBatch(info, nil, nil)
}

// publishBatch computes the new snapshot from the sharded table and
// atomically installs it. Callers hold stateMu. Below the inline
// threshold the snapshot materializes agents and allocation rows in
// canonical order; above it both are elided and served through point and
// delta reads. touched lists the names this batch upserted, which the
// audit always includes. tm, when non-nil, receives the allocate/audit/
// publish stage timestamps for the flight recorder and tracer.
func (s *Server) publishBatch(info *batchInfo, touched []string, tm *epochTiming) *Snapshot {
	n := s.table.Len()
	s.lastSIMargin = math.NaN()
	s.flat.sums = s.table.Sums(s.flat.sums)
	s.flat.share, s.flat.n = s.cfg.Capacity, n

	snap := &Snapshot{
		Schema:   Schema,
		Epoch:    s.epoch,
		Capacity: append([]float64(nil), s.cfg.Capacity...),
	}
	if info != nil {
		snap.BatchSize, snap.Applied, snap.Rejected = info.size, info.applied, info.rejected
	}

	// On a non-trivial tree, run the hierarchical allocation: every
	// internal node splits its share among its children (quota floors +
	// Equation 13 over aggregates + order-preserving reclaim), and each
	// leaf's share becomes the capacity its direct agents split. The
	// trivial tree takes the exact historical flat path — rows, audit,
	// and the snapshot's wire form are byte-identical to earlier
	// versions.
	var al *hier.Alloc
	if s.tree.NonTrivial() {
		al = s.tree.Allocate()
		leaf := make(map[string]*market, len(al.Queues))
		idx := make(map[string]int, len(al.Queues))
		rollups := make([]QueueRollup, 0, len(al.Queues))
		for _, qa := range al.Queues {
			if qa.Leaf {
				leaf[qa.Name] = &market{
					sums:  s.tree.LeafSums(qa.Name, nil),
					share: qa.Share,
					n:     s.tree.LeafAgents(qa.Name),
				}
			}
			idx[qa.Name] = len(rollups)
			rollups = append(rollups, QueueRollup{
				Name: qa.Name, Parent: qa.Parent, Leaf: qa.Leaf,
				Weight: qa.Weight, Quota: qa.Quota, Agents: qa.Agents,
				Fair: qa.Fair, Share: qa.Share,
				ReclaimOut: qa.ReclaimOut, ReclaimIn: qa.ReclaimIn,
			})
		}
		s.pubLeaf, s.pubQueues, s.pubQIdx = leaf, rollups, idx
		snap.Queues = rollups
	} else {
		s.pubLeaf, s.pubQueues, s.pubQIdx = nil, nil, nil
	}

	if s.cfg.InlineSnapshotAgents >= 0 && n <= s.cfg.InlineSnapshotAgents {
		snap.Agents = make([]WireAgent, 0, n)
		snap.Allocation = make([][]float64, 0, n)
		s.table.forEachSorted(func(_ string, e agentView) {
			snap.Agents = append(snap.Agents, e.wire)
			snap.Allocation = append(snap.Allocation, s.rowFor(e))
		})
	} else {
		snap.AgentsElided = true
		snap.AgentCount = n
	}

	// With the ledger enabled, close the credit loop against the state
	// just published: store every tenant's realized share rate (what the
	// next pass integrates as usage) and assemble the credit rollup.
	if s.credit.Enabled() {
		s.creditPublish(snap, n)
	}

	if tm != nil {
		tm.afterAllocate = s.clock.Now()
	}

	if n > 0 {
		snap.Fairness = s.audit(n, touched)
	}
	if al != nil && snap.Fairness != nil {
		rep := hier.AuditTree(s.tree, al, 0)
		hf := &HierFairness{Floors: rep.Floors, SI: rep.SI, EF: rep.EF, ReclaimMoved: al.Moved}
		if !math.IsNaN(rep.MinSIMargin) {
			hf.MinSIMargin = rep.MinSIMargin
		}
		snap.Fairness.Hier = hf
		snap.Fairness.Violations = append(snap.Fairness.Violations, rep.Findings...)
	}
	if s.cfg.AuditHook != nil && snap.Fairness != nil {
		s.cfg.AuditHook(snap.Fairness)
	}
	if tm != nil {
		tm.afterAudit = s.clock.Now()
	}

	snap.Time = s.clock.Now().UTC().Format(time.RFC3339Nano)
	if info != nil {
		snap.EpochSeconds = s.clock.Now().Sub(info.started).Seconds()
	}
	s.snap.Store(snap)
	s.epoch++
	if tm != nil {
		tm.afterPublish = s.clock.Now()
	}
	return snap
}

// AgentRow answers GET /v1/allocation?agent=X: one agent's current
// allocation row, computed in O(R) from the published sums without
// touching the rest of the population. It returns nil when the agent is
// not in the table.
func (s *Server) AgentRow(name string) *AgentAllocationResponse {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	e, ok := s.table.get(name)
	if !ok {
		return nil
	}
	resp := &AgentAllocationResponse{
		Schema:     Schema,
		Epoch:      s.snap.Load().Epoch,
		Agent:      e.wire,
		Allocation: s.rowFor(e),
		Queue:      s.queueRollupFor(e),
	}
	if s.credit.Enabled() {
		resp.Budget = e.budget
	}
	return resp
}

// DeltaSince answers GET /v1/allocation?since=E: the agents whose
// declarations changed and the names that departed in epochs (since,
// current], materialized from the changelog ring and the live sums. A
// name is reported by its *final* state in the window — apply Left
// removals first, then Changes upserts. Complete is false when the ring
// no longer covers since+1, in which case the client must fall back to a
// full read.
func (s *Server) DeltaSince(since uint64) *DeltaResponse {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	cur := s.snap.Load().Epoch
	resp := &DeltaResponse{Schema: Schema, Epoch: cur, Since: since, Complete: true}
	if since >= cur {
		// A cursor ahead of this server came from another server,
		// typically one that restarted since and began again at epoch 0:
		// nothing here relates to it, so the client must re-read in full.
		resp.Complete = since == cur
		return resp
	}
	// The window must cover every epoch in (since, cur]. Epoch 0 has no
	// ring entry (nothing changed to produce it), so a cursor at 0 is
	// covered as long as epoch 1's entry is still present.
	if s.deltaLen == 0 || s.deltas[s.deltaHead].epoch > since+1 {
		resp.Complete = false
		return resp
	}
	seen := make(map[string]struct{})
	qseen := make(map[string]struct{})
	for i := 0; i < s.deltaLen; i++ {
		d := &s.deltas[(s.deltaHead+i)%len(s.deltas)]
		if d.epoch <= since {
			continue
		}
		for _, name := range d.upserts {
			seen[name] = struct{}{}
		}
		for _, name := range d.leaves {
			seen[name] = struct{}{}
		}
		for _, name := range d.queueUpserts {
			qseen[name] = struct{}{}
		}
		for _, name := range d.queueDeletes {
			qseen[name] = struct{}{}
		}
	}
	for name := range seen {
		if e, ok := s.table.get(name); ok {
			ch := DeltaChange{
				Agent:      e.wire,
				Allocation: s.rowFor(e),
			}
			if s.credit.Enabled() {
				ch.Budget = e.budget
			}
			resp.Changes = append(resp.Changes, ch)
		} else {
			resp.Left = append(resp.Left, name)
		}
	}
	// Per-queue state travels whole: rollups of *unchanged* queues also
	// move whenever the population shifts, so the delta carries the full
	// published set (queues are few) rather than a diff. A queue touched
	// in the window that no longer exists is reported removed by its
	// *final* state — deleting a queue right after its last agent left
	// therefore yields exactly one removal plus the agent's own Left
	// entry, never a stale rollup.
	resp.Queues = s.pubQueues
	for name := range qseen {
		if !s.tree.Has(name) {
			resp.QueuesRemoved = append(resp.QueuesRemoved, name)
		}
	}
	sortDeltaResponse(resp)
	return resp
}
