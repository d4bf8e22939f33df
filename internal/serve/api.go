package serve

import (
	"sort"

	"ref/internal/hier"
	"ref/internal/obs"
)

// Schema identifies the refserve JSON wire format. Every response body —
// snapshots, mutation acks, and error envelopes — carries it so clients
// can dispatch on breaking changes.
const Schema = "ref/serve/v1"

// WireAgent is one tenant as it appears on the wire: a name plus the
// Cobb-Douglas utility the allocator is currently using for it.
type WireAgent struct {
	// Name is the tenant's unique identifier.
	Name string `json:"name"`
	// Alpha0 is the utility's multiplicative scale constant (default 1).
	Alpha0 float64 `json:"alpha0"`
	// Elasticities holds the per-resource elasticities α_r, one per
	// capacity entry.
	Elasticities []float64 `json:"elasticities"`
	// Workload names the catalog workload the elasticities were fitted
	// from, when the tenant joined with a profile instead of raw numbers.
	Workload string `json:"workload,omitempty"`
	// Queue is the leaf queue the tenant belongs to. Empty means the
	// reserved default queue (an explicit "default" is normalized to
	// empty so the wire form is canonical).
	Queue string `json:"queue,omitempty"`
}

// Fairness is the §4 audit of one published allocation.
type Fairness struct {
	// SI reports sharing incentives (Theorem 4).
	SI bool `json:"si"`
	// EF reports envy-freeness (Theorem 5).
	EF bool `json:"ef"`
	// PE reports Pareto efficiency (Theorem 6).
	PE bool `json:"pe"`
	// Violations lists human-readable findings when any property fails.
	Violations []string `json:"violations,omitempty"`
	// Sampled reports that the population exceeds Config.AuditSample, so
	// the market certificate covered the batch-touched agents plus the
	// rotating window rather than the whole table. Each covered agent is
	// certified against every other agent, but an uncovered agent's row
	// waits for the window to reach it, and market clearing is not
	// re-checked (it holds analytically from the running sums).
	Sampled bool `json:"sampled,omitempty"`
	// SampleSize counts the agents a sampled audit covered this epoch
	// (batch-touched agents, repeats included, plus the window).
	SampleSize int `json:"sample_size,omitempty"`
	// Hier is the hierarchical fairness audit between sibling subtrees
	// (hier.AuditTree), present only when user-declared queues exist.
	// Its findings are also appended to Violations.
	Hier *HierFairness `json:"hier,omitempty"`
}

// HierFairness is the queue-tree half of the fairness audit: the
// guarantees between sibling subtrees at every internal node, proved
// from the published aggregates by hier.AuditTree.
type HierFairness struct {
	// Floors: every demand-positive queue received at least its quota.
	Floors bool `json:"floors"`
	// SI: every queue weakly prefers its over-quota bundle to the
	// entitlement split of the pool.
	SI bool `json:"si"`
	// EF: no queue prefers a sibling's over-quota bundle scaled by
	// their entitlement ratio.
	EF bool `json:"ef"`
	// MinSIMargin is the smallest normalized queue SI log-margin this
	// epoch (0 when no queue was eligible).
	MinSIMargin float64 `json:"min_si_margin,omitempty"`
	// ReclaimMoved is the total allocation volume the order-preserving
	// reclaim pass moved this epoch (floors donated by zero-demand
	// subtrees back into the over-quota pools).
	ReclaimMoved float64 `json:"reclaim_moved,omitempty"`
}

// QueueRollup is one queue's per-epoch summary: its declaration knobs,
// subtree population, the phase-1 fair share, the final share after the
// order-preserving reclaim pass, and the reclaim volume it donated or
// received. Snapshots and delta reads carry the full rollup set (queues
// are few — at most hier.MaxQueues — so rollups ride along whole rather
// than as diffs, which keeps client-side reconstruction trivial).
type QueueRollup struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"` // "" = directly under the root
	Leaf   bool   `json:"leaf"`
	// Weight is the over-quota split weight (default 1 materialized).
	Weight float64 `json:"weight"`
	// Quota is the guaranteed per-resource floor.
	Quota []float64 `json:"quota"`
	// Agents is the subtree agent population.
	Agents int `json:"agents"`
	// Fair is the phase-1 share (quota floor + Equation 13 over-quota
	// split); Share is the final share after reclaim. For a leaf, Share
	// is what its direct agents split; for an internal queue, what its
	// children split.
	Fair  []float64 `json:"fair"`
	Share []float64 `json:"share"`
	// ReclaimOut / ReclaimIn are the volumes this queue donated to or
	// received from its siblings in the reclaim pass.
	ReclaimOut float64 `json:"reclaim_out,omitempty"`
	ReclaimIn  float64 `json:"reclaim_in,omitempty"`
}

// CreditRollup is the per-epoch summary of the time-aware credit ledger,
// present on snapshots only when the server runs with a credit half-life.
type CreditRollup struct {
	// HalfLifeSeconds, MinBudget, and MaxBudget echo the ledger's
	// configuration (defaulted), so clients and replayed audits can
	// reconstruct the mechanism without out-of-band knowledge.
	HalfLifeSeconds float64 `json:"half_life_seconds"`
	MinBudget       float64 `json:"min_budget"`
	MaxBudget       float64 `json:"max_budget"`
	// BudgetSum is the total income Σ budgets over the live population —
	// exactly the agent count at parity.
	BudgetSum float64 `json:"budget_sum"`
	// TiltMax / TiltMin are the largest and smallest live budgets (both 1
	// for an empty population or a fully-settled ledger).
	TiltMax float64 `json:"tilt_max"`
	TiltMin float64 `json:"tilt_min"`
	// UsageSum / FairSum are the ledger totals: decayed usage and decayed
	// fair-share integrals summed over the population. On a machine that
	// stays fully allocated the two track each other.
	UsageSum float64 `json:"usage_sum"`
	FairSum  float64 `json:"fair_sum"`
}

// Snapshot is one immutable allocation epoch: the agent set after a batch
// of mutations, the Equation 13 allocation over it, and the fairness
// audit. Snapshots are published atomically and never mutated; Epoch is
// strictly increasing.
type Snapshot struct {
	Schema string `json:"schema"`
	// Epoch counts published snapshots, starting at 0 for the empty
	// snapshot the server boots with.
	Epoch uint64 `json:"epoch"`
	// Time is the clock reading when the snapshot was published
	// (RFC3339Nano).
	Time string `json:"time"`
	// Capacity holds total capacity per resource.
	Capacity []float64 `json:"capacity"`
	// Agents is the current agent set, sorted by name so the snapshot is
	// canonical regardless of intra-batch arrival order. Nil when
	// AgentsElided is set.
	Agents []WireAgent `json:"agents"`
	// Allocation is the agents × resources matrix, rows in Agents order.
	// Nil when AgentsElided is set.
	Allocation [][]float64 `json:"allocation"`
	// AgentsElided reports that the population exceeded the inline
	// threshold, so Agents and Allocation were omitted; read individual
	// rows with GET /v1/allocation?agent=X or catch up with ?since=E.
	AgentsElided bool `json:"agents_elided,omitempty"`
	// AgentCount is the population size when AgentsElided is set.
	AgentCount int `json:"agent_count,omitempty"`
	// Fairness is the SI/EF/PE audit, nil for the empty agent set.
	Fairness *Fairness `json:"fairness,omitempty"`
	// BatchSize counts the mutations coalesced into this epoch.
	BatchSize int `json:"batch_size"`
	// Applied counts batch mutations that changed the agent set.
	Applied int `json:"applied"`
	// Rejected counts batch mutations refused with a typed error.
	Rejected int `json:"rejected"`
	// EpochSeconds is the epoch computation time measured on the
	// server's Clock (0 under a fake clock, by design — it keeps
	// replayed snapshot sequences bit-identical).
	EpochSeconds float64 `json:"epoch_seconds"`
	// Queues is the per-queue rollup of the hierarchical allocation,
	// sorted by name with the default queue included. Nil when no
	// user-declared queues exist (the flat economy), so snapshots of
	// queue-free servers are byte-identical to earlier versions.
	Queues []QueueRollup `json:"queues,omitempty"`
	// Credit is the credit-ledger rollup, present only when the server
	// runs with a credit half-life — snapshots of credit-free servers are
	// byte-identical to earlier versions.
	Credit *CreditRollup `json:"credit,omitempty"`
	// Budgets holds the per-agent credit budgets in Agents order, present
	// only when Credit is set and the agent list is inlined.
	Budgets []float64 `json:"budgets,omitempty"`
}

// NumAgents returns the population size whether or not the agent list
// was materialized inline.
func (s *Snapshot) NumAgents() int {
	if s.AgentsElided {
		return s.AgentCount
	}
	return len(s.Agents)
}

// AgentAllocationResponse is GET /v1/allocation?agent=X: one tenant's
// current declaration and allocation row, answered in O(R) from the
// incremental sums regardless of population size.
type AgentAllocationResponse struct {
	Schema string `json:"schema"`
	// Epoch is the snapshot version the row is consistent with.
	Epoch uint64 `json:"epoch"`
	// Agent is the tenant's current declaration.
	Agent WireAgent `json:"agent"`
	// Allocation is the tenant's current row.
	Allocation []float64 `json:"allocation"`
	// Queue is the rollup of the tenant's leaf queue, present only when
	// user-declared queues exist.
	Queue *QueueRollup `json:"queue,omitempty"`
	// Budget is the tenant's credit-adjusted budget, present only when
	// the credit ledger is enabled (1 at parity).
	Budget float64 `json:"budget,omitempty"`
}

// DeltaChange is one changed tenant in a DeltaResponse.
type DeltaChange struct {
	// Agent is the tenant's declaration as of the response epoch.
	Agent WireAgent `json:"agent"`
	// Allocation is the tenant's current row.
	Allocation []float64 `json:"allocation"`
	// Budget is the tenant's credit-adjusted budget, present only when
	// the credit ledger is enabled.
	Budget float64 `json:"budget,omitempty"`
}

// DeltaResponse is GET /v1/allocation?since=E: every agent whose
// declaration changed, and every name that departed, across epochs
// (since, epoch]. Each name is reported once by its final state in the
// window; clients apply Left removals first, then Changes upserts. Note
// that rows of *unchanged* agents also move when the population shifts —
// a delta-following client tracks declarations exactly but should
// recompute or re-read rows it needs precisely.
type DeltaResponse struct {
	Schema string `json:"schema"`
	// Epoch is the snapshot version the delta is consistent with.
	Epoch uint64 `json:"epoch"`
	// Since echoes the request cursor.
	Since uint64 `json:"since"`
	// Complete reports whether the changelog still covered every epoch
	// after Since; when false the client must fall back to a full read.
	// A cursor at the current epoch is complete with no changes; a cursor
	// ahead of it (issued by a server that has since restarted and begun
	// again at epoch 0) is never complete.
	Complete bool `json:"complete"`
	// Changes lists tenants that joined or re-declared, sorted by name.
	Changes []DeltaChange `json:"changes,omitempty"`
	// Left lists tenants that departed, sorted.
	Left []string `json:"left,omitempty"`
	// Queues is the full current rollup set when user-declared queues
	// exist — rollups of *unchanged* queues also move whenever the
	// population shifts, so the delta carries the whole (small) set and
	// clients reconstruct per-queue state bitwise by replacement.
	Queues []QueueRollup `json:"queues,omitempty"`
	// QueuesRemoved lists queues deleted in the window that no longer
	// exist, sorted; clients drop them after replacing Queues.
	QueuesRemoved []string `json:"queues_removed,omitempty"`
}

// sortDeltaResponse orders Changes and Left by name so the delta wire
// form is canonical regardless of iteration order.
func sortDeltaResponse(d *DeltaResponse) {
	sort.Slice(d.Changes, func(i, j int) bool { return d.Changes[i].Agent.Name < d.Changes[j].Agent.Name })
	sort.Strings(d.Left)
	sort.Strings(d.QueuesRemoved)
}

// JoinResponse acknowledges a POST /v1/agents mutation (and, with the
// updated declaration echoed, a PATCH /v1/agents/{name} re-declaration).
type JoinResponse struct {
	Schema string `json:"schema"`
	// Epoch is the snapshot version the join was applied in.
	Epoch uint64 `json:"epoch"`
	// Agent echoes the joined (or re-declared) tenant.
	Agent WireAgent `json:"agent"`
	// Allocation is the tenant's row of the epoch's allocation.
	Allocation []float64 `json:"allocation"`
}

// LeaveResponse acknowledges a DELETE /v1/agents/{name} mutation.
type LeaveResponse struct {
	Schema string `json:"schema"`
	// Epoch is the snapshot version the departure was applied in.
	Epoch uint64 `json:"epoch"`
	// Name echoes the departed tenant.
	Name string `json:"name"`
}

// QueueResponse acknowledges a POST /v1/queues declaration.
type QueueResponse struct {
	Schema string `json:"schema"`
	// Epoch is the snapshot version the declaration was applied in.
	Epoch uint64 `json:"epoch"`
	// Queue echoes the declared queue.
	Queue hier.QueueConfig `json:"queue"`
}

// QueueDeleteResponse acknowledges a DELETE /v1/queues/{name} mutation.
type QueueDeleteResponse struct {
	Schema string `json:"schema"`
	// Epoch is the snapshot version the deletion was applied in.
	Epoch uint64 `json:"epoch"`
	// Name echoes the deleted queue.
	Name string `json:"name"`
}

// QueuesResponse is GET /v1/queues: the live per-queue rollups (empty
// when no user-declared queues exist).
type QueuesResponse struct {
	Schema string        `json:"schema"`
	Epoch  uint64        `json:"epoch"`
	Queues []QueueRollup `json:"queues"`
}

// HealthResponse is GET /v1/healthz.
type HealthResponse struct {
	Schema string `json:"schema"`
	// Status is "ok" while serving, "draining" after shutdown begins.
	Status string `json:"status"`
	// Epoch is the live snapshot version.
	Epoch uint64 `json:"epoch"`
	// Agents counts tenants in the live snapshot.
	Agents int `json:"agents"`
	// EpochP50Seconds and EpochP99Seconds are interpolated quantiles of
	// the epoch-latency histogram on the installed metrics registry;
	// both are 0 when no registry is installed or no epoch has run.
	EpochP50Seconds float64 `json:"epoch_p50_seconds"`
	EpochP99Seconds float64 `json:"epoch_p99_seconds"`
	// SLO is the epoch-latency objective's rolling state, present only
	// when the server was configured with one.
	SLO *obs.SLOSnapshot `json:"slo,omitempty"`
}

// Error codes returned in ErrorResponse envelopes.
const (
	// CodeBadJSON: the request body is not valid JSON for the expected
	// shape (syntax error, wrong type, or a number outside float64 range).
	CodeBadJSON = "bad_json"
	// CodeBodyTooLarge: the request body exceeds the configured limit.
	CodeBodyTooLarge = "body_too_large"
	// CodeInvalidAgent: the agent specification is malformed (missing or
	// oversized name, neither or both of elasticities/workload).
	CodeInvalidAgent = "invalid_agent"
	// CodeInvalidUtility: the declared utility fails validation
	// (negative, non-finite, all-zero, or overflow-prone elasticities;
	// wrong resource count; non-positive alpha0).
	CodeInvalidUtility = "invalid_utility"
	// CodeUnknownAgent: DELETE for a name not in the agent set.
	CodeUnknownAgent = "unknown_agent"
	// CodeUnknownWorkload: join referenced a workload not in the catalog.
	CodeUnknownWorkload = "unknown_workload"
	// CodeProfileFailed: the profiling sweep or fit for a workload join
	// failed.
	CodeProfileFailed = "profile_failed"
	// CodeQueueFull: the mutation queue is at capacity; retry after the
	// epoch window.
	CodeQueueFull = "queue_full"
	// CodeDraining: the server is shutting down and accepts no new
	// mutations.
	CodeDraining = "draining"
	// CodeDeadline: the request deadline expired before its epoch was
	// published. The mutation may still be applied by a later epoch.
	CodeDeadline = "deadline_exceeded"
	// CodeUnknownQueue: an agent named a queue that does not exist, or a
	// queue mutation referenced an unknown queue or parent.
	CodeUnknownQueue = "unknown_queue"
	// CodeInvalidQueue: the queue declaration is malformed, would break a
	// tree invariant (cycle, depth, quota nesting), or an agent tried to
	// join a non-leaf queue.
	CodeInvalidQueue = "invalid_queue"
	// CodeQueueNotEmpty: DELETE for a queue that still has child queues
	// or agents anywhere in its subtree.
	CodeQueueNotEmpty = "queue_not_empty"
	// CodeBadQuery: a query parameter (e.g. ?since=) failed to parse or
	// conflicting parameters were combined.
	CodeBadQuery = "bad_query"
	// CodeNotFound: no such route.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists but not for this method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeEncodeFailed: the snapshot holds a value JSON cannot encode (a
	// NaN or infinite float), so the server cannot serve it.
	CodeEncodeFailed = "encode_failed"
)

// APIError is the typed error carried in an ErrorResponse.
type APIError struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
	// Status is the HTTP status the envelope was sent with.
	Status int `json:"status"`
	// RetryAfter, when positive, is the backoff hint in seconds that
	// shedding responses also carry as a Retry-After header.
	RetryAfter int `json:"retry_after_seconds,omitempty"`
}

// Error implements error.
func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// ErrorResponse is the uniform error envelope every non-2xx response
// carries.
type ErrorResponse struct {
	Schema string   `json:"schema"`
	Err    APIError `json:"error"`
}
