package ref

import (
	"io"

	"ref/internal/hier"
	"ref/internal/serve"
)

// Allocation service — REF as a long-lived daemon (cmd/refserve). Tenants
// join, leave, and re-declare Cobb-Douglas preferences over a JSON HTTP
// API; mutations are coalesced into allocation epochs that each run the
// Equation 13 mechanism once and publish an immutable, fairness-audited
// snapshot. See internal/serve for the full contract.

// ServeConfig parameterizes an allocation server.
type ServeConfig = serve.Config

// AllocationServer is the online allocation service.
type AllocationServer = serve.Server

// AllocationSnapshot is one immutable published epoch.
type AllocationSnapshot = serve.Snapshot

// ServeSchema identifies the refserve JSON wire format.
const ServeSchema = serve.Schema

// WireAgent is one tenant on the refserve wire.
type WireAgent = serve.WireAgent

// AgentAllocation is a GET /v1/allocation?agent=X point read.
type AgentAllocation = serve.AgentAllocationResponse

// AllocationDelta is a GET /v1/allocation?since=E delta read.
type AllocationDelta = serve.DeltaResponse

// ServeError is the service's typed error envelope; the Go-level
// mutation methods (Join, Update, Leave) return it alongside the HTTP
// handlers' JSON encoding of it.
type ServeError = serve.APIError

// CodeUnknownAgent identifies a mutation or point read naming a tenant
// that is not in the agent set.
const CodeUnknownAgent = serve.CodeUnknownAgent

// MetricEpochSeconds names the allocation server's epoch-latency
// histogram on the installed metrics registry (mutation apply +
// Equation 13 + fairness audit + publish). cmd/refload reads it to
// report epoch latency percentiles.
const MetricEpochSeconds = serve.MetricEpochSeconds

// EpochFlightRecord is one epoch's flight-recorder entry: batch
// composition, per-stage apply/allocate/audit/publish durations, audit
// mode and verdict, shed count, and resummation flag.
type EpochFlightRecord = serve.EpochRecord

// FlightRecorderState is the allocation server's flight-recorder
// snapshot — the live ring plus anomaly dumps — served at
// GET /debug/ref/flightrecorder and via AllocationServer.FlightState.
type FlightRecorderState = serve.FlightSnapshot

// Hierarchical multi-tenant fairness — queue trees with quota floors,
// over-quota weights, and order-preserving reclaim (see internal/hier).
// Queues are declared at boot via ServeConfig.Queues or at runtime over
// POST /v1/queues; agents join leaf queues via WireAgent.Queue.

// DefaultQueue is the reserved leaf that holds agents joining without a
// queue; it always exists and cannot be declared or deleted.
const DefaultQueue = hier.DefaultQueue

// QueueConfig is one queue declaration: name, parent, per-resource
// quota floor, and over-quota split weight.
type QueueConfig = hier.QueueConfig

// QueueTreeConfig is a full ref/queues/v1 tree declaration, the format
// refserve's -queues file carries.
type QueueTreeConfig = hier.TreeConfig

// QueueRollup is one queue's published per-epoch state: topology,
// subtree population, fair share, final share, and reclaim volume.
type QueueRollup = serve.QueueRollup

// HierFairness is the hierarchical fairness audit of one epoch: quota
// floors, sibling-subtree sharing incentives and envy-freeness, and the
// reclaim volume moved.
type HierFairness = serve.HierFairness

// DecodeQueueTreeConfig parses and validates a ref/queues/v1 queue-tree
// declaration.
func DecodeQueueTreeConfig(r io.Reader) (*QueueTreeConfig, error) {
	return hier.DecodeConfig(r)
}

// NewAllocationServer validates cfg, publishes the empty epoch-0
// snapshot, and starts the epoch loop. Close the returned server to
// drain it.
func NewAllocationServer(cfg ServeConfig) (*AllocationServer, error) {
	return serve.New(cfg)
}
