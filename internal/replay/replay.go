package replay

// The replay driver: one trace through the real serve epoch loop, one
// allocation epoch per distinct tick, every published snapshot re-audited
// and invariant-checked inline.
//
// Determinism is engineered, not hoped for:
//
//   - the server runs on a FakeClock anchored at ReplayT0, so snapshot
//     timestamps and epoch durations are pure functions of the trace;
//   - each tick's events are submitted one at a time, each waiting for
//     the epoch loop's dequeue counter (Server.ReceivedMutations) to
//     advance before the next goes in — the mutation queue order, and so
//     the batch composition, is the trace order regardless of goroutine
//     scheduling;
//   - MaxBatch is sized above the largest tick, so the epoch fires only
//     when the driver advances the clock past the batching window — never
//     early on a full batch;
//   - snapshots are digested from their canonical JSON, so "bit-identical
//     across runs and par widths" is checkable as string equality.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ref/internal/check"
	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/fair"
	"ref/internal/hier"
	"ref/internal/opt"
	"ref/internal/serve"
)

// ReplayT0 anchors every replay's FakeClock: simulated tick k publishes
// its epoch at ReplayT0 + k·TickSpacing + the batching window. The paper's
// publication month, like the other determinism anchors in this repo.
var ReplayT0 = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

// TickSpacing is the simulated time between trace ticks.
const TickSpacing = time.Second

// replayWindow is the epoch batching window replays run with. Small
// enough that simulated timestamps stay readable, but the exact value
// only shifts snapshot timestamps — never batch composition.
const replayWindow = 10 * time.Millisecond

// maxViolations bounds the recorded findings so a systematically broken
// run reports a readable prefix, not a megabyte of repetition.
const maxViolations = 48

// Options configures a replay run beyond what the trace itself fixes.
// The zero value is the canonical configuration the goldens pin.
type Options struct {
	// Parallelism is the serve worker-pool width. Replays must be
	// bit-identical across widths; the determinism tests sweep it.
	Parallelism int
	// Shards overrides the agent-table stripe count (0 = serve default).
	Shards int
	// DeltaWindow overrides the changelog ring depth (0 = serve default).
	DeltaWindow int
	// AuditSample sets the server's rotating audit window (0 = serve
	// default). A live population above it makes the server's verdict
	// sampled, which the harness's pairwise oracle re-audit of every
	// snapshot then cross-checks.
	AuditSample int
	// FlightRecorder enables the serve flight recorder with the given
	// ring depth (0 = disabled).
	FlightRecorder int
	// InjectAuditFailureEpoch, when nonzero, flips the SI verdict of
	// that epoch through the serve AuditHook seam. With the flight
	// recorder on, the run then asserts an audit_failure dump was
	// captured — the anomaly-path end-to-end check.
	InjectAuditFailureEpoch uint64
	// MaxUlps bounds the published-vs-from-scratch Equation 13
	// differential (0 = check.DefaultSnapshotUlps).
	MaxUlps int64
	// CreditHalfLife enables the serve credit ledger with the given usage
	// half-life (0 = credits off, the byte-identical classic path). With
	// credits on, the harness runs its own mirror ledger from the
	// published rows and timestamps: predicted budgets must match the
	// published ones bit for bit, every epoch is re-audited against the
	// weighted oracles, and the whole run feeds the long-run credit
	// auditor.
	CreditHalfLife time.Duration
	// CreditMinBudget and CreditMaxBudget clamp the ledger tilt
	// (0 = serve defaults).
	CreditMinBudget, CreditMaxBudget float64
}

// EpochDigest pins one published epoch: identity, population, batch
// size, and the sha256 of the snapshot's canonical JSON.
type EpochDigest struct {
	Epoch  uint64 `json:"epoch"`
	Tick   uint64 `json:"tick"`
	Agents int    `json:"agents"`
	Batch  int    `json:"batch"`
	Digest string `json:"digest"`
}

// Result is one replay's full outcome.
type Result struct {
	// Trace and Seed identify the input.
	Trace string `json:"trace"`
	Seed  int64  `json:"seed"`
	// Events and Epochs count trace events and published epochs.
	Events int `json:"events"`
	Epochs int `json:"epochs"`
	// FinalAgents and PeakAgents are the closing and maximum populations.
	FinalAgents int `json:"final_agents"`
	PeakAgents  int `json:"peak_agents"`
	// Checks counts individual invariant evaluations (oracle runs, delta
	// probes, row comparisons' parent checks — not per-float work).
	Checks int `json:"checks"`
	// Violations lists invariant findings, capped at maxViolations; an
	// empty slice is the pass criterion.
	Violations []string `json:"violations,omitempty"`
	// EpochDigests pins every published epoch in order.
	EpochDigests []EpochDigest `json:"epoch_digests"`
	// Digest is the run digest: sha256 over the per-epoch digests.
	Digest string `json:"digest"`
	// FlightDumps counts anomaly dumps the flight recorder captured.
	FlightDumps int `json:"flight_dumps,omitempty"`

	truncated int
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// GoldenText renders the result in the stable line format the committed
// goldens pin: a header, one line per epoch, and the run digest.
func (r *Result) GoldenText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace=%s seed=%d events=%d epochs=%d\n", r.Trace, r.Seed, r.Events, r.Epochs)
	for _, e := range r.EpochDigests {
		fmt.Fprintf(&b, "epoch=%d tick=%d agents=%d batch=%d digest=%s\n",
			e.Epoch, e.Tick, e.Agents, e.Batch, e.Digest)
	}
	fmt.Fprintf(&b, "final agents=%d peak=%d digest=%s\n", r.FinalAgents, r.PeakAgents, r.Digest)
	return b.String()
}

// mirrorAgent is the harness's independent model of one live tenant.
type mirrorAgent struct {
	wire serve.WireAgent
}

// driver carries one replay's state.
type driver struct {
	t     *Trace
	opts  Options
	srv   *serve.Server
	clock *serve.FakeClock
	res   *Result

	window  time.Duration
	ulps    int64
	dwindow int

	// mirror is the live agent set as the trace implies it; history keeps
	// per-epoch copies for delta-read reconstruction, bounded to the
	// delta window plus slack. queues is the live user-queue set the
	// trace implies (name → declaration), qhistory its per-epoch name
	// sets for delta-removal reconstruction.
	mirror   map[string]mirrorAgent
	history  map[uint64]map[string]mirrorAgent
	queues   map[string]hier.QueueConfig
	qhistory map[uint64]map[string]struct{}

	// pendingEpoch is the epoch about to publish, read by the audit hook
	// on the epoch-loop goroutine.
	pendingEpoch atomic.Uint64

	prevEpoch uint64
	digests   sha256digest

	// Mirror credit ledger (CreditHalfLife > 0): the harness's independent
	// replica of the serve ledger, advanced purely from published rows and
	// snapshot timestamps. ledger holds per-agent accounts, prevRates the
	// share rates stored at the previous publication, prevN its population,
	// prevTime its timestamp, and tickLeft the names that left in the
	// current batch (their server-side ledgers are dropped, so a same-batch
	// rejoin restarts at a neutral account). auditor accumulates the whole
	// run for the long-run credit oracles.
	credit    core.CreditParams
	ledger    map[string]core.CreditAccount
	prevRates map[string]float64
	prevN     int
	prevTime  time.Time
	tickLeft  map[string]bool
	auditor   *fair.LongRunAuditor
}

type sha256digest struct{ h []byte }

func (d *sha256digest) add(s string) { d.h = append(d.h, s...) }
func (d *sha256digest) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:])
}

// Run replays t through a fresh serve instance and returns the full
// result. The returned error covers harness failures (server boot,
// sequencing timeouts); invariant findings land in Result.Violations.
func Run(t *Trace, opts Options) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	maxTick := 0
	cnt := 0
	for i, ev := range t.Events {
		if i > 0 && ev.Tick != t.Events[i-1].Tick {
			cnt = 0
		}
		cnt++
		if cnt > maxTick {
			maxTick = cnt
		}
	}

	clock := serve.NewFakeClock(ReplayT0)
	cfg := serve.Config{
		Capacity: t.Capacity,
		Window:   replayWindow,
		// The epoch must fire on the driver's clock advance, never early
		// on a full batch.
		MaxBatch: maxTick + 1,
		// RequestTimeout runs on the wall clock even under a FakeClock;
		// keep it far above any CI scheduling hiccup.
		RequestTimeout:       5 * time.Minute,
		Parallelism:          opts.Parallelism,
		Clock:                clock,
		Shards:               opts.Shards,
		DeltaWindow:          opts.DeltaWindow,
		InlineSnapshotAgents: 1 << 20, // the harness audits inline snapshots
		FlightRecorder:       opts.FlightRecorder,
		CreditHalfLife:       opts.CreditHalfLife,
		CreditMinBudget:      opts.CreditMinBudget,
		CreditMaxBudget:      opts.CreditMaxBudget,
		AuditSample:          opts.AuditSample,
	}

	d := &driver{
		t:     t,
		opts:  opts,
		clock: clock,
		res: &Result{
			Trace:  t.Name,
			Seed:   t.Seed,
			Events: len(t.Events),
		},
		window:   replayWindow,
		ulps:     opts.MaxUlps,
		mirror:   map[string]mirrorAgent{},
		history:  map[uint64]map[string]mirrorAgent{0: {}},
		queues:   map[string]hier.QueueConfig{},
		qhistory: map[uint64]map[string]struct{}{0: {}},
	}
	if d.ulps <= 0 {
		d.ulps = check.DefaultSnapshotUlps
	}
	if opts.CreditHalfLife > 0 {
		d.credit = core.CreditParams{
			HalfLifeSeconds: opts.CreditHalfLife.Seconds(),
			MinBudget:       opts.CreditMinBudget,
			MaxBudget:       opts.CreditMaxBudget,
		}.WithDefaults()
		if err := d.credit.Validate(); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		d.ledger = map[string]core.CreditAccount{}
		d.prevRates = map[string]float64{}
		d.prevTime = ReplayT0
		d.auditor = fair.NewLongRunAuditor(fair.LongRunConfig{Params: d.credit})
	}
	if opts.InjectAuditFailureEpoch > 0 {
		cfg.AuditHook = func(f *serve.Fairness) {
			if d.pendingEpoch.Load() == opts.InjectAuditFailureEpoch {
				f.SI = false
				f.Violations = append(f.Violations, "replay: injected audit failure")
			}
		}
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("replay: server boot: %w", err)
	}
	d.srv = srv
	d.dwindow = cfg.DeltaWindow
	if d.dwindow <= 0 {
		d.dwindow = 64 // serve default
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()

	for start := 0; start < len(t.Events); {
		end := start
		for end < len(t.Events) && t.Events[end].Tick == t.Events[start].Tick {
			end++
		}
		if err := d.runTick(t.Events[start:end]); err != nil {
			return nil, err
		}
		start = end
	}

	d.res.FinalAgents = len(d.mirror)
	d.res.Epochs = len(d.res.EpochDigests)
	d.res.Digest = d.digests.sum()
	if d.auditor != nil {
		d.res.Checks++
		for _, f := range d.auditor.Findings() {
			d.violate("credit long-run: %s", f)
		}
	}
	if d.res.truncated > 0 {
		d.res.Violations = append(d.res.Violations,
			fmt.Sprintf("... and %d more violations truncated", d.res.truncated))
	}
	d.checkFlightRecorder()
	return d.res, nil
}

// violate records one finding, bounded.
func (d *driver) violate(format string, args ...any) {
	if len(d.res.Violations) >= maxViolations {
		d.res.truncated++
		return
	}
	d.res.Violations = append(d.res.Violations, fmt.Sprintf(format, args...))
}

// waitReceived blocks (on the wall clock) until the epoch loop has
// dequeued want mutations.
func (d *driver) waitReceived(want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for d.srv.ReceivedMutations() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("replay: epoch loop stuck: %d of %d mutations dequeued",
				d.srv.ReceivedMutations(), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// mutReply is one mutation's outcome.
type mutReply struct {
	epoch uint64
	queue string // join/update ack's canonical wire queue
	err   *serve.APIError
}

// plannedMut is one trace event resolved into its serve submission and
// its post-apply mirror effect. Planning happens up front, in trace
// order, against an overlay of the mirror — a queue-move event carries
// no declaration of its own, so its submission wire is the moved
// agent's current declaration as of its position in the tick.
type plannedMut struct {
	submit func() mutReply
	// wire is the agent's post-event wire state (join/update/move);
	// nil for leaves and queue mutations.
	wire *serve.WireAgent
	// ackQueue is true when the reply's queue must equal wire.Queue —
	// set only on the agent's last join/update/move of the tick (and
	// only when no later leave removes it), because serve acks echo the
	// post-batch table state, not the post-event one.
	ackQueue bool
}

// canonWireQueue maps a trace queue name to the canonical serve wire
// form: "" for the default queue.
func canonWireQueue(q string) string {
	if q == hier.DefaultQueue {
		return ""
	}
	return q
}

// planTick resolves the tick's events into submissions and mirror
// effects against an overlay view of the live agent set.
func (d *driver) planTick(evs []Event) ([]plannedMut, error) {
	view := make(map[string]serve.WireAgent, len(evs))
	get := func(name string) (serve.WireAgent, bool) {
		if w, ok := view[name]; ok {
			return w, ok
		}
		m, ok := d.mirror[name]
		return m.wire, ok
	}
	plans := make([]plannedMut, len(evs))
	for i := range evs {
		ev := &evs[i]
		switch ev.Op {
		case OpJoin, OpUpdate:
			util, err := ev.Utility()
			if err != nil { // Validate() makes this unreachable
				return nil, fmt.Errorf("replay: event for %q: %w", ev.Agent, err)
			}
			alpha0 := ev.Alpha0
			if alpha0 == 0 {
				alpha0 = 1
			}
			sub := serve.WireAgent{
				Name:         ev.Agent,
				Alpha0:       alpha0,
				Elasticities: append([]float64(nil), ev.Elasticities...),
				Queue:        ev.Queue,
			}
			post := sub
			post.Queue = canonWireQueue(ev.Queue)
			if ev.Op == OpUpdate && ev.Queue == "" {
				// Empty queue on update inherits the entry's queue.
				if old, ok := get(ev.Agent); ok {
					post.Queue = old.Queue
				}
			}
			join := ev.Op == OpJoin
			plans[i] = plannedMut{wire: &post, submit: func() mutReply {
				var epoch uint64
				var queue string
				var apiErr *serve.APIError
				if join {
					epoch, _, queue, apiErr = d.srv.Join(context.Background(), sub, util)
				} else {
					epoch, _, queue, apiErr = d.srv.Update(context.Background(), sub, util)
				}
				return mutReply{epoch: epoch, queue: queue, err: apiErr}
			}}
			view[ev.Agent] = post
		case OpLeave:
			name := ev.Agent
			plans[i] = plannedMut{submit: func() mutReply {
				epoch, apiErr := d.srv.Leave(context.Background(), name)
				return mutReply{epoch: epoch, err: apiErr}
			}}
			delete(view, name)
			if _, ok := d.mirror[name]; ok {
				view[name] = serve.WireAgent{} // tombstone shadows the mirror
			}
		case OpQueueMove:
			old, ok := get(ev.Agent)
			if !ok || old.Name == "" {
				return nil, fmt.Errorf("replay: queue-move of absent agent %q", ev.Agent)
			}
			util, err := (&Event{Alpha0: old.Alpha0, Elasticities: old.Elasticities}).Utility()
			if err != nil {
				return nil, fmt.Errorf("replay: queue-move of %q: %w", ev.Agent, err)
			}
			sub := old
			// An explicit name is required on the wire: an empty queue on
			// update means "stay put", so a move to the default queue
			// names it outright.
			sub.Queue = hier.CanonicalQueue(ev.Queue)
			post := old
			post.Queue = canonWireQueue(ev.Queue)
			plans[i] = plannedMut{wire: &post, submit: func() mutReply {
				epoch, _, queue, apiErr := d.srv.Update(context.Background(), sub, util)
				return mutReply{epoch: epoch, queue: queue, err: apiErr}
			}}
			view[ev.Agent] = post
		case OpQueueCreate:
			cfg := ev.QueueConfig()
			plans[i] = plannedMut{submit: func() mutReply {
				epoch, apiErr := d.srv.QueueUpsert(context.Background(), cfg)
				return mutReply{epoch: epoch, err: apiErr}
			}}
		case OpQueueDelete:
			name := ev.Queue
			plans[i] = plannedMut{submit: func() mutReply {
				epoch, apiErr := d.srv.QueueDelete(context.Background(), name)
				return mutReply{epoch: epoch, err: apiErr}
			}}
		default:
			return nil, fmt.Errorf("replay: unknown op %q", ev.Op)
		}
	}
	// Acks echo the post-batch table state; only the agent's final
	// surviving declaration of the tick has a checkable queue.
	last := make(map[string]int, len(evs))
	for i := range evs {
		switch evs[i].Op {
		case OpJoin, OpUpdate, OpQueueMove:
			last[evs[i].Agent] = i
		}
	}
	for name, i := range last {
		if w, ok := view[name]; ok && w.Name != "" {
			plans[i].ackQueue = true
		}
	}
	return plans, nil
}

// runTick drives one simulated tick: advance the clock to the tick
// instant, feed the tick's events into the mutation queue in trace order,
// fire the batching window, collect every reply, and run the full
// per-epoch invariant suite on the published snapshot.
func (d *driver) runTick(evs []Event) error {
	tick := evs[0].Tick
	target := ReplayT0.Add(time.Duration(tick) * TickSpacing)
	if dt := target.Sub(d.clock.Now()); dt > 0 {
		d.clock.Advance(dt)
	}

	expectEpoch := d.prevEpoch + 1
	d.pendingEpoch.Store(expectEpoch)

	plans, err := d.planTick(evs)
	if err != nil {
		return err
	}
	replies := make([]mutReply, len(evs))
	var wg sync.WaitGroup
	for i := range evs {
		base := d.srv.ReceivedMutations()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = plans[i].submit()
		}(i)
		if err := d.waitReceived(base + 1); err != nil {
			return err
		}
	}

	// Every event is in the queue in trace order; fire the window.
	d.clock.BlockUntil(1)
	d.clock.Advance(d.window)
	wg.Wait()

	// Apply the tick to the mirror (the trace is pre-validated, so every
	// mutation must have been accepted).
	if d.auditor != nil {
		d.tickLeft = make(map[string]bool)
	}
	for i := range evs {
		ev := &evs[i]
		who := ev.Agent
		if who == "" {
			who = ev.Queue
		}
		if replies[i].err != nil {
			d.violate("epoch %d: %s %q rejected: %v", expectEpoch, ev.Op, who, replies[i].err)
			continue
		}
		if replies[i].epoch != expectEpoch {
			d.violate("epoch %d: %s %q acked in epoch %d", expectEpoch, ev.Op, who, replies[i].epoch)
		}
		if plans[i].ackQueue && replies[i].queue != plans[i].wire.Queue {
			d.violate("epoch %d: %s %q acked queue %q, trace implies %q",
				expectEpoch, ev.Op, who, replies[i].queue, plans[i].wire.Queue)
		}
		switch ev.Op {
		case OpJoin, OpUpdate, OpQueueMove:
			d.mirror[ev.Agent] = mirrorAgent{wire: *plans[i].wire}
		case OpLeave:
			delete(d.mirror, ev.Agent)
			if d.tickLeft != nil {
				d.tickLeft[ev.Agent] = true
			}
		case OpQueueCreate:
			d.queues[ev.Queue] = ev.QueueConfig()
		case OpQueueDelete:
			delete(d.queues, ev.Queue)
		}
	}

	snap := d.srv.Current()
	d.checkEpoch(snap, tick, len(evs), expectEpoch)
	d.prevEpoch = snap.Epoch

	// Retain this epoch's mirror for delta reconstruction, and trim
	// history beyond the ring's reach.
	h := make(map[string]mirrorAgent, len(d.mirror))
	for k, v := range d.mirror {
		h[k] = v
	}
	d.history[snap.Epoch] = h
	qh := make(map[string]struct{}, len(d.queues))
	for name := range d.queues {
		qh[name] = struct{}{}
	}
	d.qhistory[snap.Epoch] = qh
	for e := range d.history {
		if e+uint64(d.dwindow)+2 < snap.Epoch {
			delete(d.history, e)
			delete(d.qhistory, e)
		}
	}

	if n := len(d.mirror); n > d.res.PeakAgents {
		d.res.PeakAgents = n
	}
	return nil
}

// checkEpoch runs the per-epoch invariant suite and records the digest.
func (d *driver) checkEpoch(snap *serve.Snapshot, tick uint64, batch int, expectEpoch uint64) {
	d.res.Checks++
	if snap.Epoch != expectEpoch {
		d.violate("epoch %d: snapshot epoch %d (monotonicity broken)", expectEpoch, snap.Epoch)
	}
	if snap.AgentsElided {
		d.violate("epoch %d: snapshot elided %d agents; harness requires inline snapshots", snap.Epoch, snap.AgentCount)
		d.recordDigest(snap, tick, batch)
		return
	}

	// Mirror equality: the published agent set must be exactly the
	// trace-implied set, sorted by name.
	d.res.Checks++
	names := make([]string, 0, len(d.mirror))
	for name := range d.mirror {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(snap.Agents) != len(names) {
		d.violate("epoch %d: snapshot has %d agents, trace implies %d", snap.Epoch, len(snap.Agents), len(names))
	} else {
		for i, name := range names {
			if got := snap.Agents[i]; got.Name != name || !reflect.DeepEqual(got, d.mirror[name].wire) {
				d.violate("epoch %d: agent %d is %+v, trace implies %+v", snap.Epoch, i, got, d.mirror[name].wire)
			}
		}
	}

	// Oracle re-audit + Equation 13 differential over the published rows.
	if len(snap.Agents) == len(names) {
		agents := make([]core.Agent, len(snap.Agents))
		ok := true
		for i, wa := range snap.Agents {
			util, err := (&Event{Alpha0: wa.Alpha0, Elasticities: wa.Elasticities}).Utility()
			if err != nil {
				d.violate("epoch %d: agent %q carries invalid utility: %v", snap.Epoch, wa.Name, err)
				ok = false
				break
			}
			agents[i] = core.Agent{Name: wa.Name, Utility: util}
		}
		// The mirror ledger settles on every epoch — including empty ones,
		// whose elapsed time still decays nothing but advances the clock.
		if ok && d.auditor != nil {
			d.checkCreditSnapshot(snap, agents)
		}
		if ok && len(names) > 0 && len(snap.Queues) == 0 {
			d.res.Checks += len(check.SnapshotOracles()) + 1
			for _, f := range check.AuditWeightedSnapshot(agents, snap.Capacity,
				opt.Alloc(snap.Allocation), snap.Budgets, d.ulps) {
				d.violate("epoch %d: %s", snap.Epoch, f)
			}
		} else if ok && len(names) > 0 {
			// Flat SI/EF do not apply under a non-trivial tree (an agent
			// in a low-weight queue rightly gets less than the global
			// equal split); the hierarchical audit is the oracle here.
			d.checkHierSnapshot(snap, agents)
		}
	}

	d.checkFairnessVerdict(snap)
	d.checkQueueRollups(snap)
	d.checkDeltaReads(snap)
	d.recordDigest(snap, tick, batch)
}

// checkHierSnapshot is the hierarchical analog of the flat oracle
// re-audit: rebuild the queue tree and its aggregates from scratch from
// the trace-implied state, re-audit the tree allocation from first
// principles (quota floors, sibling-subtree SI and EF), and re-derive
// every agent's row through the shared Equation 13 leaf formula — the
// published incremental rows must match within the ulp budget.
func (d *driver) checkHierSnapshot(snap *serve.Snapshot, agents []core.Agent) {
	budgets := snap.Budgets
	if d.auditor != nil && len(budgets) != len(agents) {
		return // checkCreditSnapshot already recorded the shape violation
	}
	names := make([]string, 0, len(d.queues))
	for name := range d.queues {
		names = append(names, name)
	}
	sort.Strings(names)
	cfg := &hier.TreeConfig{Queues: make([]hier.QueueConfig, 0, len(names))}
	for _, name := range names {
		cfg.Queues = append(cfg.Queues, d.queues[name])
	}
	tree, err := hier.NewTree(snap.Capacity, cfg, hier.Options{})
	if err != nil {
		d.violate("epoch %d: from-scratch tree rebuild: %v", snap.Epoch, err)
		return
	}
	// With the credit ledger on, the tree aggregates budget-scaled
	// effective weights — the same arithmetic the serve table feeds its
	// tree (ScaleWeights is the identity at budget 1, bit for bit).
	weights := make([][]float64, len(agents))
	for i := range agents {
		weights[i] = agents[i].Utility.Rescaled().Alpha
		eff := weights[i]
		if budgets != nil {
			eff = core.ScaleWeights(make([]float64, len(weights[i])), weights[i], budgets[i])
		}
		if err := tree.AgentDelta("", snap.Agents[i].Queue, nil, eff); err != nil {
			d.violate("epoch %d: from-scratch tree rebuild of %q: %v", snap.Epoch, agents[i].Name, err)
			return
		}
	}
	al := tree.Allocate()
	d.res.Checks++
	for _, f := range hier.AuditTree(tree, al, 0).Findings {
		d.violate("epoch %d: %s", snap.Epoch, f)
	}
	d.res.Checks++
	leafSums := make(map[string][]float64)
	for i := range agents {
		q := hier.CanonicalQueue(snap.Agents[i].Queue)
		qa := al.Queue(q)
		if qa == nil {
			d.violate("epoch %d: agent %q sits in queue %q with no allocation", snap.Epoch, agents[i].Name, q)
			continue
		}
		sums, ok := leafSums[q]
		if !ok {
			sums = tree.LeafSums(q, nil)
			leafSums[q] = sums
		}
		budget := 1.0
		if budgets != nil {
			budget = budgets[i]
		}
		row := core.RowFromSumsBudgeted(nil, weights[i], budget, sums, qa.Share, tree.LeafAgents(q))
		for r := range row {
			if core.UlpDiff(row[r], snap.Allocation[i][r]) > d.ulps {
				d.violate("epoch %d: agent %q row[%d] = %v diverges from the from-scratch tree's %v (> %d ulps)",
					snap.Epoch, agents[i].Name, r, snap.Allocation[i][r], row[r], d.ulps)
			}
		}
	}
}

// checkCreditSnapshot advances the harness's mirror credit ledger by one
// settlement and holds the published budgets to it, bit for bit. The
// mirror is fed nothing but what a client reads — prior snapshots' rows,
// timestamps, and the trace's leave events — so agreement proves the
// serve ledger is a pure function of the published stream: decay from the
// elapsed epoch interval, usage accrued at the share rates the previous
// publication implied, fresh joins at an exactly-unit account, and leaves
// (including same-batch leave/rejoin flickers) resetting to neutral. The
// rollup is re-derived the same way, and the epoch feeds the long-run
// credit auditor whose findings land at the end of the run.
func (d *driver) checkCreditSnapshot(snap *serve.Snapshot, agents []core.Agent) {
	d.res.Checks++
	t, err := time.Parse(time.RFC3339Nano, snap.Time)
	if err != nil {
		d.violate("epoch %d: unparseable snapshot time %q: %v", snap.Epoch, snap.Time, err)
		return
	}
	if len(snap.Budgets) != len(snap.Agents) {
		d.violate("epoch %d: %d budgets for %d agents", snap.Epoch, len(snap.Budgets), len(snap.Agents))
		return
	}
	if snap.Credit == nil {
		d.violate("epoch %d: credit ledger enabled but snapshot carries no rollup", snap.Epoch)
		return
	}

	// Settle every tenant the previous epoch published, except those the
	// trace removed this tick — serve drops their ledgers with their
	// entries, so a rejoin restarts at a neutral account.
	dt := t.Sub(d.prevTime).Seconds()
	decay := d.credit.Decay(dt)
	fairDt := 0.0
	if d.prevN > 0 {
		fairDt = dt / float64(d.prevN)
	}
	settled := make(map[string]core.CreditAccount, len(d.prevRates))
	for name, rate := range d.prevRates {
		if d.tickLeft[name] {
			continue
		}
		acc := d.ledger[name]
		acc.Accrue(decay, rate*dt, fairDt)
		settled[name] = acc
	}

	// Predicted budgets must match the published ones exactly; the mirror
	// then re-derives the rollup from its own accounts.
	ledger := make(map[string]core.CreditAccount, len(snap.Agents))
	rates := make(map[string]float64, len(snap.Agents))
	var usageSum, fairSum, budgetSum core.CompSum
	tiltMax, tiltMin := 1.0, 1.0
	if len(snap.Agents) > 0 {
		tiltMax, tiltMin = math.Inf(-1), math.Inf(1)
	}
	for i, wa := range snap.Agents {
		acc := settled[wa.Name] // zero value for fresh joins: budget exactly 1
		if want := d.credit.Budget(acc); snap.Budgets[i] != want {
			d.violate("epoch %d: agent %q budget %v, mirror ledger predicts %v",
				snap.Epoch, wa.Name, snap.Budgets[i], want)
		}
		ledger[wa.Name] = acc
		rates[wa.Name] = core.ShareRate(snap.Allocation[i], snap.Capacity)
		usageSum.Add(acc.Usage)
		fairSum.Add(acc.Fair)
		budgetSum.Add(snap.Budgets[i])
		tiltMax = math.Max(tiltMax, snap.Budgets[i])
		tiltMin = math.Min(tiltMin, snap.Budgets[i])
	}
	c := snap.Credit
	if c.HalfLifeSeconds != d.credit.HalfLifeSeconds ||
		c.MinBudget != d.credit.MinBudget || c.MaxBudget != d.credit.MaxBudget {
		d.violate("epoch %d: rollup echoes params (t½=%v min=%v max=%v), configured (t½=%v min=%v max=%v)",
			snap.Epoch, c.HalfLifeSeconds, c.MinBudget, c.MaxBudget,
			d.credit.HalfLifeSeconds, d.credit.MinBudget, d.credit.MaxBudget)
	}
	if c.TiltMax != tiltMax || c.TiltMin != tiltMin {
		d.violate("epoch %d: rollup tilt [%v,%v], budgets imply [%v,%v]",
			snap.Epoch, c.TiltMin, c.TiltMax, tiltMin, tiltMax)
	}
	if c.UsageSum != usageSum.Value() || c.FairSum != fairSum.Value() {
		d.violate("epoch %d: rollup ledger totals (usage=%v fair=%v), mirror has (usage=%v fair=%v)",
			snap.Epoch, c.UsageSum, c.FairSum, usageSum.Value(), fairSum.Value())
	}
	// BudgetSum folds per-shard compensated sums in shard order, which the
	// mirror cannot reproduce exactly; a tight relative bound stands in.
	if bs := budgetSum.Value(); math.Abs(bs-c.BudgetSum) > 1e-9*math.Max(1, math.Abs(bs)) {
		d.violate("epoch %d: rollup budget sum %v, Σ budgets = %v", snap.Epoch, c.BudgetSum, bs)
	}

	// The long-run oracles baseline against the flat equal split, so only
	// flat epochs feed the auditor — under a queue tree a low-weight
	// queue's tenants rightly average below 1/N of the machine.
	if len(agents) > 0 && len(snap.Queues) == 0 {
		names := make([]string, len(agents))
		utils := make([]cobb.Utility, len(agents))
		for i := range agents {
			names[i] = agents[i].Name
			utils[i] = agents[i].Utility
		}
		if oerr := d.auditor.Observe(names, utils, snap.Budgets,
			opt.Alloc(snap.Allocation), snap.Capacity, dt); oerr != nil {
			d.violate("epoch %d: long-run auditor: %v", snap.Epoch, oerr)
		}
	}

	d.ledger, d.prevRates = ledger, rates
	d.prevN = len(snap.Agents)
	d.prevTime = t
}

// checkQueueRollups asserts the published per-queue rollups against the
// trace-implied queue set: rollups exist exactly while user queues do,
// cover every live queue plus the reserved default, report the
// trace-implied subtree populations, and the point read
// (Server.QueueRollups) is byte-identical to the snapshot's set.
func (d *driver) checkQueueRollups(snap *serve.Snapshot) {
	d.res.Checks++
	if len(d.queues) == 0 {
		if len(snap.Queues) != 0 {
			d.violate("epoch %d: %d queue rollups published with no user queues", snap.Epoch, len(snap.Queues))
		}
	} else if want := len(d.queues) + 1; len(snap.Queues) != want {
		d.violate("epoch %d: %d queue rollups, trace implies %d", snap.Epoch, len(snap.Queues), want)
	} else {
		counts := d.queueAgentCounts()
		seen := make(map[string]bool, len(snap.Queues))
		for _, q := range snap.Queues {
			if _, ok := d.queues[q.Name]; !ok && q.Name != hier.DefaultQueue {
				d.violate("epoch %d: rollup for unknown queue %q", snap.Epoch, q.Name)
				continue
			}
			if seen[q.Name] {
				d.violate("epoch %d: duplicate rollup for queue %q", snap.Epoch, q.Name)
			}
			seen[q.Name] = true
			if q.Agents != counts[q.Name] {
				d.violate("epoch %d: queue %q rollup reports %d agents, trace implies %d",
					snap.Epoch, q.Name, q.Agents, counts[q.Name])
			}
		}
		if !seen[hier.DefaultQueue] {
			d.violate("epoch %d: no rollup for the default queue", snap.Epoch)
		}
		for name := range d.queues {
			if !seen[name] {
				d.violate("epoch %d: no rollup for queue %q", snap.Epoch, name)
			}
		}
	}
	d.res.Checks++
	ep, rolls := d.srv.QueueRollups()
	if ep != snap.Epoch {
		d.violate("epoch %d: QueueRollups answered at epoch %d", snap.Epoch, ep)
		return
	}
	a, errA := json.Marshal(rolls)
	b, errB := json.Marshal(snap.Queues)
	if errA != nil || errB != nil {
		d.violate("epoch %d: rollup marshal: %v / %v", snap.Epoch, errA, errB)
		return
	}
	if !bytes.Equal(a, b) {
		d.violate("epoch %d: QueueRollups point read diverges from the snapshot:\n%s\n%s", snap.Epoch, a, b)
	}
}

// queueAgentCounts folds the mirror into per-queue subtree populations:
// each agent counts toward its leaf and every ancestor.
func (d *driver) queueAgentCounts() map[string]int {
	counts := make(map[string]int, len(d.queues)+1)
	for _, m := range d.mirror {
		q := m.wire.Queue
		if q == "" {
			counts[hier.DefaultQueue]++
			continue
		}
		for cur := q; cur != ""; cur = d.queues[cur].Parent {
			counts[cur]++
		}
	}
	return counts
}

// checkFairnessVerdict asserts the server's own audit verdict: clean on
// every epoch (Equation 13 guarantees SI/EF/PE) except the injected one,
// and sampled exactly when the live population exceeds the audit window.
// On sampled epochs this is the sampled-audit-parity invariant — the
// harness's pairwise oracle re-audit (checkEpoch above) and the server's
// sampled verdict must agree that the allocation is fair.
func (d *driver) checkFairnessVerdict(snap *serve.Snapshot) {
	d.res.Checks++
	f := snap.Fairness
	if len(d.mirror) == 0 {
		if f != nil {
			d.violate("epoch %d: fairness verdict %+v for empty agent set", snap.Epoch, f)
		}
		return
	}
	if f == nil {
		d.violate("epoch %d: no fairness verdict", snap.Epoch)
		return
	}
	window := d.opts.AuditSample
	if window <= 0 {
		window = serve.DefaultAuditSample
	}
	if want := len(d.mirror) > window; f.Sampled != want {
		d.violate("epoch %d: sampled=%v for %d agents and audit window %d", snap.Epoch, f.Sampled, len(d.mirror), window)
	}
	if snap.Epoch == d.opts.InjectAuditFailureEpoch && d.opts.InjectAuditFailureEpoch > 0 {
		if f.SI {
			d.violate("epoch %d: injected audit failure did not surface", snap.Epoch)
		}
		return
	}
	if !f.SI || !f.EF || !f.PE {
		d.violate("epoch %d: server audit failed (si=%v ef=%v pe=%v sampled=%v): %v",
			snap.Epoch, f.SI, f.EF, f.PE, f.Sampled, f.Violations)
	}
}

// checkDeltaReads probes the ?since= changelog against the mirror
// history at three cursors: the previous epoch, the exact oldest covered
// epoch (ring capacity edge), and one past it (which must be refused
// with Complete=false). For covered cursors, applying the delta to the
// mirror-at-cursor must reproduce the current agent set, and every
// returned row must equal the point read — the delta-read-consistency
// invariant.
func (d *driver) checkDeltaReads(snap *serve.Snapshot) {
	cur := snap.Epoch
	oldestCovered := uint64(0)
	if cur > uint64(d.dwindow) {
		oldestCovered = cur - uint64(d.dwindow)
	}
	cursors := []uint64{cur - 1, oldestCovered}
	if oldestCovered > 0 {
		cursors = append(cursors, oldestCovered-1)
	}
	seen := map[uint64]bool{}
	for _, c := range cursors {
		if seen[c] {
			continue
		}
		seen[c] = true
		d.res.Checks++
		resp := d.srv.DeltaSince(c)
		if resp.Epoch != cur {
			d.violate("epoch %d: DeltaSince(%d) answered at epoch %d", cur, c, resp.Epoch)
			continue
		}
		wantComplete := c >= oldestCovered
		if resp.Complete != wantComplete {
			d.violate("epoch %d: DeltaSince(%d) complete=%v, want %v (window %d)",
				cur, c, resp.Complete, wantComplete, d.dwindow)
			continue
		}
		if !resp.Complete {
			continue
		}
		base, ok := d.history[c]
		if !ok {
			continue // history trimmed; nothing to reconstruct against
		}
		rec := make(map[string]mirrorAgent, len(base))
		for k, v := range base {
			rec[k] = v
		}
		for _, name := range resp.Left {
			delete(rec, name)
		}
		for _, ch := range resp.Changes {
			rec[ch.Agent.Name] = mirrorAgent{wire: ch.Agent}
			// Row consistency: the delta row must be byte-identical to
			// the point read and to the inline snapshot row.
			d.checkRowConsistency(snap, ch.Agent.Name, ch.Allocation, ch.Budget, c)
		}
		if len(rec) != len(d.mirror) {
			d.violate("epoch %d: DeltaSince(%d) reconstructs %d agents, want %d", cur, c, len(rec), len(d.mirror))
			continue
		}
		for name, want := range d.mirror {
			got, ok := rec[name]
			if !ok {
				d.violate("epoch %d: DeltaSince(%d) reconstruction misses %q", cur, c, name)
				continue
			}
			if !reflect.DeepEqual(got.wire, want.wire) {
				d.violate("epoch %d: DeltaSince(%d) reconstructs %q as %+v, want %+v",
					cur, c, name, got.wire, want.wire)
			}
		}

		// Rollups ride the delta whole: the client's reconstructed
		// per-queue state is the response's Queues set verbatim, so it
		// must be byte-identical to the snapshot's. QueuesRemoved must
		// name every queue the client knew at the cursor that no longer
		// exists — and never a live one.
		d.res.Checks++
		aq, errA := json.Marshal(resp.Queues)
		bq, errB := json.Marshal(snap.Queues)
		if errA != nil || errB != nil {
			d.violate("epoch %d: delta rollup marshal: %v / %v", cur, errA, errB)
		} else if !bytes.Equal(aq, bq) {
			d.violate("epoch %d: DeltaSince(%d) rollups diverge from the snapshot:\n%s\n%s", cur, c, aq, bq)
		}
		removed := make(map[string]bool, len(resp.QueuesRemoved))
		for _, name := range resp.QueuesRemoved {
			if removed[name] {
				d.violate("epoch %d: DeltaSince(%d) reports %q removed twice", cur, c, name)
			}
			removed[name] = true
			if _, live := d.queues[name]; live {
				d.violate("epoch %d: DeltaSince(%d) reports live queue %q removed", cur, c, name)
			}
		}
		if qbase, ok := d.qhistory[c]; ok {
			for name := range qbase {
				if _, live := d.queues[name]; !live && !removed[name] {
					d.violate("epoch %d: DeltaSince(%d) misses removal of queue %q", cur, c, name)
				}
			}
		}
	}
}

// checkRowConsistency asserts one agent's delta row equals its point
// read and its inline snapshot row, bit for bit — and, with the credit
// ledger on, that the budget rides every read surface identically.
func (d *driver) checkRowConsistency(snap *serve.Snapshot, name string, row []float64, budget float64, cursor uint64) {
	d.res.Checks++
	pt := d.srv.AgentRow(name)
	if pt == nil {
		d.violate("epoch %d: DeltaSince(%d) lists %q but the point read misses it", snap.Epoch, cursor, name)
		return
	}
	if !equalRows(pt.Allocation, row) {
		d.violate("epoch %d: %q delta row %v != point row %v", snap.Epoch, name, row, pt.Allocation)
	}
	i := sort.Search(len(snap.Agents), func(i int) bool { return snap.Agents[i].Name >= name })
	if i >= len(snap.Agents) || snap.Agents[i].Name != name {
		d.violate("epoch %d: %q in delta but not in the inline snapshot", snap.Epoch, name)
		return
	}
	if !equalRows(snap.Allocation[i], row) {
		d.violate("epoch %d: %q delta row %v != snapshot row %v", snap.Epoch, name, row, snap.Allocation[i])
	}
	if d.auditor != nil && i < len(snap.Budgets) {
		if want := snap.Budgets[i]; budget != want || pt.Budget != want {
			d.violate("epoch %d: %q budget reads diverge: delta %v, point %v, snapshot %v",
				snap.Epoch, name, budget, pt.Budget, want)
		}
	}
}

func equalRows(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordDigest hashes the snapshot's canonical JSON into the run record.
func (d *driver) recordDigest(snap *serve.Snapshot, tick uint64, batch int) {
	b, err := json.Marshal(snap)
	if err != nil {
		d.violate("epoch %d: snapshot marshal: %v", snap.Epoch, err)
		return
	}
	sum := sha256.Sum256(b)
	ed := EpochDigest{
		Epoch:  snap.Epoch,
		Tick:   tick,
		Agents: snap.NumAgents(),
		Batch:  batch,
		Digest: hex.EncodeToString(sum[:]),
	}
	d.res.EpochDigests = append(d.res.EpochDigests, ed)
	d.digests.add(ed.Digest)
}

// checkFlightRecorder closes the anomaly loop: with an injected audit
// failure and the recorder on, an audit_failure dump must have been
// captured; with neither, no dumps at all.
func (d *driver) checkFlightRecorder() {
	if d.opts.FlightRecorder <= 0 {
		return
	}
	d.res.Checks++
	fs := d.srv.FlightState()
	d.res.FlightDumps = len(fs.Dumps)
	if d.opts.InjectAuditFailureEpoch > 0 {
		found := false
		for _, dump := range fs.Dumps {
			if dump.Reason == "audit_failure" {
				found = true
			}
		}
		if !found {
			d.violate("injected audit failure produced no audit_failure flight dump (%d dumps)", len(fs.Dumps))
		}
		return
	}
	if len(fs.Dumps) > 0 {
		d.violate("clean replay captured %d flight dumps: first reason %q", len(fs.Dumps), fs.Dumps[0].Reason)
	}
}

// RunScenario generates and replays a built-in scenario in one call.
func RunScenario(name string, cfg ScenarioConfig, opts Options) (*Result, error) {
	t, err := GenerateScenario(name, cfg)
	if err != nil {
		return nil, err
	}
	return Run(t, opts)
}
