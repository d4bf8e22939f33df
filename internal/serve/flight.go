package serve

// This file is the epoch loop's black box: per-epoch flight-recorder
// records in a bounded ring with anomaly-triggered dumps, and
// parent-linked epoch→stage trace spans emitted to the installed
// obs.Tracer. Everything here is off unless Config.FlightRecorder or a
// tracer enables it; runEpoch's disabled path does no extra work.

import (
	"time"

	"ref/internal/obs"
)

// epochTiming holds one epoch's stage boundary timestamps, all read from
// the server's Clock: start→afterApply is the batch apply,
// afterApply→afterAllocate materializes sums and the inline snapshot,
// afterAllocate→afterAudit is the fairness audit, afterAudit→
// afterPublish installs the snapshot, and afterPublish→end replies to
// the batch.
type epochTiming struct {
	start         time.Time
	afterApply    time.Time
	afterAllocate time.Time
	afterAudit    time.Time
	afterPublish  time.Time
	end           time.Time
}

// EpochRecord is one epoch's entry in the flight recorder: enough batch
// composition, stage timing, and audit context to reconstruct what the
// server was doing in the moments before an anomaly.
type EpochRecord struct {
	// Epoch is the published snapshot's version.
	Epoch uint64 `json:"epoch"`
	// Time is the snapshot's publish time (RFC3339Nano, server Clock).
	Time string `json:"time"`
	// Agents is the population after the batch applied.
	Agents int `json:"agents"`
	// BatchSize, Applied, Rejected, Joins, Updates, and Leaves describe
	// the batch's composition and outcome.
	BatchSize int `json:"batch_size"`
	Applied   int `json:"applied"`
	Rejected  int `json:"rejected"`
	Joins     int `json:"joins,omitempty"`
	Updates   int `json:"updates,omitempty"`
	Leaves    int `json:"leaves,omitempty"`
	// Per-stage durations, measured on the server's Clock.
	ApplySeconds    float64 `json:"apply_seconds"`
	AllocateSeconds float64 `json:"allocate_seconds"`
	AuditSeconds    float64 `json:"audit_seconds"`
	PublishSeconds  float64 `json:"publish_seconds"`
	TotalSeconds    float64 `json:"total_seconds"`
	// AuditMode is "exact", "sampled", or "none" (empty agent set).
	AuditMode string `json:"audit_mode"`
	// SI/EF/PE are the audit verdict (false-false-false when AuditMode
	// is "none").
	SI bool `json:"si"`
	EF bool `json:"ef"`
	PE bool `json:"pe"`
	// Violations counts audit findings.
	Violations int `json:"violations,omitempty"`
	// SampleSize is the sampled audit's coverage this epoch.
	SampleSize int `json:"sample_size,omitempty"`
	// SIMarginMin is the smallest sampled SI log margin (0 when the
	// epoch audited exactly; negative means an SI violation).
	SIMarginMin float64 `json:"si_margin_min,omitempty"`
	// Shed counts writes refused since the previous epoch.
	Shed int64 `json:"shed,omitempty"`
	// Resummed reports that this epoch ran an exact resummation of the
	// incremental sums.
	Resummed bool `json:"resummed,omitempty"`
	// Queues counts queues in the published rollup (0 on the flat path).
	Queues int `json:"queues,omitempty"`
	// ReclaimMoved is the allocation volume the order-preserving reclaim
	// pass moved this epoch.
	ReclaimMoved float64 `json:"reclaim_moved,omitempty"`
	// QueueSIMarginMin is the smallest normalized per-queue SI log
	// margin of the hierarchical audit (negative = a queue prefers the
	// entitlement split).
	QueueSIMarginMin float64 `json:"queue_si_margin_min,omitempty"`
	// CreditBudgetSum, CreditTiltMax, and CreditTiltMin mirror the
	// epoch's credit rollup — the ledger's total income and tilt extremes
	// (all 0 while the ledger is disabled).
	CreditBudgetSum float64 `json:"credit_budget_sum,omitempty"`
	CreditTiltMax   float64 `json:"credit_tilt_max,omitempty"`
	CreditTiltMin   float64 `json:"credit_tilt_min,omitempty"`
}

// FlightSnapshot is the serve-side instantiation of the generic
// flight-recorder snapshot, served at GET /debug/ref/flightrecorder.
type FlightSnapshot = obs.FlightSnapshot[EpochRecord]

// FlightState returns the flight recorder's live ring and retained
// anomaly dumps (Enabled: false when the recorder is off).
func (s *Server) FlightState() FlightSnapshot {
	return s.flight.Snapshot()
}

// SLOStats returns the epoch-latency SLO's current state; ok is false
// when no SLO is configured.
func (s *Server) SLOStats() (obs.SLOSnapshot, bool) {
	if s.slo == nil {
		return obs.SLOSnapshot{}, false
	}
	return s.slo.Snapshot(), true
}

// buildEpochRecord assembles one epoch's flight-recorder entry.
func (s *Server) buildEpochRecord(snap *Snapshot, tm *epochTiming, agents, batchSize, applied, rejected,
	joins, updates, leaves int, totalSecs, siMargin float64, shed int64, resummed bool) EpochRecord {
	rec := EpochRecord{
		Epoch:     snap.Epoch,
		Time:      snap.Time,
		Agents:    agents,
		BatchSize: batchSize,
		Applied:   applied,
		Rejected:  rejected,
		Joins:     joins,
		Updates:   updates,
		Leaves:    leaves,
		AuditMode: "none",
		Shed:      shed,
		Resummed:  resummed,
	}
	if tm != nil {
		rec.ApplySeconds = tm.afterApply.Sub(tm.start).Seconds()
		rec.AllocateSeconds = tm.afterAllocate.Sub(tm.afterApply).Seconds()
		rec.AuditSeconds = tm.afterAudit.Sub(tm.afterAllocate).Seconds()
		rec.PublishSeconds = tm.afterPublish.Sub(tm.afterAudit).Seconds()
		rec.TotalSeconds = totalSecs
	}
	if fair := snap.Fairness; fair != nil {
		rec.SI, rec.EF, rec.PE = fair.SI, fair.EF, fair.PE
		rec.Violations = len(fair.Violations)
		if fair.Sampled {
			rec.AuditMode = "sampled"
			rec.SampleSize = fair.SampleSize
			if siMargin == siMargin { // not NaN
				rec.SIMarginMin = siMargin
			}
		} else {
			rec.AuditMode = "exact"
		}
		if h := fair.Hier; h != nil {
			rec.ReclaimMoved = h.ReclaimMoved
			rec.QueueSIMarginMin = h.MinSIMargin
		}
	}
	rec.Queues = len(snap.Queues)
	if c := snap.Credit; c != nil {
		rec.CreditBudgetSum = c.BudgetSum
		rec.CreditTiltMax = c.TiltMax
		rec.CreditTiltMin = c.TiltMin
	}
	return rec
}

// maybeDump fires the flight recorder's anomaly triggers for one epoch:
// a failed fairness audit, an epoch over the latency SLO, or a spike of
// shed writes since the previous epoch. Each trigger is checked
// independently (one epoch can dump for several reasons); per-reason
// re-arming inside the recorder keeps a sustained anomaly from dumping
// every epoch.
func (s *Server) maybeDump(fair *Fairness, latencyBreach bool, shed int64) {
	if fair != nil && (!(fair.SI && fair.EF && fair.PE) ||
		(fair.Hier != nil && !(fair.Hier.Floors && fair.Hier.SI && fair.Hier.EF))) {
		s.dump("audit_failure")
	}
	if latencyBreach {
		s.dump("latency_breach")
	}
	if s.cfg.ShedSpike > 0 && shed >= int64(s.cfg.ShedSpike) {
		s.dump("shed_spike")
	}
}

// dump captures the ring under reason and counts it. The counter is
// bumped first, so a reader that sees the dump in FlightState also sees
// it counted; only this goroutine dumps, so Armed cannot go stale before
// Dump. Dump-file write errors are deliberately non-fatal: the in-memory
// dump is retained and the epoch loop must never fail on observability
// I/O.
func (s *Server) dump(reason string) {
	if s.flight.Armed(reason) {
		obs.Inc(MetricFlightDumps + `{reason="` + reason + `"}`)
		_, _, _ = s.flight.Dump(reason, s.clock.Now())
	}
}

// emitEpochTrace emits the epoch's span tree: one root ref_serve_epoch
// span carrying batch/audit attributes, with apply/allocate/audit/
// publish/reply stage spans parent-linked under it.
func (s *Server) emitEpochTrace(tr *obs.Tracer, tm *epochTiming, snap *Snapshot, agents, batchSize, applied, rejected int) {
	epochID := tr.NewID()
	epochAttr := obs.Attr{Key: "epoch", Value: float64(snap.Epoch)}
	stage := func(name string, from, to time.Time) {
		e := &obs.Event{Parent: epochID, Name: name, Start: from, Dur: to.Sub(from)}
		e.SetAttrs(epochAttr)
		tr.Emit(e)
	}
	stage("ref_serve_epoch_apply", tm.start, tm.afterApply)
	stage("ref_serve_epoch_allocate", tm.afterApply, tm.afterAllocate)
	stage("ref_serve_epoch_audit", tm.afterAllocate, tm.afterAudit)
	stage("ref_serve_epoch_publish", tm.afterAudit, tm.afterPublish)
	stage("ref_serve_epoch_reply", tm.afterPublish, tm.end)

	sampled := 0.0
	if snap.Fairness != nil && snap.Fairness.Sampled {
		sampled = 1
	}
	root := &obs.Event{ID: epochID, Name: "ref_serve_epoch", Start: tm.start, Dur: tm.end.Sub(tm.start)}
	root.SetAttrs(epochAttr,
		obs.Attr{Key: "batch", Value: float64(batchSize)},
		obs.Attr{Key: "applied", Value: float64(applied)},
		obs.Attr{Key: "rejected", Value: float64(rejected)},
		obs.Attr{Key: "agents", Value: float64(agents)},
		obs.Attr{Key: "audit_sampled", Value: sampled})
	tr.Emit(root)
}
