package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/hier"
	"ref/internal/obs"
	"ref/internal/serve"
)

// runTraced measures the per-layer metrics. It runs the timed phase
// twice on fresh set-ups: untraced, for the runtime counters and the
// CPU baseline of the tracing overhead, then with the flight recorder
// and the obs tracer on, for the epoch stages and the spans. Probes of
// the core and hier layers then run on the traced phase's final
// population, and the spans are written as a Chrome trace.
func runTraced(w workload, seed int64, d time.Duration, outDir string) (*report, error) {
	pop := population(w, seed)
	rep := newReport(perLayer)

	b, _, err := setUp(w, pop, 0)
	if err != nil {
		return nil, err
	}
	liveHeapMiB()
	plain := b.timedPhase(seed, d)
	rep.findings = b.check(&plain, seed)
	b.close()
	b = nil
	runtime.GC()
	plainRep := newReport(nil)
	endToEndMetrics(plainRep, &plain)

	// Size the flight ring and the tracer to keep every epoch and span
	// of the traced phase: flat-1m's ramp runs ~1000 epochs, a timed
	// phase at most a few hundred a second, and each op or HTTP read
	// (~1000/s) emits two spans.
	secs := int(d.Seconds())
	tr := obs.NewTracer(2*int(w.rate)*secs + 4000*secs + 1<<14)
	b, _, err = setUp(w, pop, 4096+500*secs)
	if err != nil {
		return nil, err
	}
	b.tracer = tr
	liveHeapMiB()
	obs.InstallTracer(tr)
	traced := b.timedPhase(seed, d)
	obs.InstallTracer(nil)
	rep.findings = append(rep.findings, b.check(&traced, seed)...)
	tracedRep := newReport(nil)
	endToEndMetrics(tracedRep, &traced)
	rep.attempted = plainRep.attempted + tracedRep.attempted
	rep.failed = plainRep.failed + tracedRep.failed

	flight := b.srv.FlightState()
	b.epochMetrics(rep, &traced, flight.Records)
	b.probeHTTP(rep)
	rep.set("serve.queues", float64(len(b.srv.Current().Queues)), 1)
	b.close()
	if err := b.probeCore(rep); err != nil {
		return nil, err
	}
	if err := b.probeHier(rep, seed); err != nil {
		return nil, err
	}

	benchMetrics(rep, &traced)
	runtimeMetrics(rep, &plain)
	cpuPlain, cpuTraced := plainRep.metrics["cpu_us_per_op"], tracedRep.metrics["cpu_us_per_op"]
	rep.set("obs.trace_overhead_pct", 100*(cpuTraced.value-cpuPlain.value)/cpuPlain.value, cpuTraced.n)
	events := tr.Snapshot()
	emitted := int(tr.NewID() - 1) // every span ID is emitted exactly once
	rep.set("obs.spans", float64(len(events)), len(events))
	rep.set("obs.spans_dropped", float64(emitted-len(events)), emitted)
	selfTimeMetrics(rep, events, tracedRep.attempted-tracedRep.failed)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rep.traceFile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
	if err := writeTrace(rep.traceFile, tr); err != nil {
		return nil, err
	}
	return rep, nil
}

func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs fn reps times, records each call as a probe span, and
// returns the median duration.
func (b *bench) timed(name string, reps int, fn func()) time.Duration {
	durs := make([]float64, reps)
	for i := range durs {
		start := time.Now()
		fn()
		dur := time.Since(start)
		durs[i] = float64(dur)
		if b.tracer != nil {
			b.tracer.Emit(&obs.Event{Name: "probe." + name, Start: start, Dur: dur})
		}
	}
	return time.Duration(median(durs))
}

// epochMetrics reads the traced phase's epochs from the flight recorder
// (keyed by epoch) and pairs each mutation's acknowledgement with its
// epoch to split its latency into epoch work and waiting.
func (b *bench) epochMetrics(rep *report, p *phase, records []serve.EpochRecord) {
	byEpoch := map[uint64]*serve.EpochRecord{}
	var batch, total, apply, allocate, audit, publish, reply, resum samples
	resums := 0
	for i := range records {
		r := &records[i]
		if r.Epoch <= p.epoch0 || r.Epoch > p.epoch1 {
			continue
		}
		byEpoch[r.Epoch] = r
		batch = append(batch, float64(r.BatchSize))
		total = append(total, r.TotalSeconds)
		apply = append(apply, r.ApplySeconds)
		allocate = append(allocate, r.AllocateSeconds)
		audit = append(audit, r.AuditSeconds)
		publish = append(publish, r.PublishSeconds)
		reply = append(reply, r.TotalSeconds-r.ApplySeconds-r.AllocateSeconds-r.AuditSeconds-r.PublishSeconds)
		if r.Resummed {
			resums++
			resum = append(resum, r.TotalSeconds)
		}
		if r.AuditMode != "none" && !(r.SI && r.EF && r.PE) {
			rep.findings.addf("epoch %d: flight record SI=%v EF=%v PE=%v", r.Epoch, r.SI, r.EF, r.PE)
		}
	}
	if want := int(p.epoch1 - p.epoch0); len(byEpoch) != want {
		rep.findings.addf("flight recorder kept %d of the phase's %d epochs", len(byEpoch), want)
	}
	var wait samples
	shed, deadline := 0, 0
	for _, r := range p.ops {
		switch r.fail {
		case serve.CodeQueueFull, serve.CodeDraining:
			shed++
		case serve.CodeDeadline:
			deadline++
		}
		if e := byEpoch[r.epoch]; e != nil && r.kind.mutation() && r.fail == "" {
			wait = append(wait, r.latency().Seconds()-e.TotalSeconds)
		}
	}
	for _, s := range []*samples{&batch, &total, &apply, &allocate, &audit, &publish, &reply, &resum, &wait} {
		*s = s.sorted()
	}
	rep.set("serve.epochs", float64(len(total)), len(total))
	rep.setQuantile("serve.batch_p50", batch, 0.5, 1)
	rep.set("serve.batch_max", batch.max(), len(batch))
	rep.setQuantile("serve.epoch_p50_us", total, 0.5, 1e6)
	rep.setQuantile("serve.epoch_p99_us", total, 0.99, 1e6)
	rep.set("serve.epoch_max_ms", total.max()*1e3, len(total))
	rep.setQuantile("serve.apply_p50_us", apply, 0.5, 1e6)
	rep.setQuantile("serve.apply_p99_us", apply, 0.99, 1e6)
	rep.setQuantile("serve.allocate_p50_us", allocate, 0.5, 1e6)
	rep.setQuantile("serve.allocate_p99_us", allocate, 0.99, 1e6)
	rep.setQuantile("serve.audit_p50_us", audit, 0.5, 1e6)
	rep.setQuantile("serve.audit_p99_us", audit, 0.99, 1e6)
	rep.setQuantile("serve.publish_p50_us", publish, 0.5, 1e6)
	rep.setQuantile("serve.reply_p50_us", reply, 0.5, 1e6)
	rep.setQuantile("serve.wait_p50_ms", wait, 0.5, 1e3)
	rep.setQuantile("serve.wait_p99_ms", wait, 0.99, 1e3)
	rep.set("serve.resums", float64(resums), len(total))
	rep.setQuantile("serve.resum_epoch_ms", resum, 0.5, 1e3)
	rep.set("serve.shed", float64(shed), len(p.ops))
	rep.set("serve.deadline", float64(deadline), len(p.ops))
}

// httpProbeReps is how many times each handler probe runs.
const httpProbeReps = 16

// probeHTTP calls the public handler on a recorder, which times snapshot
// encoding without the loopback round trip, and reads a few deltas
// through it.
func (b *bench) probeHTTP(rep *report) {
	h := b.srv.Handler()
	bytes := 0
	took := b.timed("http_snapshot_handler", httpProbeReps, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/allocation", nil))
		bytes = rec.Body.Len()
	})
	rep.set("serve.http_snapshot_handler_us", float64(took)/1e3, httpProbeReps)
	rep.set("serve.http_snapshot_bytes", float64(bytes), 1)

	cur := b.srv.Current().Epoch
	changes, n := 0, 0
	for back := uint64(1); back <= maxSinceBack && back <= cur; back++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/allocation?since=%d", cur-back), nil))
		var d serve.DeltaResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			rep.findings.addf("delta probe: %v", err)
			continue
		}
		changes += len(d.Changes) + len(d.Left)
		n++
	}
	rep.set("serve.http_delta_changes", float64(changes)/float64(max(n, 1)), n)
}

// probeReps picks how often to repeat a probe so its calls total about
// probeBudget, given one call took first.
func probeReps(first time.Duration, limit int) int {
	const probeBudget = 200 * time.Millisecond
	return max(1, min(limit, int(probeBudget/max(first, time.Microsecond))))
}

// probeCore times the core layer on the final population: one
// from-scratch Equation 13 (what one resummation costs), the O(R) row
// formula, and one credit accrual plus budget.
func (b *bench) probeCore(rep *report) error {
	_, agents, _, first, err := b.eq13Reference()
	if err != nil {
		return err
	}
	reps := probeReps(first, 9)
	took := b.timed("core_allocate_full", reps, func() { _, err = core.Allocate(agents, capacity) })
	if err != nil {
		return err
	}
	rep.set("core.allocate_full_ms", float64(took)/1e6, reps)

	weights := make([][]float64, len(agents))
	sums := make([]float64, len(capacity))
	for i, a := range agents {
		weights[i] = a.Utility.Rescaled().Alpha
		for r, v := range weights[i] {
			sums[r] += v
		}
	}
	calls := max(1<<20, len(agents))
	dst := make([]float64, len(capacity))
	took = b.timed("core_row", 1, func() {
		for i := 0; i < calls; i++ {
			core.RowFromSumsBudgeted(dst, weights[i%len(weights)], 1, sums, capacity, len(weights))
		}
	})
	rep.set("core.row_ns", float64(took)/float64(calls), calls)

	params := core.CreditParams{HalfLifeSeconds: 30}.WithDefaults()
	accounts := make([]core.CreditAccount, len(agents))
	decay := params.Decay(0.01)
	budget := 0.0
	took = b.timed("core_credit_accrue", 1, func() {
		for i := 0; i < calls; i++ {
			a := &accounts[i%len(accounts)]
			a.Accrue(decay, 0.01*float64(i%7)/float64(len(accounts)), 0.01/float64(len(accounts)))
			budget += params.Budget(*a)
		}
	})
	if budget <= 0 {
		return fmt.Errorf("credit probe: budgets sum to %v", budget)
	}
	rep.set("core.credit_accrue_ns", float64(took)/float64(calls), calls)
	return nil
}

// probeHier builds a replica of the tenants tree holding the final
// population and times its operations. On the flat workloads the agents
// are spread over the same tree by the tenants Zipf draw, so the probe
// prices what a queue tree would cost at that population.
func (b *bench) probeHier(rep *report, seed int64) error {
	orgs, leaves := treeQueues()
	tree, err := hier.NewTree(capacity, &hier.TreeConfig{Queues: append(orgs, leaves...)}, hier.Options{})
	if err != nil {
		return err
	}
	names := b.mirror.sortedNames()
	type placed struct {
		leaf   string
		weight []float64
	}
	agents := make([]placed, len(names))
	draw := newLeafDraw(workload{tenants: true}, rand.New(rand.NewSource(seed)))
	for i, name := range names {
		a := b.mirror.get(name)
		u, err := cobb.New(1, a.elast...)
		if err != nil {
			return err
		}
		agents[i] = placed{leaf: a.leaf, weight: u.Rescaled().Alpha}
		if agents[i].leaf == "" {
			agents[i].leaf = draw.next()
		}
	}
	took := b.timed("hier_agent_delta", 1, func() {
		for _, a := range agents {
			if err == nil {
				err = tree.AgentDelta("", a.leaf, nil, a.weight)
			}
		}
	})
	if err != nil {
		return err
	}
	rep.set("hier.agent_delta_ns", float64(took)/float64(max(len(agents), 1)), len(agents))

	var al *hier.Alloc
	took = b.timed("hier_allocate", 25, func() { al = tree.Allocate() })
	rep.set("hier.allocate_us", float64(took)/1e3, 25)
	var audit hier.Report
	took = b.timed("hier_audit", 25, func() { audit = hier.AuditTree(tree, al, 0) })
	rep.set("hier.audit_us", float64(took)/1e3, 25)
	if !audit.Ok() {
		rep.findings.addf("replica tree audit: %v", audit.Findings)
	}
	each := func(visit func(queue string, weight []float64)) {
		for _, a := range agents {
			visit(a.leaf, a.weight)
		}
	}
	took = b.timed("hier_resum", 3, func() { tree.Resum(each) })
	rep.set("hier.resum_ms", float64(took)/1e6, 3)
	return nil
}

// benchMetrics reports the generator's own layer: how late it
// dispatched, how many ops completed and how many raced a leave.
func benchMetrics(rep *report, p *phase) {
	var lag samples
	misses := 0
	for _, r := range p.ops {
		lag = append(lag, (r.start - r.due).Seconds())
		if r.miss {
			misses++
		}
	}
	for _, r := range p.reads {
		if r.miss {
			misses++
		}
	}
	ops := p.completed()
	rep.setQuantile("bench.lag_p99_ms", lag.sorted(), 0.99, 1e3)
	rep.set("bench.ops", float64(ops), ops)
	rep.set("bench.misses", float64(misses), ops)
}

// runtimeMetrics reports the Go runtime's work over the untraced phase.
func runtimeMetrics(rep *report, p *phase) {
	done := max(p.completed(), 1)
	m0, m1 := &p.mem0, &p.mem1
	rep.set("runtime.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(done), done)
	rep.set("runtime.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(done), done)
	cycles := int(m1.NumGC - m0.NumGC)
	rep.set("runtime.gc_cycles", float64(cycles), cycles)
	// Pauses start with the collection forced just before the phase, so
	// a phase that triggers no GC still reports its heap's pause. The
	// runtime keeps only the most recent len(PauseNs) pauses.
	var pauses samples
	first := max(m0.NumGC, 1) - 1
	if ring := uint32(len(m1.PauseNs)); m1.NumGC-first > ring {
		first = m1.NumGC - ring
	}
	for i := first; i < m1.NumGC; i++ {
		pauses = append(pauses, float64(m1.PauseNs[i%uint32(len(m1.PauseNs))]))
	}
	rep.setQuantile("runtime.gc_pause_p99_us", pauses.sorted(), 0.99, 1e-3)
	rep.set("runtime.heap_peak_mb", float64(p.heapPeak)/(1<<20), 1)
}

// layerOf maps a span name to the layer whose self time it counts
// toward; "" for probe spans.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "bench."):
		return "bench"
	case strings.HasPrefix(name, "serve."):
		return "serve_api"
	case strings.HasPrefix(name, "ref_serve_epoch"):
		return "serve_epoch"
	}
	return ""
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(events []obs.Event) []time.Duration {
	type iv struct{ from, to time.Time }
	children := map[uint64][]iv{}
	for _, e := range events {
		if e.Parent != 0 {
			children[e.Parent] = append(children[e.Parent], iv{e.Start, e.Start.Add(e.Dur)})
		}
	}
	out := make([]time.Duration, len(events))
	for i, e := range events {
		end := e.Start.Add(e.Dur)
		kids := children[e.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].from.Before(kids[b].from) })
		covered := time.Duration(0)
		cursor := e.Start
		for _, k := range kids {
			from, to := k.from, k.to
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(end) {
				to = end
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		out[i] = e.Dur - covered
	}
	return out
}

// selfTimeMetrics reports each layer's total self time per completed op.
func selfTimeMetrics(rep *report, events []obs.Event, ops int) {
	total := map[string]time.Duration{}
	for i, self := range selfTimes(events) {
		total[layerOf(events[i].Name)] += self
	}
	for _, layer := range []string{"bench", "serve_api", "serve_epoch"} {
		rep.set("self."+layer+"_us_per_op", float64(total[layer])/1e3/float64(max(ops, 1)), ops)
	}
}
