package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"ref/internal/check"
	"ref/internal/cobb"
	"ref/internal/core"
	"ref/internal/hier"
	"ref/internal/opt"
	"ref/internal/serve"
)

const (
	// rowSample is how many live agents' rows the gate compares against a
	// from-scratch Equation 13.
	rowSample = 512
	// maxFindings caps the findings one check reports.
	maxFindings = 8
)

// findings collects correctness failures, keeping the first few of each
// check.
type findings []string

func (f *findings) addf(format string, args ...any) {
	if len(*f) < maxFindings {
		*f = append(*f, fmt.Sprintf(format, args...))
	}
}

// watchResult is what the snapshot watcher saw during a phase.
type watchResult struct {
	checked  int
	findings findings
}

// watchSnapshots audits the fairness verdict of each new snapshot it
// sees, polling every 20ms until stop closes.
func watchSnapshots(srv *serve.Server, stop <-chan struct{}) watchResult {
	var res watchResult
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	last := ^uint64(0)
	for {
		if snap := srv.Current(); snap.Epoch != last {
			last = snap.Epoch
			res.checked++
			verdictFindings(&res.findings, snap.Epoch, snap.NumAgents(), snap.Fairness)
		}
		select {
		case <-stop:
			return res
		case <-tick.C:
		}
	}
}

// verdictFindings checks one published fairness verdict: SI, EF and PE,
// and the queue-tree Floors/SI/EF verdicts when the tree is on.
func verdictFindings(f *findings, epoch uint64, agents int, fair *serve.Fairness) {
	if fair == nil {
		if agents > 0 {
			f.addf("epoch %d: %d agents but no fairness audit", epoch, agents)
		}
		return
	}
	if !(fair.SI && fair.EF && fair.PE) {
		f.addf("epoch %d: SI=%v EF=%v PE=%v %v", epoch, fair.SI, fair.EF, fair.PE, fair.Violations)
	}
	if h := fair.Hier; h != nil && !(h.Floors && h.SI && h.EF) {
		f.addf("epoch %d: queue tree Floors=%v SI=%v EF=%v", epoch, h.Floors, h.SI, h.EF)
	}
}

// eq13Reference computes a from-scratch Equation 13 over the mirror's
// live agents in name order and returns how long the allocation took.
func (b *bench) eq13Reference() ([]string, []core.Agent, *core.Allocation, time.Duration, error) {
	names := b.mirror.sortedNames()
	agents := make([]core.Agent, len(names))
	for i, name := range names {
		u, err := cobb.New(1, b.mirror.get(name).elast...)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		agents[i] = core.Agent{Name: name, Utility: u}
	}
	start := time.Now()
	al, err := core.Allocate(agents, capacity)
	return names, agents, al, time.Since(start), err
}

// check is the post-phase correctness gate. It runs once every op has
// completed, so the server's state must equal the mirror's.
func (b *bench) check(p *phase, seed int64) findings {
	f := append(findings(nil), p.watch.findings...)
	if p.watch.checked == 0 {
		f.addf("no snapshot was audited during the phase")
	}
	for _, r := range p.ops {
		if r.fail != "" && r.kind == opRead {
			f.addf("read: %s", r.fail)
		}
	}
	for _, r := range p.reads {
		if r.fail != "" {
			f.addf("HTTP %s read: %s", readNames[r.kind], r.fail)
		}
	}
	snap := b.srv.Current()
	if got, want := snap.NumAgents(), b.mirror.size(); got != want {
		f.addf("server holds %d agents, generator mirror %d", got, want)
	}
	rng := rand.New(rand.NewSource(seed + 7))
	if b.w.tenants {
		b.checkTenants(&f, snap, rng)
		return f
	}
	b.checkRows(&f, rng)
	if b.httpSrv != nil {
		b.checkFullSnapshot(&f)
	}
	return f
}

// checkRows compares sampled point reads against a from-scratch
// Equation 13 over the mirror, within check.DefaultSnapshotUlps.
func (b *bench) checkRows(f *findings, rng *rand.Rand) {
	names, _, ref, _, err := b.eq13Reference()
	if err != nil {
		f.addf("from-scratch Equation 13: %v", err)
		return
	}
	for k := 0; k < min(rowSample, len(names)); k++ {
		i := rng.Intn(len(names))
		row := b.srv.AgentRow(names[i])
		if row == nil {
			f.addf("agent %s missing from the server", names[i])
			continue
		}
		if !slices.Equal(row.Agent.Elasticities, b.mirror.get(names[i]).elast) {
			f.addf("agent %s declares %v, generator sent %v", names[i], row.Agent.Elasticities, b.mirror.get(names[i]).elast)
		}
		for r := range capacity {
			if d := core.UlpDiff(row.Allocation[r], ref.X[i][r]); d > check.DefaultSnapshotUlps {
				f.addf("agent %s resource %d: served %v, from-scratch %v (%d ulps)", names[i], r, row.Allocation[r], ref.X[i][r], d)
			}
		}
	}
}

// checkFullSnapshot reads the full snapshot over HTTP, decodes it, checks
// its agents against the mirror and audits it with check.AuditSnapshot.
func (b *bench) checkFullSnapshot(f *findings) {
	client := newHTTPClient(1)
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	status, err := get(client, "http://"+b.httpSrv.Addr()+"/v1/allocation", &buf)
	if err != nil || status != 200 {
		f.addf("full snapshot read: status %d, %v", status, err)
		return
	}
	var snap serve.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		f.addf("full snapshot does not decode: %v", err)
		return
	}
	if snap.AgentsElided {
		f.addf("full snapshot elided %d agents", snap.AgentCount)
		return
	}
	names := b.mirror.sortedNames()
	if len(snap.Agents) != len(names) {
		f.addf("full snapshot lists %d agents, mirror %d", len(snap.Agents), len(names))
		return
	}
	agents := make([]core.Agent, len(snap.Agents))
	for i, a := range snap.Agents {
		if a.Name != names[i] || !slices.Equal(a.Elasticities, b.mirror.get(names[i]).elast) {
			f.addf("full snapshot agent %d is %s %v, mirror %s", i, a.Name, a.Elasticities, names[i])
			return
		}
		u, err := cobb.New(a.Alpha0, a.Elasticities...)
		if err != nil {
			f.addf("full snapshot agent %s: %v", a.Name, err)
			return
		}
		agents[i] = core.Agent{Name: a.Name, Utility: u}
	}
	for _, finding := range check.AuditSnapshot(agents, snap.Capacity, opt.Alloc(snap.Allocation), 0) {
		f.addf("full snapshot audit: %s", finding)
	}
}

// checkTenants checks the queue rollups' agent counts against the mirror
// and that credit budgets stay inside the ledger's clamp.
func (b *bench) checkTenants(f *findings, snap *serve.Snapshot, rng *rand.Rand) {
	want := map[string]int{}
	parent := map[string]string{}
	for _, q := range snap.Queues {
		parent[q.Name] = q.Parent
	}
	for leaf, n := range b.mirror.leafCounts() {
		for q := hier.CanonicalQueue(leaf); q != ""; q = parent[q] {
			want[q] += n
		}
	}
	for _, q := range snap.Queues {
		if q.Agents != want[q.Name] {
			f.addf("queue %s rollup counts %d agents, mirror %d", q.Name, q.Agents, want[q.Name])
		}
	}
	if len(snap.Queues) != 1+len(orgQuotaShare)+numLeaves {
		f.addf("snapshot has %d queue rollups", len(snap.Queues))
	}
	params := core.CreditParams{HalfLifeSeconds: 30}.WithDefaults()
	inClamp := func(b float64) bool { return b >= params.MinBudget && b <= params.MaxBudget }
	if c := snap.Credit; c == nil || !inClamp(c.TiltMin) || !inClamp(c.TiltMax) {
		f.addf("credit rollup %+v outside [%v, %v]", c, params.MinBudget, params.MaxBudget)
	}
	names := b.mirror.sortedNames()
	for k := 0; k < min(rowSample, len(names)); k++ {
		name := names[rng.Intn(len(names))]
		row := b.srv.AgentRow(name)
		switch {
		case row == nil:
			f.addf("agent %s missing from the server", name)
		case !inClamp(row.Budget):
			f.addf("agent %s budget %v outside [%v, %v]", name, row.Budget, params.MinBudget, params.MaxBudget)
		case row.Agent.Queue != b.mirror.get(name).leaf:
			f.addf("agent %s sits in %q, mirror %q", name, row.Agent.Queue, b.mirror.get(name).leaf)
		}
	}
}
