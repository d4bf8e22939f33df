// Command refload is an open-loop load generator for the allocation
// service: it ramps a population of tenants into a server, then drives a
// timed mixed workload (join/leave/update/read) at a target arrival
// rate, measuring per-operation latency histograms and — in in-process
// mode — the server's own epoch-latency histogram, isolated to the
// timed phase. On exit it writes a run manifest whose records carry the
// interpolated latency percentiles, so CI can assert a p99 bound with a
// JSON query instead of scraping stdout.
//
//	refload -inproc -cap 24,12 -ramp 1000000 -rate 2000 -duration 30s \
//	        -run-manifest refload.json
//	refload -addr 127.0.0.1:8080 -rate 500 -duration 10s
//
// In-process mode (-inproc) boots the allocation server inside the
// generator and drives its Go API directly — no sockets, no JSON — which
// is what makes a million-agent ramp practical on a small machine; it is
// the mode the scale benchmarks use. HTTP mode (-addr) exercises the
// full wire path against an external refserve; epoch percentiles are
// not reported there because the server's registry is remote.
//
// The generator is open-loop: operations are dispatched on a fixed
// schedule derived from -rate regardless of how long earlier operations
// take, so a slow server accumulates latency instead of silently
// slowing the offered load. In-flight operations are bounded by
// -max-inflight; when the bound is hit the generator falls behind
// schedule rather than queueing unboundedly, and the achieved rate in
// the summary exposes the gap.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ref"
	"ref/internal/cliutil"
)

func main() {
	var (
		addr        = flag.String("addr", "", "drive an external server at this address over HTTP")
		inproc      = flag.Bool("inproc", false, "boot the allocation server in-process and drive its Go API")
		capStr      = flag.String("cap", "24,12", "total capacity per resource for -inproc, e.g. 24,12")
		rate        = flag.Float64("rate", 1000, "target operations per second for the timed phase")
		duration    = flag.Duration("duration", 10*time.Second, "timed-phase length")
		mixStr      = flag.String("mix", "join=1,leave=1,update=2,read=6", "operation mix as op=weight pairs")
		ramp        = flag.Int("ramp", 0, "join this many agents before the timed phase starts")
		maxInflight = flag.Int("max-inflight", 512, "bound on concurrently outstanding operations")
		shards      = flag.Int("shards", 256, "agent-table shards for -inproc")
		maxBatch    = flag.Int("max-batch", 1024, "mutations per epoch for -inproc")
		window      = flag.Duration("epoch-window", 10*time.Millisecond, "epoch batching window for -inproc")
		auditSample = flag.Int("audit-sample", 64, "audit window size for -inproc (larger populations get a sampled verdict)")
		drainWait   = flag.Duration("drain-timeout", 60*time.Second, "how long the final drain may take")
		traceEvents = flag.Int("trace", 0, "retain the last N trace spans and embed them in the manifest (0 = off)")
		flightRec   = flag.Int("flight-recorder", 0, "epoch flight-recorder ring size for -inproc (0 = off)")
		sloEpoch    = flag.Duration("slo-epoch", 0, "epoch-latency SLO threshold for -inproc; the run fails if the error budget burns over 1× (0 = no SLO)")
		sloBudget   = flag.Float64("slo-budget", 0.01, "fraction of epochs allowed over the SLO threshold")

		seed        int64
		parallelism int
		manifestOut string
		credit      cliutil.CreditFlags
	)
	cliutil.SeedVar(flag.CommandLine, &seed, "PRNG seed for the operation schedule and elasticities")
	cliutil.ParallelismVar(flag.CommandLine, &parallelism)
	cliutil.RunManifestVar(flag.CommandLine, &manifestOut)
	cliutil.CreditVar(flag.CommandLine, &credit)
	flag.Parse()
	obsOpts := obsOptions{
		traceEvents: *traceEvents,
		flightRec:   *flightRec,
		sloEpoch:    *sloEpoch,
		sloBudget:   *sloBudget,
	}
	if err := run(*addr, *capStr, *mixStr, *rate, *duration, *ramp, seed,
		*maxInflight, *shards, *maxBatch, *auditSample, parallelism,
		*window, *drainWait, *inproc, manifestOut, credit, obsOpts); err != nil {
		fmt.Fprintln(os.Stderr, "refload:", err)
		os.Exit(1)
	}
}

// obsOptions bundles refload's observability flags.
type obsOptions struct {
	traceEvents int
	flightRec   int
	sloEpoch    time.Duration
	sloBudget   float64
}

// opKind enumerates the workload operations.
type opKind int

const (
	opJoin opKind = iota
	opLeave
	opUpdate
	opRead
	numOps
)

var opNames = [numOps]string{"join", "leave", "update", "read"}

// errMiss marks an operation that raced a concurrent leave: the name it
// picked from the live pool was gone by the time the server saw it.
// Misses are counted, not treated as failures — they are inherent to a
// mixed workload, not a server defect.
var errMiss = errors.New("agent already left")

// target abstracts the two drive modes behind the four operations.
type target interface {
	join(name string, elast []float64) error
	update(name string, elast []float64) error
	leave(name string) error
	read(name string) error
}

// inprocTarget drives an in-process allocation server's Go API.
type inprocTarget struct {
	srv *ref.AllocationServer
}

func (t *inprocTarget) join(name string, elast []float64) error {
	u, err := ref.NewUtility(1, elast...)
	if err != nil {
		return err
	}
	_, _, _, apiErr := t.srv.Join(context.Background(), ref.WireAgent{Name: name, Alpha0: 1, Elasticities: elast}, u)
	if apiErr != nil {
		return apiErr
	}
	return nil
}

func (t *inprocTarget) update(name string, elast []float64) error {
	u, err := ref.NewUtility(1, elast...)
	if err != nil {
		return err
	}
	_, _, _, apiErr := t.srv.Update(context.Background(), ref.WireAgent{Name: name, Alpha0: 1, Elasticities: elast}, u)
	if apiErr != nil {
		if apiErr.Code == ref.CodeUnknownAgent {
			return errMiss
		}
		return apiErr
	}
	return nil
}

func (t *inprocTarget) leave(name string) error {
	if _, apiErr := t.srv.Leave(context.Background(), name); apiErr != nil {
		if apiErr.Code == ref.CodeUnknownAgent {
			return errMiss
		}
		return apiErr
	}
	return nil
}

func (t *inprocTarget) read(name string) error {
	if t.srv.AgentRow(name) == nil {
		return errMiss
	}
	return nil
}

// httpTarget drives an external server over the JSON HTTP API.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(addr string, maxInflight int) *httpTarget {
	return &httpTarget{
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        maxInflight,
			MaxIdleConnsPerHost: maxInflight,
		}},
	}
}

// do issues one request and maps the response: 2xx → nil, 404 → errMiss,
// anything else → the server's typed error envelope.
func (t *httpTarget) do(method, path string, body any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = strings.NewReader(string(data))
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Drain so the connection returns to the keep-alive pool.
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	if resp.StatusCode == http.StatusNotFound {
		return errMiss
	}
	var e ref.ServeError
	if json.Unmarshal(payload, &struct {
		Error *ref.ServeError `json:"error"`
	}{&e}) == nil && e.Code != "" {
		return &e
	}
	return fmt.Errorf("HTTP %d from %s %s", resp.StatusCode, method, path)
}

type wireBody struct {
	Name         string    `json:"name,omitempty"`
	Alpha0       float64   `json:"alpha0,omitempty"`
	Elasticities []float64 `json:"elasticities"`
}

func (t *httpTarget) join(name string, elast []float64) error {
	return t.do(http.MethodPost, "/v1/agents", wireBody{Name: name, Alpha0: 1, Elasticities: elast})
}

func (t *httpTarget) update(name string, elast []float64) error {
	return t.do(http.MethodPatch, "/v1/agents/"+name, wireBody{Alpha0: 1, Elasticities: elast})
}

func (t *httpTarget) leave(name string) error {
	return t.do(http.MethodDelete, "/v1/agents/"+name, nil)
}

func (t *httpTarget) read(name string) error {
	return t.do(http.MethodGet, "/v1/allocation?agent="+name, nil)
}

// pool is the live-name set the workload draws from: O(1) random pick,
// O(1) swap-delete take. Its internal PRNG is guarded by the same mutex
// as the slice, so concurrent completions can add/take safely.
type pool struct {
	mu    sync.Mutex
	rng   *rand.Rand
	names []string
	idx   map[string]int
}

func newPool(seed int64, capacity int) *pool {
	return &pool{
		rng:   rand.New(rand.NewSource(seed)),
		names: make([]string, 0, capacity),
		idx:   make(map[string]int, capacity),
	}
}

func (p *pool) add(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.idx[name]; ok {
		return
	}
	p.idx[name] = len(p.names)
	p.names = append(p.names, name)
}

func (p *pool) pick() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.names) == 0 {
		return "", false
	}
	return p.names[p.rng.Intn(len(p.names))], true
}

// take removes and returns a random live name, so no two leave
// operations ever target the same agent.
func (p *pool) take() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.names) == 0 {
		return "", false
	}
	i := p.rng.Intn(len(p.names))
	name := p.names[i]
	last := len(p.names) - 1
	p.names[i] = p.names[last]
	p.idx[p.names[i]] = i
	p.names = p.names[:last]
	delete(p.idx, name)
	return name, true
}

func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.names)
}

// parseMix parses "join=1,leave=1,update=2,read=6" into per-op weights.
func parseMix(s string) ([numOps]float64, error) {
	var mix [numOps]float64
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return mix, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return mix, fmt.Errorf("bad mix weight %q", part)
		}
		found := false
		for k, name := range opNames {
			if name == kv[0] {
				mix[k] = w
				found = true
			}
		}
		if !found {
			return mix, fmt.Errorf("unknown op %q (have join, leave, update, read)", kv[0])
		}
	}
	total := 0.0
	for _, w := range mix {
		total += w
	}
	if total <= 0 {
		return mix, fmt.Errorf("mix %q has no positive weight", s)
	}
	return mix, nil
}

// gen owns the shared workload state.
type gen struct {
	tgt     target
	pool    *pool
	sem     chan struct{}
	wg      sync.WaitGroup
	joinSeq atomic.Uint64
	nRes    int

	opHist [numOps]histRecorder
	errs   atomic.Uint64
	misses atomic.Uint64
	ops    [numOps]atomic.Uint64
}

// histRecorder is the minimal surface refload needs from a histogram.
type histRecorder interface{ Observe(float64) }

// randElast draws a fresh elasticity vector; entries stay well away from
// zero so every utility validates.
func randElast(rng *rand.Rand, nRes int) []float64 {
	elast := make([]float64, nRes)
	for r := range elast {
		elast[r] = 0.1 + 0.9*rng.Float64()
	}
	return elast
}

// dispatch runs one operation asynchronously, bounded by the in-flight
// semaphore. The operation kind and the fresh elasticity vector are
// decided by the caller (single-threaded schedule PRNG); name picks
// happen inside the goroutine against the live pool.
func (g *gen) dispatch(kind opKind, elast []float64) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	go func() {
		defer func() { <-g.sem; g.wg.Done() }()
		// An empty pool turns pool-dependent ops into joins so the
		// workload can bootstrap itself without a ramp.
		name, ok := "", false
		switch kind {
		case opLeave:
			name, ok = g.pool.take()
		case opUpdate, opRead:
			name, ok = g.pool.pick()
		}
		if kind != opJoin && !ok {
			kind = opJoin
		}
		if kind == opJoin {
			name = fmt.Sprintf("load-%09d", g.joinSeq.Add(1))
		}
		start := time.Now()
		var err error
		switch kind {
		case opJoin:
			err = g.tgt.join(name, elast)
		case opLeave:
			err = g.tgt.leave(name)
		case opUpdate:
			err = g.tgt.update(name, elast)
		case opRead:
			err = g.tgt.read(name)
		}
		g.opHist[kind].Observe(time.Since(start).Seconds())
		g.ops[kind].Add(1)
		switch {
		case err == nil:
			if kind == opJoin {
				g.pool.add(name)
			}
		case errors.Is(err, errMiss):
			g.misses.Add(1)
		default:
			g.errs.Add(1)
		}
	}()
}

// diffHist isolates the samples observed between two snapshots of the
// same cumulative histogram: bucket-by-bucket count subtraction, aligned
// by upper bound (both snapshots share the registry's bucket ladder;
// compaction only trims all-zero prefixes/suffixes).
func diffHist(pre, post ref.LatencyHistogram) ref.LatencyHistogram {
	cumAt := func(ub float64) uint64 {
		var c uint64
		for _, b := range pre.Buckets {
			if b.UpperBound <= ub {
				c = b.CumulativeCount
			} else {
				break
			}
		}
		return c
	}
	d := ref.LatencyHistogram{
		Count: post.Count - pre.Count,
		Sum:   post.Sum - pre.Sum,
		Min:   post.Min,
		Max:   post.Max,
	}
	for _, b := range post.Buckets {
		d.Buckets = append(d.Buckets, ref.HistogramBucket{
			UpperBound:      b.UpperBound,
			CumulativeCount: b.CumulativeCount - cumAt(b.UpperBound),
		})
	}
	return d
}

func run(addr, capStr, mixStr string, rate float64, duration time.Duration, ramp int, seed int64,
	maxInflight, shards, maxBatch, auditSample, parallelism int,
	window, drainWait time.Duration, inproc bool, manifestOut string,
	credit cliutil.CreditFlags, obsOpts obsOptions) error {
	if inproc == (addr != "") {
		return fmt.Errorf("need exactly one of -inproc or -addr")
	}
	if err := credit.Validate(); err != nil {
		return err
	}
	if credit.Enabled() && !inproc {
		return fmt.Errorf("-half-life shapes the in-process server; in HTTP mode start refserve with it instead")
	}
	if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
		return fmt.Errorf("bad -rate %v", rate)
	}
	if maxInflight < 1 {
		return fmt.Errorf("bad -max-inflight %d", maxInflight)
	}
	mix, err := parseMix(mixStr)
	if err != nil {
		return err
	}

	reg := ref.NewMetricsRegistry()
	ref.InstallMetrics(reg)
	if obsOpts.traceEvents > 0 {
		ref.InstallTracer(ref.NewTracer(obsOpts.traceEvents))
	}
	var manifest *ref.RunManifest
	if manifestOut != "" {
		manifest = ref.NewRunManifest("refload", os.Args[1:])
		manifest.Parallelism = ref.ResolveParallelism(parallelism)
	}

	var tgt target
	var srv *ref.AllocationServer
	nRes := 2
	if inproc {
		capacity, err := cliutil.ParseFloats(capStr)
		if err != nil {
			return err
		}
		nRes = len(capacity)
		srv, err = ref.NewAllocationServer(ref.ServeConfig{
			Capacity:        capacity,
			Window:          window,
			MaxBatch:        maxBatch,
			Parallelism:     parallelism,
			Shards:          shards,
			AuditSample:     auditSample,
			FlightRecorder:  obsOpts.flightRec,
			SLOEpochLatency: obsOpts.sloEpoch,
			SLOBudget:       obsOpts.sloBudget,
			CreditHalfLife:  credit.HalfLife,
			CreditMinBudget: credit.MinBudget,
			CreditMaxBudget: credit.MaxBudget,
		})
		if err != nil {
			return err
		}
		tgt = &inprocTarget{srv: srv}
		fmt.Printf("refload: in-process server up (capacity %v, %d shards, max batch %d)\n",
			capacity, shards, maxBatch)
	} else {
		ht := newHTTPTarget(addr, maxInflight)
		tgt = ht
		// Probe the capacity so elasticity vectors have the right arity.
		resp, err := ht.client.Get(ht.base + "/v1/allocation")
		if err != nil {
			return fmt.Errorf("probing %s: %v", addr, err)
		}
		var snap struct {
			Capacity []float64 `json:"capacity"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&snap)
		resp.Body.Close()
		if err != nil || len(snap.Capacity) == 0 {
			return fmt.Errorf("probing %s: no capacity in snapshot (%v)", addr, err)
		}
		nRes = len(snap.Capacity)
		fmt.Printf("refload: driving http://%s (capacity %v)\n", addr, snap.Capacity)
	}

	g := &gen{
		tgt:  tgt,
		pool: newPool(seed+1, ramp+1024),
		sem:  make(chan struct{}, maxInflight),
		nRes: nRes,
	}
	for k := range g.opHist {
		g.opHist[k] = reg.Histogram("refload_" + opNames[opKind(k)] + "_seconds")
	}
	rng := rand.New(rand.NewSource(seed))

	// Ramp: join the initial population as fast as the in-flight bound
	// allows. Names are distinct from the timed phase's join sequence.
	if ramp > 0 {
		fmt.Printf("refload: ramping %d agents\n", ramp)
		rampStart := time.Now()
		for i := 0; i < ramp; i++ {
			name := fmt.Sprintf("ramp-%09d", i)
			elast := randElast(rng, nRes)
			g.sem <- struct{}{}
			g.wg.Add(1)
			go func() {
				defer func() { <-g.sem; g.wg.Done() }()
				if err := tgt.join(name, elast); err != nil {
					g.errs.Add(1)
				} else {
					g.pool.add(name)
				}
			}()
		}
		g.wg.Wait()
		rampSecs := time.Since(rampStart).Seconds()
		fmt.Printf("refload: ramp done in %.2fs (%d live agents, %.0f joins/s)\n",
			rampSecs, g.pool.size(), float64(ramp)/rampSecs)
		if manifest != nil {
			manifest.Record("ramp", rampSecs, nil)
		}
	}

	// Snapshot the epoch histogram so the timed phase's percentiles are
	// computed over its own epochs, not the ramp's.
	var epochPre ref.LatencyHistogram
	if inproc {
		epochPre = ref.SnapshotMetrics().Histograms[ref.MetricEpochSeconds]
	}

	// Timed phase: fixed-schedule open loop.
	cum := mix
	for k := 1; k < int(numOps); k++ {
		cum[k] += cum[k-1]
	}
	interval := time.Duration(float64(time.Second) / rate)
	fmt.Printf("refload: open loop at %.0f ops/s for %s (mix %s)\n", rate, duration, mixStr)
	phaseStart := time.Now()
	next := phaseStart
	dispatched := 0
	for time.Since(phaseStart) < duration {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		pick := rng.Float64() * cum[numOps-1]
		kind := opRead
		for k := opJoin; k < numOps; k++ {
			if pick < cum[k] {
				kind = k
				break
			}
		}
		// Every op carries fresh elasticities: joins and updates use
		// them, and leave/read need them if an empty pool demotes the op
		// to a bootstrap join.
		g.dispatch(kind, randElast(rng, nRes))
		dispatched++
	}
	g.wg.Wait()
	phaseSecs := time.Since(phaseStart).Seconds()
	if manifest != nil {
		manifest.Record("load", phaseSecs, nil)
	}

	// Drain before reading final metrics so every accepted mutation's
	// epoch is in the histograms.
	var drainErr error
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		drainErr = srv.Close(ctx)
		cancel()
		if manifest != nil {
			manifest.Record("drain", 0, drainErr)
		}
	}

	snap := ref.SnapshotMetrics()
	fmt.Printf("refload: %d ops in %.2fs (%.0f/s achieved, target %.0f/s), %d live agents, %d misses, %d errors\n",
		dispatched, phaseSecs, float64(dispatched)/phaseSecs, rate,
		g.pool.size(), g.misses.Load(), g.errs.Load())
	for k := opJoin; k < numOps; k++ {
		h, ok := snap.Histograms["refload_"+opNames[k]+"_seconds"]
		if !ok || h.Count == 0 {
			continue
		}
		p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
		fmt.Printf("refload: %-6s n=%-8d p50=%-10s p99=%-10s max=%s\n",
			opNames[k], h.Count, fmtDur(p50), fmtDur(p99), fmtDur(h.Max))
		if manifest != nil {
			manifest.Record("p50:"+opNames[k], p50, nil)
			manifest.Record("p99:"+opNames[k], p99, nil)
		}
	}
	if inproc {
		all := snap.Histograms[ref.MetricEpochSeconds]
		phase := diffHist(epochPre, all)
		if phase.Count > 0 {
			p50, p99 := phase.Quantile(0.5), phase.Quantile(0.99)
			fmt.Printf("refload: epoch  n=%-8d p50=%-10s p99=%-10s max=%s (timed phase)\n",
				phase.Count, fmtDur(p50), fmtDur(p99), fmtDur(phase.Max))
			if manifest != nil {
				manifest.Record("p50:epoch", p50, nil)
				manifest.Record("p99:epoch", p99, nil)
			}
		}
		if all.Count > 0 && manifest != nil {
			manifest.Record("p99:epoch:all", all.Quantile(0.99), nil)
		}
	}
	// The SLO verdict is an assertion, not just telemetry: a burn rate
	// over 1 means the run spent more than its whole error budget, and
	// refload exits nonzero so CI fails on the latency regression.
	var sloErr error
	if srv != nil {
		if slo, ok := srv.SLOStats(); ok {
			fmt.Printf("refload: SLO %s: %d good, %d bad, burn rate %.3f\n",
				slo.Name, slo.Good, slo.Bad, slo.BurnRate)
			if manifest != nil {
				manifest.SLO = append(manifest.SLO, slo)
			}
			if slo.BurnRate > 1 {
				sloErr = fmt.Errorf("SLO %s burned %.3f× its error budget (%d/%d epochs over threshold)",
					slo.Name, slo.BurnRate, slo.Bad, slo.Good+slo.Bad)
			}
		}
		fs := srv.FlightState()
		if fs.Enabled && len(fs.Dumps) > 0 {
			fmt.Printf("refload: flight recorder captured %d anomaly dumps\n", len(fs.Dumps))
			for _, d := range fs.Dumps {
				fmt.Printf("refload:   dump seq=%d reason=%s (%d records)\n", d.Seq, d.Reason, len(d.Records))
			}
		}
	}
	if manifest != nil {
		manifest.AttachTrace(ref.InstalledTracer())
		if werr := manifest.WriteFile(manifestOut); werr != nil {
			return werr
		}
		fmt.Printf("refload: run manifest written to %s\n", manifestOut)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	if sloErr != nil {
		return sloErr
	}
	if e := g.errs.Load(); e > 0 {
		return fmt.Errorf("%d operations failed", e)
	}
	return nil
}

// fmtDur renders a latency in seconds at a readable precision.
func fmtDur(secs float64) string {
	return time.Duration(secs * float64(time.Second)).Round(time.Microsecond).String()
}
