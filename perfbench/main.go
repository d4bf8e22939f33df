// Command perfbench is the repository's benchmark of the online
// allocation service. It drives the real internal/serve server through
// its public Go and HTTP API with one of three seeded workloads, checks
// that the server's outputs are correct, and prints end-to-end metrics
// (untraced run) or per-layer metrics (traced run). The last line of its
// output is one JSON object: the correctness verdict, the attempted and
// failed op counts, and the metrics.
//
//	bash perfbench/run.sh --workload flat-1m --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// which layer moves which end-to-end number.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ref/internal/obs"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: flat-1m, tenants or http-read")
		seed    = flag.Int64("seed", 1, "seed for the population and the op schedule")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	// The server publishes its metrics to an installed registry, as
	// refserve does, so the epoch path pays the same telemetry cost.
	obs.Install(obs.NewRegistry())

	var rep *report
	if *trace == 1 {
		rep, err = runTraced(w, *seed, d, *out)
	} else {
		rep, err = runEndToEnd(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, stamp(w, *seed, d, *trace == 1))
	if err := writeResult(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(rep.findings) > 0 {
		os.Exit(1)
	}
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runEndToEnd sets the server up w.setups times, runs the timed phase on
// the last set-up and reports the end-to-end metrics.
func runEndToEnd(w workload, seed int64, d time.Duration) (*report, error) {
	pop := population(w, seed)
	var setups []float64
	var b *bench
	for i := 0; i < w.setups; i++ {
		if b != nil {
			// Collect the previous server before the next set-up, so
			// every set-up starts from the same heap.
			b.close()
			b = nil
			runtime.GC()
		}
		var took time.Duration
		var err error
		if b, took, err = setUp(w, pop, 0); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	heap := liveHeapMiB()
	p := b.timedPhase(seed, d)
	rep := newReport(endToEnd)
	rep.findings = b.check(&p, seed)
	b.close()

	rep.set("setup_s", median(setups), len(setups))
	rep.set("heap_mb", heap, 1)
	endToEndMetrics(rep, &p)
	return rep, nil
}

// endToEndMetrics fills the latency, throughput and failure metrics of
// one phase. Failed ops and reads that raced a leave carry no latency
// sample; failures count in fail_frac.
func endToEndMetrics(rep *report, p *phase) {
	mutate, read, httpAgent := newWindowed(p.d), newWindowed(p.d), newWindowed(p.d)
	for _, r := range p.ops {
		rep.attempted++
		switch {
		case r.fail != "":
			rep.failed++
		case r.miss:
		case r.kind.mutation():
			mutate.add(r.due, r.latency().Seconds())
		default:
			read.add(r.due, r.latency().Seconds())
		}
	}
	var byKind [numReadKinds]samples
	for _, r := range p.reads {
		rep.attempted++
		switch {
		case r.fail != "":
			rep.failed++
		case !r.miss:
			byKind[r.kind] = append(byKind[r.kind], (r.end - r.start).Seconds())
			if r.kind == readAgent {
				httpAgent.add(r.start, (r.end - r.start).Seconds())
			}
		}
	}
	if len(p.reads) > 0 {
		// Over HTTP the point read is ?agent=; the in-process AgentRow
		// read is not part of the http-read mix.
		read = httpAgent
	}
	setLatency(rep, "mutate_p50_ms", "mutate_p99_ms", mutate, 1e3)
	setLatency(rep, "read_p50_us", "read_p99_us", read, 1e6)
	done := p.completed()
	rep.set("cpu_us_per_op", p.cpu.Seconds()*1e6/float64(max(done, 1)), done)
	rep.set("fail_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
	if len(p.reads) > 0 {
		delta, snap := byKind[readDelta].sorted(), byKind[readSnapshot].sorted()
		rep.setQuantile("delta_p50_us", delta, 0.5, 1e6)
		rep.setQuantile("delta_p99_us", delta, 0.99, 1e6)
		rep.setQuantile("snapshot_p50_ms", snap, 0.5, 1e3)
		n := len(byKind[readAgent]) + len(delta) + len(snap)
		rep.set("http_reads_per_s", float64(n)/p.wall.Seconds(), n)
	}
}

// setLatency reports a latency's p50 over the whole phase and its p99 as
// the median of the per-window p99s, both with the phase's sample count,
// scaled into the metrics' unit.
func setLatency(rep *report, p50, p99 string, w *windowed, scale float64) {
	all := w.all()
	rep.setQuantile(p50, all, 0.5, scale)
	rep.set(p99, w.medianQuantile(0.99)*scale, len(all))
}
