package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports on every workload,
// in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p99_ms", "ms"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"cpu_us_per_op", "us"},
}

// httpEndToEnd lists the end-to-end metrics only http-read measures.
// They are printed with the others but are not in the result line, which
// carries the same metric set on every workload.
var httpEndToEnd = []metricDef{
	{"delta_p50_us", "us"},
	{"delta_p99_us", "us"},
	{"snapshot_p50_ms", "ms"},
	{"http_reads_per_s", "1/s"},
}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json
// order.
var perLayer = []metricDef{
	{"bench.lag_p99_ms", "ms"},
	{"bench.ops", "count"},
	{"bench.misses", "count"},
	{"serve.epochs", "count"},
	{"serve.batch_p50", "count"},
	{"serve.batch_max", "count"},
	{"serve.epoch_p50_us", "us"},
	{"serve.epoch_p99_us", "us"},
	{"serve.epoch_max_ms", "ms"},
	{"serve.apply_p50_us", "us"},
	{"serve.apply_p99_us", "us"},
	{"serve.allocate_p50_us", "us"},
	{"serve.allocate_p99_us", "us"},
	{"serve.audit_p50_us", "us"},
	{"serve.audit_p99_us", "us"},
	{"serve.publish_p50_us", "us"},
	{"serve.reply_p50_us", "us"},
	{"serve.wait_p50_ms", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.resums", "count"},
	{"serve.resum_epoch_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.deadline", "count"},
	{"serve.queues", "count"},
	{"serve.http_snapshot_handler_us", "us"},
	{"serve.http_snapshot_bytes", "bytes"},
	{"serve.http_delta_changes", "count"},
	{"core.allocate_full_ms", "ms"},
	{"core.row_ns", "ns"},
	{"core.credit_accrue_ns", "ns"},
	{"hier.allocate_us", "us"},
	{"hier.audit_us", "us"},
	{"hier.agent_delta_ns", "ns"},
	{"hier.resum_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.spans", "count"},
	{"obs.spans_dropped", "count"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.heap_peak_mb", "MiB"},
	{"self.bench_us_per_op", "us"},
	{"self.serve_api_us_per_op", "us"},
	{"self.serve_epoch_us_per_op", "us"},
}

// metric is one measured value; n is the number of samples it rests on.
type metric struct {
	value float64
	n     int
}

// report is one run's outcome.
type report struct {
	// metrics holds every measured value by name; defs orders the ones
	// the result line carries.
	metrics   map[string]metric
	defs      []metricDef
	attempted int
	failed    int
	findings  findings
	// traceFile is the span file a traced run wrote.
	traceFile string
}

func newReport(defs []metricDef) *report {
	return &report{metrics: map[string]metric{}, defs: defs}
}

func (r *report) set(name string, value float64, n int) { r.metrics[name] = metric{value, n} }

// setQuantile reports the q-quantile of sorted samples, multiplied by
// scale to put it in the metric's unit, with the sample count.
func (r *report) setQuantile(name string, s samples, q, scale float64) {
	r.set(name, s.quantile(q)*scale, len(s))
}

// stamp identifies the build and machine a result came from.
func stamp(w workload, seed int64, d time.Duration, traced bool) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("perfbench: workload=%s seed=%d seconds=%g traced=%v gomaxprocs=%d numcpu=%d go=%s commit=%s",
		w.name, seed, d.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
}

// print writes the human-readable table: every measured metric with its
// unit and sample count, then the gate's findings.
func (r *report) print(out io.Writer, header string) {
	fmt.Fprintln(out, header)
	all := append(append(append([]metricDef(nil), endToEnd...), httpEndToEnd...), perLayer...)
	all = append(all, metricDef{"fail_frac", "ratio"})
	for _, d := range all {
		m, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-32s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
	}
	fmt.Fprintf(out, "  attempted=%d failed=%d\n", r.attempted, r.failed)
	if r.traceFile != "" {
		fmt.Fprintf(out, "  spans written to %s\n", r.traceFile)
	}
	for _, f := range r.findings {
		fmt.Fprintln(out, "  CHECK FAILED:", f)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultJSON is the final output line: the gate verdict, op counts and
// the metrics of defs.
func (r *report) resultJSON() ([]byte, error) {
	line := resultLine{
		Correct:   len(r.findings) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range r.defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, m.value)
		}
		line.Metrics[d.name] = jsonMetric{m.value, d.unit}
	}
	return json.Marshal(line)
}

func writeResult(r *report) error {
	data, err := r.resultJSON()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(data))
	return err
}
