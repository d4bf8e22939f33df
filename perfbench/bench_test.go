package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"ref/internal/obs"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		w.agents = 500
		if a, b := population(w, 7), population(w, 7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: population differs for one seed", w.name)
		}
		if a, b := population(w, 7), population(w, 8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 give the same population", w.name)
		}
		s1, s2, s3 := newSchedule(w, 7), newSchedule(w, 7), newSchedule(w, 8)
		same := true
		for i := 0; i < 2000; i++ {
			o1, o2, o3 := s1.next(), s2.next(), s3.next()
			if !reflect.DeepEqual(o1, o2) {
				t.Fatalf("%s: op %d differs for one seed: %+v vs %+v", w.name, i, o1, o2)
			}
			same = same && reflect.DeepEqual(o1, o3)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w.name)
		}
	}
}

func TestTenantsPlacement(t *testing.T) {
	w, err := lookupWorkload("tenants")
	if err != nil {
		t.Fatal(err)
	}
	w.agents = 20000
	perLeaf := map[string]int{}
	for _, a := range population(w, 1) {
		perLeaf[a.leaf]++
	}
	if len(perLeaf) != numLeaves {
		t.Fatalf("agents occupy %d of %d leaves", len(perLeaf), numLeaves)
	}
	if head, tail := perLeaf[leafByRank(0)], perLeaf[leafByRank(numLeaves-1)]; head < 5*tail {
		t.Errorf("placement not skewed: rank 0 holds %d, rank %d holds %d", head, numLeaves-1, tail)
	}
	moves, updates := 0, 0
	s := newSchedule(w, 1)
	for i := 0; i < 20000; i++ {
		if o := s.next(); o.kind == opUpdate {
			updates++
			if o.move != "" {
				moves++
			}
		}
	}
	if moves == 0 || moves > updates/10 {
		t.Errorf("%d of %d updates move their agent", moves, updates)
	}
}

// benchmarkFile is the subset of BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	check := func(kind string, defs []metricDef, declared []metricDef) {
		if !reflect.DeepEqual(defs, declared) {
			t.Errorf("%s metrics %v, BENCHMARK.json declares %v", kind, defs, declared)
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layer)
}

// tiny shrinks a workload to a smoke-test size.
func tiny(t *testing.T, name string) workload {
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.agents, w.setups = 300, 2
	return w
}

// resultMetrics builds the result line and returns its metric names.
func resultMetrics(t *testing.T, rep *report) map[string]jsonMetric {
	data, err := rep.resultJSON()
	if err != nil {
		t.Fatal(err)
	}
	var line resultLine
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
		t.Fatalf("result %+v, findings %v", line, rep.findings)
	}
	return line.Metrics
}

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server for a second per workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runEndToEnd(tiny(t, w.name), 3, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			metrics := resultMetrics(t, rep)
			if len(metrics) != len(endToEnd) {
				t.Errorf("result carries %d metrics, want %d", len(metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m := metrics[d.name]; m.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.name, m.Value)
				}
			}
			if w.httpReaders > 0 {
				for _, d := range httpEndToEnd {
					if m, ok := rep.metrics[d.name]; !ok || m.n == 0 {
						t.Errorf("%s not measured", d.name)
					}
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server twice per workload")
	}
	t.Cleanup(func() { obs.InstallTracer(nil) })
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runTraced(tiny(t, w.name), 3, time.Second, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(resultMetrics(t, rep)); got != len(perLayer) {
				t.Errorf("result carries %d metrics, want %d", got, len(perLayer))
			}
			data, err := os.ReadFile(rep.traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tr obs.ChromeTrace
			if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Fatalf("span file: %d events, %v", len(tr.TraceEvents), err)
			}
			if m := rep.metrics["obs.spans_dropped"]; m.value != 0 {
				t.Errorf("%v spans dropped", m.value)
			}
		})
	}
}
