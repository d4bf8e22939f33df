package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"ref/internal/obs"
)

func TestQuantileKnownInputs(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}.sorted()
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{0.1, 1.4}, {0.99, 4.96},
	} {
		if got := s.quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := (samples{7}).quantile(0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := samples(nil).quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

func TestQuantileHundredSamples(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	s = s.sorted()
	if got := s.quantile(0.5); got != 50.5 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", got)
	}
	if got := s.quantile(0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
	if got := s.max(); got != 100 {
		t.Errorf("max = %v", got)
	}
}

func TestWindowedTailIgnoresOneBurst(t *testing.T) {
	// Three 4 s windows each get 1..100; the last also holds a burst.
	w := newWindowed(12 * time.Second)
	for win := 0; win < 3; win++ {
		for v := 1; v <= 100; v++ {
			w.add(time.Duration(win)*4*time.Second+time.Duration(v)*time.Millisecond, float64(v))
		}
	}
	for i := 0; i < 20; i++ {
		w.add(11*time.Second, 1000)
	}
	if got := w.medianQuantile(0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("windowed p99 = %v, want 99.01 from the two quiet windows", got)
	}
	if all := w.all(); len(all) != 320 || all.quantile(0.99) != 1000 {
		t.Errorf("whole phase: %d samples, p99 %v; want 320 and the burst", len(all), all.quantile(0.99))
	}
	// A phase shorter than two windows is one window: the plain p99.
	short := newWindowed(time.Second)
	for v := 100; v >= 1; v-- {
		short.add(time.Duration(v)*time.Millisecond, float64(v))
	}
	short.add(5*time.Second, 100) // past the phase: clamped to its last window
	if got, want := short.medianQuantile(0.99), short.all().quantile(0.99); got != want {
		t.Errorf("one-window p99 = %v, want the plain p99 %v", got, want)
	}
}

func TestReportCarriesSampleCounts(t *testing.T) {
	rep := newReport([]metricDef{{"mutate_p50_ms", "ms"}})
	rep.setQuantile("mutate_p50_ms", samples{0.001, 0.002, 0.003}, 0.5, 1e3)
	m := rep.metrics["mutate_p50_ms"]
	if m.value != 2 || m.n != 3 {
		t.Errorf("mutate_p50_ms = %+v, want value 2 over 3 samples", m)
	}
	if _, err := rep.resultJSON(); err != nil {
		t.Fatal(err)
	}
	rep.defs = append(rep.defs, metricDef{"read_p50_us", "us"})
	if _, err := rep.resultJSON(); err == nil {
		t.Error("result line built without a measured metric")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	base := time.Now()
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	span := func(id, parent uint64, start, dur int) obs.Event {
		return obs.Event{ID: id, Parent: parent, Start: base.Add(ms(start)), Dur: ms(dur)}
	}
	events := []obs.Event{
		span(1, 0, 0, 10),
		span(2, 1, 2, 3),
		span(3, 1, 4, 4), // overlaps the first child
		span(4, 1, 9, 5), // runs past the parent
	}
	got := selfTimes(events)
	// The children cover [2,8] and [9,10] of the parent's [0,10].
	want := []time.Duration{ms(3), ms(3), ms(4), ms(5)}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestGCPausesWithinRuntimeRing(t *testing.T) {
	var p phase
	p.mem0.NumGC, p.mem1.NumGC = 10, 600
	for i := range p.mem1.PauseNs {
		p.mem1.PauseNs[i] = 2000
	}
	rep := newReport(nil)
	runtimeMetrics(rep, &p)
	if m := rep.metrics["runtime.gc_pause_p99_us"]; m.n != len(p.mem1.PauseNs) || m.value != 2 {
		t.Errorf("gc_pause_p99_us = %+v, want 2µs over the %d pauses the runtime keeps", m, len(p.mem1.PauseNs))
	}
	p.mem0.NumGC, p.mem1.NumGC = 10, 10
	runtimeMetrics(rep, &p)
	if m := rep.metrics["runtime.gc_pause_p99_us"]; m.n != 1 {
		t.Errorf("a phase without GC reports %d pauses, want the forced one", m.n)
	}
}
