package main

import (
	"math"
	"sort"
	"time"
)

// samples holds every observation of one quantity exactly; percentiles
// are read from the sorted values, never from a bucketed histogram.
type samples []float64

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted samples by
// linear interpolation between the two closest ranks, the definition of
// numpy's default and of Python's statistics.quantiles(method="inclusive").
// It is 0 for no samples.
func (s samples) quantile(q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func (s samples) max() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		m = math.Max(m, v)
	}
	return m
}

// median of unsorted values.
func median(v []float64) float64 { return samples(v).sorted().quantile(0.5) }

// tailWindow is the length of the windows a tail percentile is taken
// over. It is longer than the ~3.2 s between two flat-1m resummations, so
// every flat-1m window holds at least one resummation stall.
const tailWindow = 4 * time.Second

// windowed holds a phase's latency samples bucketed by when each op was
// due. A p99 taken as the median of the per-window p99s rests on the
// run's typical windows: a burst of host contention that stretches a few
// epochs moves the window it falls in, not the reported tail.
type windowed struct {
	width time.Duration
	win   []samples
}

// newWindowed splits a phase of length d into equal windows of at least
// tailWindow; a phase shorter than two windows is one window.
func newWindowed(d time.Duration) *windowed {
	n := max(1, int(d/tailWindow))
	return &windowed{width: max(d/time.Duration(n), 1), win: make([]samples, n)}
}

// add records sample v of an op due at offset at into the phase.
func (w *windowed) add(at time.Duration, v float64) {
	i := min(max(int(at/w.width), 0), len(w.win)-1)
	w.win[i] = append(w.win[i], v)
}

// all returns every sample, sorted.
func (w *windowed) all() samples {
	var out samples
	for _, s := range w.win {
		out = append(out, s...)
	}
	return out.sorted()
}

// medianQuantile returns the median over the non-empty windows of each
// window's q-quantile, and 0 when no window has a sample.
func (w *windowed) medianQuantile(q float64) float64 {
	var per []float64
	for _, s := range w.win {
		if len(s) > 0 {
			per = append(per, s.sorted().quantile(q))
		}
	}
	return median(per)
}
