package obs

import (
	"math"
	"testing"
)

// ladder recomputes the default bucket bounds exactly as the histogram
// does (repeated ×4), so boundary tests compare bit-identical floats.
func ladder() []float64 {
	return defaultBuckets()
}

// bucketOf observes a single value in a fresh histogram and returns the
// upper bound of the bucket it landed in. Snapshots skip leading empty
// buckets, so the first bucket with a count is the landing bucket.
func bucketOf(t *testing.T, v float64) float64 {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("x")
	h.Observe(v)
	s := h.snapshot()
	for _, b := range s.Buckets {
		if b.CumulativeCount > 0 {
			return b.UpperBound
		}
	}
	t.Fatalf("sample %v landed in no bucket", v)
	return math.NaN()
}

// TestHistogramBucketBoundaries pins the factor-4 ladder edge semantics:
// upper bounds are inclusive, values just above a bound move to the next
// bucket, everything at or below the first bound lands in the first
// bucket, and everything above the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := ladder()
	if len(bounds) != 27 || bounds[0] != 1e-6 {
		t.Fatalf("ladder changed: %d buckets starting at %v", len(bounds), bounds[0])
	}
	// Every exact bound is inclusive: the sample lands under that bound.
	for i, b := range bounds {
		if got := bucketOf(t, b); got != b {
			t.Errorf("bound %d: sample at %v landed under %v, want inclusive", i, b, got)
		}
		// Just above the bound falls to the next bucket (or +Inf after the
		// last rung).
		want := math.Inf(1)
		if i+1 < len(bounds) {
			want = bounds[i+1]
		}
		if got := bucketOf(t, math.Nextafter(b, math.Inf(1))); got != want {
			t.Errorf("bound %d: sample just above %v landed under %v, want %v", i, b, got, want)
		}
	}
	// At or below the bottom rung: first bucket.
	for _, v := range []float64{0, -1, 1e-9, math.Nextafter(1e-6, 0)} {
		if got := bucketOf(t, v); got != bounds[0] {
			t.Errorf("sample %v landed under %v, want first bucket %v", v, got, bounds[0])
		}
	}
	// Far above the top rung: +Inf bucket.
	if got := bucketOf(t, 1e12); !math.IsInf(got, 1) {
		t.Errorf("sample 1e12 landed under %v, want +Inf", got)
	}
}

// TestHistogramCumulativeConsistency checks the Prometheus cumulative
// convention on a multi-sample histogram: counts are monotone across
// buckets and the +Inf bucket equals the total count.
func TestHistogramCumulativeConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x")
	samples := []float64{0, 1e-6, 2e-6, 5e-5, 1, 3.9, 4.0, 4.1, 1e10, -7}
	for _, v := range samples {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != uint64(len(samples)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(samples))
	}
	var prev uint64
	for i, b := range s.Buckets {
		if b.CumulativeCount < prev {
			t.Fatalf("bucket %d count %d below previous %d", i, b.CumulativeCount, prev)
		}
		prev = b.CumulativeCount
	}
	last := s.Buckets[len(s.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.CumulativeCount != s.Count {
		t.Fatalf("+Inf bucket = %+v, want cumulative %d", last, s.Count)
	}
	if s.Min != -7 || s.Max != 1e10 {
		t.Fatalf("min/max = %v/%v, want -7/1e10", s.Min, s.Max)
	}
}

// TestHistogramQuantile pins the interpolated quantile estimate the
// refload latency reports are built on.
func TestHistogramQuantile(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}

	// 100 samples in one bucket: the q-quantile interpolates linearly
	// across it. Snapshots compact away the empty leading buckets, so the
	// first rendered bucket's lower edge is 0.
	r := NewRegistry()
	h := r.Histogram("q")
	for i := 1; i <= 100; i++ {
		h.Observe(5e-6)
	}
	s := h.snapshot()
	for _, q := range []float64{0.1, 0.5, 0.99} {
		want := math.Min(1.6e-5*q, 5e-6) // clamped at the observed max
		if got := s.Quantile(q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}

	// A rank landing in the +Inf bucket reports the observed max.
	h2 := r.Histogram("inf")
	h2.Observe(1e12)
	h2.Observe(1e-6)
	if got := h2.snapshot().Quantile(0.99); got != 1e12 {
		t.Fatalf("+Inf-bucket quantile = %v, want the max", got)
	}

	// Quantiles are monotone in q and clamped to [min-ish, max].
	h3 := r.Histogram("mono")
	for i := 0; i < 1000; i++ {
		h3.Observe(float64(i) * 1e-5)
	}
	s3 := h3.snapshot()
	prev := 0.0
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := s3.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if s3.Quantile(1) > s3.Max {
		t.Fatalf("Quantile(1) = %v above max %v", s3.Quantile(1), s3.Max)
	}
}

// TestLocalHistogramMatchesObserve: buffering samples in a
// LocalHistogram and flushing lands every sample in the bucket Observe
// would, with the same count, min and max, across bucket-run changes,
// exact bounds and +Inf — and a reused buffer flushes only what it
// saw since the last flush.
func TestLocalHistogramMatchesObserve(t *testing.T) {
	bounds := ladder()
	samples := []float64{1, 1, 0.9, 2, bounds[3], math.Nextafter(bounds[3], 2), 1e-9, 1e12, math.Inf(1), 1, 0.5}
	r := NewRegistry()
	direct, buffered := r.Histogram("direct"), r.Histogram("buffered")
	var l LocalHistogram
	for round := 0; round < 2; round++ {
		l.Reset(buffered)
		for _, v := range samples {
			direct.Observe(v)
			l.Observe(v)
		}
		l.Flush()
		want, got := direct.Snapshot(), buffered.Snapshot()
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || len(got.Buckets) != len(want.Buckets) {
			t.Fatalf("round %d: buffered %+v, direct %+v", round, got, want)
		}
		for i := range want.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Fatalf("round %d bucket %d: buffered %+v, direct %+v", round, i, got.Buckets[i], want.Buckets[i])
			}
		}
	}
	var nilBuf LocalHistogram
	nilBuf.Reset(nil)
	nilBuf.Observe(1)
	nilBuf.Flush() // a nil histogram discards, as Observe does
}
