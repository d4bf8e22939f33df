package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// defaultBuckets returns the shared exponential bucket ladder: factor-4
// steps from 1e-6 up to ~4.5e9. One ladder serves every unit the repo
// observes — seconds (µs..hours), core cycles (1..billions), and unitless
// residuals — at the cost of a few empty buckets per histogram.
func defaultBuckets() []float64 {
	bounds := make([]float64, 27)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 4
	}
	return bounds
}

// Histogram accumulates samples into cumulative-style buckets with a
// lock-free hot path. The nil Histogram discards observations.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket; samples above
	// the last bound land in the implicit +Inf bucket counts[len(bounds)].
	bounds  []float64
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // math.Float64bits of the running min
	maxBits atomic.Uint64 // math.Float64bits of the running max
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	casAdd(&h.sumBits, v)
	casMin(&h.minBits, v)
	casMax(&h.maxBits, v)
}

// bucket binary-searches v's bucket: bounds are sorted ascending, and
// len(bounds) is the +Inf bucket.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// LocalHistogram buffers observations for one Histogram without
// synchronization, for a hot loop owned by one goroutine: Flush merges
// the buffer with one atomic update per touched bucket instead of five
// per sample. The zero value is ready to use; reuse it across flushes
// and nothing allocates after the first.
type LocalHistogram struct {
	h        *Histogram
	counts   []uint64
	n        uint64
	sum      float64
	min, max float64
	// last is the previous sample's bucket: runs of similar samples
	// skip the binary search.
	last int
}

// Reset empties the buffer and points it at h (nil discards).
func (l *LocalHistogram) Reset(h *Histogram) {
	l.h = h
	if h == nil {
		return
	}
	if len(l.counts) != len(h.counts) {
		l.counts = make([]uint64, len(h.counts))
	}
	clear(l.counts)
	l.n, l.sum = 0, 0
	l.min, l.max = math.Inf(1), math.Inf(-1)
}

// Observe buffers one sample.
func (l *LocalHistogram) Observe(v float64) {
	if l.h == nil {
		return
	}
	b, bounds := l.last, l.h.bounds
	if (b < len(bounds) && !(v <= bounds[b])) || (b > 0 && v <= bounds[b-1]) {
		b = l.h.bucket(v)
		l.last = b
	}
	l.counts[b]++
	l.n++
	l.sum += v
	if v < l.min {
		l.min = v
	}
	if v > l.max {
		l.max = v
	}
}

// Flush merges the buffered samples into the histogram and empties the
// buffer.
func (l *LocalHistogram) Flush() {
	h := l.h
	if h == nil || l.n == 0 {
		return
	}
	for i, c := range l.counts {
		if c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(l.n)
	casAdd(&h.sumBits, l.sum)
	casMin(&h.minBits, l.min)
	casMax(&h.maxBits, l.max)
	l.Reset(h)
}

// casAdd atomically adds v to the float64 stored in bits.
func casAdd(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func casMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observed samples (0 for the nil Histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples (0 for the nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bucket is one (upper bound, cumulative count) pair of a snapshot, in
// Prometheus's cumulative-bucket convention.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; +Inf for the last.
	UpperBound float64
	// CumulativeCount counts samples ≤ UpperBound.
	CumulativeCount uint64
}

// bucketJSON is Bucket's wire form: the upper bound rides as a string so
// the +Inf bucket survives JSON (which has no infinity literal).
type bucketJSON struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(bucketJSON{Le: le, Count: b.CumulativeCount})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	ub, err := strconv.ParseFloat(w.Le, 64)
	if err != nil {
		return fmt.Errorf("obs: bad bucket bound %q: %w", w.Le, err)
	}
	b.UpperBound = ub
	b.CumulativeCount = w.Count
	return nil
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Buckets is cumulative and ends with the +Inf bucket, whose count
	// equals Count.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns Sum/Count, or 0 with no samples.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the cumulative
// buckets by linear interpolation within the bucket that crosses the
// target rank — the same estimate Prometheus's histogram_quantile gives.
// The lowest bucket interpolates from 0, and a rank landing in the +Inf
// bucket reports the observed Max (the bucket has no finite upper bound
// to interpolate toward). With no samples Quantile returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var prevCum uint64
	prevUB := 0.0
	for _, b := range s.Buckets {
		if float64(b.CumulativeCount) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				return s.Max
			}
			in := float64(b.CumulativeCount - prevCum)
			v := b.UpperBound
			if in > 0 {
				v = prevUB + (b.UpperBound-prevUB)*(rank-float64(prevCum))/in
			}
			// The estimate can overshoot what was actually observed
			// (bucket bounds are coarser than samples); never report a
			// quantile above the max.
			return math.Min(v, s.Max)
		}
		prevCum, prevUB = b.CumulativeCount, b.UpperBound
	}
	return s.Max
}

// Snapshot returns a point-in-time copy of the histogram (the zero
// snapshot for the nil Histogram), ready for Quantile interpolation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.snapshot()
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sumBits.Load()),
		Buckets: make([]Bucket, 0, len(h.counts)),
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		// Skip leading/trailing all-empty buckets to keep manifests and
		// text exposition compact; the +Inf bucket always renders so the
		// cumulative total is visible.
		if cum == 0 && i < len(h.bounds) {
			continue
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, CumulativeCount: cum})
		if cum == s.Count && i < len(h.bounds) {
			s.Buckets = append(s.Buckets, Bucket{UpperBound: math.Inf(1), CumulativeCount: cum})
			break
		}
	}
	return s
}
