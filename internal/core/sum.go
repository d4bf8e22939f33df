package core

import "math"

// CompSum is a Neumaier-compensated running sum that supports removal.
// The value is carried as an unevaluated pair hi+lo: every Add folds the
// exact rounding error of the primary addition into the compensation term,
// so the only error the accumulator itself introduces is the rounding of
// the lo accumulation — bounded by eps² per operation relative to the
// operand magnitude, which stays far below one ulp of the total across
// billions of updates. Subtraction is addition of the negation, which
// makes the sum maintainable under join/leave/update deltas instead of
// recomputed from scratch.
//
// The zero value is an empty sum.
type CompSum struct {
	hi, lo float64
}

// Add folds v into the sum (TwoSum: t is the rounded sum, and the branch
// recovers the exact residue, which cannot be lost because the smaller
// operand fits in the slack of the larger).
func (s *CompSum) Add(v float64) {
	t := s.hi + v
	if math.Abs(s.hi) >= math.Abs(v) {
		s.lo += (s.hi - t) + v
	} else {
		s.lo += (v - t) + s.hi
	}
	s.hi = t
}

// Sub removes v from the sum.
func (s *CompSum) Sub(v float64) { s.Add(-v) }

// Merge folds another compensated sum into this one, preserving both
// compensation terms. Combining per-shard partial sums in a fixed shard
// order keeps the result deterministic.
func (s *CompSum) Merge(o CompSum) {
	s.Add(o.hi)
	s.Add(o.lo)
}

// Value rounds the pair to a float64.
func (s *CompSum) Value() float64 { return s.hi + s.lo }

// Reset empties the sum.
func (s *CompSum) Reset() { *s = CompSum{} }

// ApplyWeightDelta applies one agent's weight change to per-resource
// running sums in O(R): oldW is removed (nil for a join) and newW is added
// (nil for a leave). When churn is non-nil it accumulates the absolute
// magnitude moved through each sum — the quantity the drift-triggered
// resummation policy compares against the live sum.
func ApplyWeightDelta(sums []CompSum, churn []float64, oldW, newW []float64) {
	for r := range sums {
		if oldW != nil {
			sums[r].Sub(oldW[r])
			if churn != nil {
				churn[r] += math.Abs(oldW[r])
			}
		}
		if newW != nil {
			sums[r].Add(newW[r])
			if churn != nil {
				churn[r] += math.Abs(newW[r])
			}
		}
	}
}

// The resummation policy every running-sum owner runs: the agent table's
// shards and the queue tree's nodes.
const (
	// resumEvery is the forced exact-resummation cadence in epochs.
	resumEvery = 256
	// driftRatio triggers an early exact resummation when the absolute
	// churn moved through a sum since the last one exceeds this multiple
	// of the live sum. Compensated error is ~eps²·churn, so the bound
	// stays near 1e-20 of the sum, orders of magnitude under one ulp.
	driftRatio = 1e12
)

// RunningSums is the per-resource state Equation 13 needs: one
// compensated sum per resource plus the churn moved through it since the
// last exact resummation, which the drift test compares against the live
// sum.
type RunningSums struct {
	sums  []CompSum
	churn []float64
}

// NewRunningSums returns empty sums over nRes resources.
func NewRunningSums(nRes int) RunningSums {
	return RunningSums{sums: make([]CompSum, nRes), churn: make([]float64, nRes)}
}

// Apply moves one weight vector through the sums with churn accounting:
// oldW is removed (nil for a join) and newW added (nil for a leave).
func (s *RunningSums) Apply(oldW, newW []float64) { ApplyWeightDelta(s.sums, s.churn, oldW, newW) }

// Add folds w into the sums without churn accounting — the step of an
// exact resummation.
func (s *RunningSums) Add(w []float64) {
	for r, v := range w {
		s.AddAt(r, v)
	}
}

// AddAt folds v into resource r's sum without churn accounting. It is
// small enough to inline, so hot rebuild loops in other packages (the
// queue tree's leaf-to-root walk) pay no call per resource.
func (s *RunningSums) AddAt(r int, v float64) { s.sums[r].Add(v) }

// Reset empties the sums and the churn accounting.
func (s *RunningSums) Reset() {
	for r := range s.sums {
		s.sums[r].Reset()
		s.churn[r] = 0
	}
}

// Drifted reports whether the churn through any resource's sum has
// outrun the drift tolerance, so the sums need an exact resummation now.
func (s *RunningSums) Drifted() bool {
	for r, c := range s.churn {
		if c > driftRatio*math.Max(math.Abs(s.sums[r].Value()), math.SmallestNonzeroFloat64) {
			return true
		}
	}
	return false
}

// Value rounds resource r's sum to a float64.
func (s *RunningSums) Value(r int) float64 { return s.sums[r].Value() }

// Values rounds every sum into dst (allocated when nil) and returns it.
func (s *RunningSums) Values(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(s.sums))
	}
	for r := range s.sums {
		dst[r] = s.sums[r].Value()
	}
	return dst
}

// Cadence is the epoch clock of the resummation policy: it counts
// epochs since the last full exact resummation and how many
// resummations have run. The zero value runs the production cadence.
type Cadence struct {
	every  int // 0 selects resumEvery
	since  int
	resums int
}

// Tick closes one epoch and reports whether the forced full
// resummation is due.
func (c *Cadence) Tick() bool {
	c.since++
	every := c.every
	if every == 0 {
		every = resumEvery
	}
	return c.since >= every
}

// Resummed counts one exact resummation; a full one restarts the clock.
func (c *Cadence) Resummed(full bool) {
	c.resums++
	if full {
		c.since = 0
	}
}

// Resums reports how many exact resummations have run.
func (c *Cadence) Resums() int { return c.resums }

// Shorten forces a full resummation every k epochs. It is a test seam:
// production owners run the fixed cadence.
func (c *Cadence) Shorten(k int) { c.every = k }

// UlpDiff returns the distance between a and b in units of representable
// float64 values (0 when bit-identical, 1 for adjacent floats). It treats
// +0 and −0 as equal and returns math.MaxInt64 when either argument is
// NaN. Tests use it to assert the incremental engine agrees with the full
// recompute to the last bit or the bit next to it.
func UlpDiff(a, b float64) int64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxInt64
	}
	// Map the floats onto a monotone integer line: negative floats are
	// reflected so that ordering of the integers matches ordering of the
	// floats.
	ai := int64(math.Float64bits(a))
	if ai < 0 {
		ai = math.MinInt64 - ai
	}
	bi := int64(math.Float64bits(b))
	if bi < 0 {
		bi = math.MinInt64 - bi
	}
	d := ai - bi
	if d < 0 {
		d = -d
	}
	return d
}
