package hier

import "sort"

// QueueAlloc is one queue's outcome for an epoch: the phase-1 fair
// share (quota floor plus Equation 13 over-quota split), the final
// share after the reclaim pass, and the reclaim volume it donated or
// received. For an internal queue the share is what its children
// split; for a leaf it is what its direct agents split.
type QueueAlloc struct {
	Name   string
	Parent string // "" = directly under the root
	Weight float64
	Quota  []float64
	Leaf   bool
	Agents int // subtree population

	Fair  []float64
	Share []float64

	ReclaimOut float64 // total volume donated to siblings this epoch
	ReclaimIn  float64 // total volume received from siblings this epoch
}

// Alloc is one epoch's full tree allocation.
type Alloc struct {
	Queues []*QueueAlloc // sorted by name, default included
	Moved  float64       // total reclaim volume across every node

	byName map[string]*QueueAlloc
}

// Queue returns one queue's allocation ("" selects the default leaf),
// nil when absent.
func (a *Alloc) Queue(name string) *QueueAlloc { return a.byName[CanonicalQueue(name)] }

// Allocate runs one top-down allocation over the current aggregates.
//
// At each node with share S, per resource r:
//
//	phase 1 (fair): F_c = quota_c + (w_c·A_cr / Σ_d w_d·A_dr) · (S_r − Σ quota)
//	phase 2 (target): same form with effective quotas q̃_c — a child
//	  whose subtree has no demand on r (A_cr = 0) donates its floor
//	  back into the over-quota pool;
//	reclaim: Reclaim moves the allocation from F to T with the affine
//	  order-preserving rule (full budget, so the result lands exactly
//	  on T and F−T is pure telemetry).
//
// When no child has weighted demand on r the pool falls back to an
// equal split — first among demand-positive children, then among
// children with any agents at all, then among all children — mirroring
// core.RowFromSums's equal-split fallback so a degenerate single-queue
// tree reproduces the flat path.
func (t *Tree) Allocate() *Alloc {
	a := &Alloc{byName: make(map[string]*QueueAlloc, len(t.byName)+1)}
	t.allocateNode(t.root, append([]float64(nil), t.capacity...), "", a)
	sort.Slice(a.Queues, func(i, j int) bool { return a.Queues[i].Name < a.Queues[j].Name })
	return a
}

func (t *Tree) allocateNode(n *node, share []float64, parentName string, out *Alloc) {
	if len(n.children) == 0 {
		return
	}
	k := len(n.children)
	nRes := len(t.capacity)
	fair := make([][]float64, k)
	target := make([][]float64, k)
	for i := range n.children {
		fair[i] = make([]float64, nRes)
		target[i] = make([]float64, nRes)
	}

	for r := 0; r < nRes; r++ {
		splitResource(n.children, r, share[r], fair, target)
	}

	// The reclaim pass: start from the fair point, move to the target
	// with the order-preserving rule. Full budget lands exactly on the
	// target; the per-child drift |F−T| is the reclaim telemetry.
	shares := make([][]float64, k)
	for i := range fair {
		shares[i] = append([]float64(nil), fair[i]...)
	}
	out.Moved += Reclaim(shares, target, -1)

	for i, c := range n.children {
		qa := &QueueAlloc{
			Name:   c.name,
			Parent: parentName,
			Weight: c.weight,
			Quota:  append([]float64(nil), c.quota...),
			Leaf:   c.isLeaf(),
			Agents: c.subAgents,
			Fair:   fair[i],
			Share:  shares[i],
		}
		for r := 0; r < nRes; r++ {
			if d := fair[i][r] - shares[i][r]; d > 0 {
				qa.ReclaimOut += d
			} else {
				qa.ReclaimIn -= d
			}
		}
		out.Queues = append(out.Queues, qa)
		out.byName[c.name] = qa
		t.allocateNode(c, shares[i], c.name, out)
	}
}

// splitResource computes the phase-1 fair shares and phase-2 targets
// of one resource across one node's children.
func splitResource(children []*node, r int, share float64, fair, target [][]float64) {
	sumQ, sumQt, sumA := 0.0, 0.0, 0.0
	demandPos, live := 0, 0
	for _, c := range children {
		v := c.sums.Value(r)
		if v < 0 { // compensation residue after full departure
			v = 0
		}
		sumQ += c.quota[r]
		if v > 0 {
			sumQt += c.quota[r]
			demandPos++
		}
		if c.subAgents > 0 {
			live++
		}
		sumA += c.weight * v
	}

	phase := func(effQuota func(c *node, av float64) float64, sumQuota float64, dst [][]float64) {
		// Quota nesting (validated) plus the reclaim donation make the
		// floors feasible at every level, so the defensive proportional
		// scale-down below never fires on a validated tree; it only
		// guards hand-built states in tests and fuzzing.
		scale := 1.0
		if sumQuota > share {
			scale = share / sumQuota
		}
		over := share - scale*sumQuota
		if over < 0 {
			over = 0
		}
		for i, c := range children {
			av := c.sums.Value(r)
			if av < 0 {
				av = 0
			}
			frac := 0.0
			switch {
			case sumA > 0:
				frac = c.weight * av / sumA
			case demandPos > 0:
				if av > 0 {
					frac = 1 / float64(demandPos)
				}
			case live > 0:
				if c.subAgents > 0 {
					frac = 1 / float64(live)
				}
			default:
				frac = 1 / float64(len(children))
			}
			dst[i][r] = scale*effQuota(c, av) + frac*over
		}
	}

	phase(func(c *node, _ float64) float64 { return c.quota[r] }, sumQ, fair)
	phase(func(c *node, av float64) float64 {
		if av > 0 {
			return c.quota[r]
		}
		return 0
	}, sumQt, target)
}

// Reclaim moves alloc toward fair, per resource, spending at most
// budget total volume across all resources (budget < 0 = unbounded).
// Donors (alloc > fair) give up allocation in proportion to their
// surplus; receivers (alloc < fair) gain in proportion to their
// deficit. Because both updates are the affine map
//
//	sat' = (1−λ)·sat + λ        where sat = alloc/fair,
//
// with one λ per group, relative saturation-ratio order between any
// two queues is never inverted (KAI-Scheduler's reclaim invariant):
// within a group the map is monotone, donors stay at sat ≥ 1,
// receivers at sat ≤ 1, and nobody crosses the fair point. An
// unbounded budget assigns fair exactly (donor and receiver volumes
// match there by construction, so the proportional form would only add
// rounding). Returns the total volume moved.
func Reclaim(alloc, fair [][]float64, budget float64) float64 {
	if len(alloc) == 0 {
		return 0
	}
	moved := 0.0
	nRes := len(fair[0])
	for r := 0; r < nRes; r++ {
		surplus, deficit := 0.0, 0.0
		for i := range alloc {
			if d := alloc[i][r] - fair[i][r]; d > 0 {
				surplus += d
			} else {
				deficit -= d
			}
		}
		v := surplus
		if deficit < v {
			v = deficit
		}
		if budget >= 0 && budget-moved < v {
			v = budget - moved
		}
		if v <= 0 {
			continue
		}
		if budget < 0 {
			for i := range alloc {
				alloc[i][r] = fair[i][r]
			}
			moved += surplus
			continue
		}
		ld, lr := v/surplus, v/deficit
		for i := range alloc {
			if d := alloc[i][r] - fair[i][r]; d > 0 {
				alloc[i][r] -= ld * d
			} else if d < 0 {
				alloc[i][r] -= lr * d
			}
		}
		moved += v
	}
	return moved
}
