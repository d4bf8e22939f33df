package core

import "slices"

// Table is the sharded agent table the Equation 13 epoch engine runs on.
// The mechanism is proportional — agent i's share of resource r is its
// effective weight over the sum of effective weights — so the only
// global state an epoch needs is the per-resource sum Σ_j b_j·α̂_jr. The
// table keeps it as compensated running sums that each join, leave,
// re-declare or budget retilt moves in O(R), and reads any agent's row
// in O(R) from the combined sums.
//
// Agents stripe over shards by FNV-1a of the name. Each shard keeps
// four columns in canonical (name-sorted) order: names, a caller
// payload, raw rescaled weights stored row-major as n·R floats, and
// budgets (1 unless a caller tilts them). Distinct shards share
// nothing, so callers may mutate different shards in parallel; the
// combine folds the per-shard partial sums in fixed shard order, so the
// result is deterministic at any parallelism.
//
// Rows are overwritten in place and shifted on a join or leave, so a
// weight slice read from a shard is valid only until that shard's next
// mutation; copy it to keep it.
//
// Numeric policy: between resummations the sums stay within one ulp of
// the exact sum under any realistic delta volume, and EndEpoch forces
// an exact O(N·R) resummation in canonical order on the fixed epoch
// cadence, or sooner on any shard whose churn outruns the drift
// tolerance. Rows then agree with a full recompute (Allocate) to within
// 1 ulp; the differential tests assert it.
type Table[P any] struct {
	shards  []*Shard[P]
	cadence Cadence
}

// Shard is one stripe of a Table.
type Shard[P any] struct {
	nRes    int
	names   []string
	payload []P
	weights []float64
	budgets []float64
	// sums carries the shard's partial effective-weight sums; budgetSum
	// its compensated Σ budgets (exactly the member count while every
	// budget is 1, since a CompSum of ones is exact).
	sums      RunningSums
	budgetSum CompSum
	// spare and spareBudget accumulate an exact rebuild (see
	// BeginRebuild) until it commits by swapping them in; changed
	// records whether the rebuild walk moved any budget.
	spare       RunningSums
	spareBudget CompSum
	changed     bool
	// effOld/effNew are O(R) scratch for budget-scaled weight vectors,
	// so no mutation allocates.
	effOld, effNew []float64
}

// NewTable returns an empty table of shardCount stripes over nRes
// resources.
func NewTable[P any](shardCount, nRes int) *Table[P] {
	t := &Table[P]{shards: make([]*Shard[P], shardCount)}
	for i := range t.shards {
		t.shards[i] = &Shard[P]{
			nRes:   nRes,
			sums:   NewRunningSums(nRes),
			spare:  NewRunningSums(nRes),
			effOld: make([]float64, nRes),
			effNew: make([]float64, nRes),
		}
	}
	return t
}

// ShardOf returns the stripe of name in a table of shardCount stripes:
// 64-bit FNV-1a of the name modulo the stripe count. It is computed
// inline (hash/fnv's interface value would cost two allocations per
// call).
func ShardOf(name string, shardCount int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int(h % uint64(shardCount))
}

// ShardOf returns the stripe of name.
func (t *Table[P]) ShardOf(name string) int { return ShardOf(name, len(t.shards)) }

// NumShards returns the stripe count.
func (t *Table[P]) NumShards() int { return len(t.shards) }

// Shard returns stripe i.
func (t *Table[P]) Shard(i int) *Shard[P] { return t.shards[i] }

// Len returns the agent population (O(S)).
func (t *Table[P]) Len() int {
	n := 0
	for _, sh := range t.shards {
		n += len(sh.names)
	}
	return n
}

// Lookup returns name's shard and row, with ok false when absent.
func (t *Table[P]) Lookup(name string) (sh *Shard[P], i int, ok bool) {
	sh = t.shards[t.ShardOf(name)]
	i, ok = sh.Find(name)
	return sh, i, ok
}

// Upsert joins name with payload p at budget 1, or re-declares its
// weights, keeping its payload and budget.
func (t *Table[P]) Upsert(name string, p P, w []float64) {
	sh := t.shards[t.ShardOf(name)]
	if i, ok := sh.Find(name); ok {
		sh.Set(i, w)
	} else {
		sh.Insert(i, name, p, w)
	}
}

// Remove departs name, reporting whether it was present.
func (t *Table[P]) Remove(name string) bool {
	sh, i, ok := t.Lookup(name)
	if ok {
		sh.Delete(i)
	}
	return ok
}

// Sums folds the per-shard partial sums into dst (allocated when nil)
// in fixed shard order, rounded.
func (t *Table[P]) Sums(dst []float64) []float64 {
	nRes := t.shards[0].nRes
	if dst == nil {
		dst = make([]float64, nRes)
	}
	for r := 0; r < nRes; r++ {
		var s CompSum
		for _, sh := range t.shards {
			s.Merge(sh.sums.sums[r])
		}
		dst[r] = s.Value()
	}
	return dst
}

// BudgetSum folds the per-shard budget sums in fixed shard order: the
// weighted mechanism's total income (exactly the population while every
// budget is 1).
func (t *Table[P]) BudgetSum() float64 {
	var s CompSum
	for _, sh := range t.shards {
		s.Merge(sh.budgetSum)
	}
	return s.Value()
}

// EndEpoch closes one delta batch and applies the resummation policy:
// every shard resums exactly when the cadence is due; otherwise any
// shard whose churn outran the drift tolerance resums alone.
func (t *Table[P]) EndEpoch() {
	if t.cadence.Tick() {
		t.Resum()
		return
	}
	for _, sh := range t.shards {
		if sh.sums.Drifted() {
			sh.resum()
			t.cadence.Resummed(false)
		}
	}
}

// Resum recomputes every shard's sums exactly from its rows (O(N·R)),
// resetting churn.
func (t *Table[P]) Resum() {
	for _, sh := range t.shards {
		sh.resum()
	}
	t.cadence.Resummed(true)
}

// BeginRebuild starts an exact resummation driven by the caller's own
// walk: the caller then visits every row of every shard once, in
// canonical order within each shard, through Shard.RebuildRow, and
// closes with EndRebuild. It is resum's arithmetic, so a walk that
// also retilts budgets (the serve credit pass) settles and resums the
// table in one visit.
func (t *Table[P]) BeginRebuild() {
	for _, sh := range t.shards {
		sh.spare.Reset()
		sh.spareBudget.Reset()
		sh.changed = false
	}
}

// EndRebuild closes a rebuild. When the walk moved any budget, every
// shard's running sums are replaced by the rebuilt ones — an exact
// resummation that restarts the cadence — and it reports true. When no
// budget moved, the running sums are left untouched, bit for bit, and
// it reports false.
func (t *Table[P]) EndRebuild() bool {
	changed := false
	for _, sh := range t.shards {
		changed = changed || sh.changed
	}
	if !changed {
		return false
	}
	for _, sh := range t.shards {
		// The rebuilt sums were added without churn accounting, so
		// swapping them in resets churn as resum does.
		sh.sums, sh.spare = sh.spare, sh.sums
		sh.budgetSum = sh.spareBudget
		sh.changed = false
	}
	t.cadence.Resummed(true)
	return true
}

// Cadence returns the table's resummation clock.
func (t *Table[P]) Cadence() *Cadence { return &t.cadence }

// eachStackShards is the shard count up to which Each keeps its merge
// state on the stack, so a walk at the serving default of 32 (a credit
// publication, an inline snapshot, a queue-tree resummation) allocates
// nothing.
const eachStackShards = 64

// mergeHead is one shard's cursor in Each's merge: its next row and that
// row's name, cached so a comparison touches no shard. The k heads also
// hold the tournament's k-1 matches: loser is the shard that lost match
// node n, kept on head n (heads and matches share one array, so a walk
// above eachStackShards allocates once).
type mergeHead struct {
	name  string
	row   int
	loser int32
	live  bool
}

// beats reports whether head a comes before head b in the merge: a live
// head beats an exhausted one, and live heads compare by name (names are
// unique across the table, so live heads never tie).
func beats(a, b *mergeHead) bool { return a.live && (!b.live || a.name < b.name) }

// Each visits every agent in the canonical global (name-sorted) order
// through a loser-tree merge of the shards' sorted runs: the S shard
// heads are the leaves of a tournament whose internal nodes keep each
// match's loser, so advancing the winner replays only its leaf-to-root
// path — ⌈log₂ S⌉ name comparisons per agent, O(N·log S) in all. The
// merge state stays on the stack up to eachStackShards shards and is
// allocated once per walk above that. fn must not mutate the table.
func (t *Table[P]) Each(fn func(sh *Shard[P], i int)) {
	k := len(t.shards)
	if k == 0 {
		return
	}
	var buf [eachStackShards]mergeHead
	heads := buf[:]
	if k > eachStackShards {
		heads = make([]mergeHead, k)
	}
	heads = heads[:k]
	for si, sh := range t.shards {
		if len(sh.names) > 0 {
			heads[si] = mergeHead{name: sh.names[0], live: true}
		}
	}
	// Node n of the tournament has children 2n and 2n+1; nodes 1..k-1
	// are matches and node k+s is shard s's leaf.
	w := playoff(heads, 1)
	for heads[w].live {
		sh, h := t.shards[w], &heads[w]
		fn(sh, h.row)
		h.row++
		if h.row < len(sh.names) {
			h.name = sh.names[h.row]
		} else {
			h.name, h.live = "", false
		}
		for n := (k + w) >> 1; n > 0; n >>= 1 {
			if l := int(heads[n].loser); beats(&heads[l], &heads[w]) {
				heads[n].loser, w = int32(w), l
			}
		}
	}
}

// playoff plays the tournament below node n from scratch, recording
// each match's loser, and returns the subtree's winner.
func playoff(heads []mergeHead, n int) int {
	k := len(heads)
	if n >= k {
		return n - k
	}
	a, b := playoff(heads, 2*n), playoff(heads, 2*n+1)
	if beats(&heads[b], &heads[a]) {
		a, b = b, a
	}
	heads[n].loser = int32(b)
	return a
}

// At resolves a global index in [0, Len) to its shard and row in the
// concatenation of the shards' canonical orders — an O(S) random access.
func (t *Table[P]) At(i int) (*Shard[P], int) {
	si, row := t.at(i)
	if si < 0 {
		return nil, 0
	}
	return t.shards[si], row
}

// at is At by shard index, -1 when i is out of range.
func (t *Table[P]) at(i int) (si, row int) {
	for si, sh := range t.shards {
		if i < len(sh.names) {
			return si, i
		}
		i -= len(sh.names)
	}
	return -1, 0
}

// Window visits k ≤ Len rows of the shards' concatenated canonical
// orders, starting at global index start in [0, Len) and wrapping at
// Len — the rotating audit window's sweep. It resolves start in O(S) and
// then steps through the shards, O(S + k) in all. fn must not mutate the
// table.
func (t *Table[P]) Window(start, k int, fn func(sh *Shard[P], i int)) {
	if k <= 0 {
		return
	}
	si, row := t.at(start)
	if si < 0 {
		return
	}
	for {
		fn(t.shards[si], row)
		if k--; k == 0 {
			return
		}
		// Step to the next row, skipping exhausted and empty shards and
		// wrapping from the last shard to the first.
		for row++; row >= len(t.shards[si].names); row = 0 {
			si = (si + 1) % len(t.shards)
		}
	}
}

// Len returns the shard's member count.
func (sh *Shard[P]) Len() int { return len(sh.names) }

// Find binary-searches the names column: the row of name and true, or
// the row it would be inserted at and false.
func (sh *Shard[P]) Find(name string) (int, bool) {
	return slices.BinarySearch(sh.names, name)
}

// Name returns row i's name.
func (sh *Shard[P]) Name(i int) string { return sh.names[i] }

// Payload returns row i's payload.
func (sh *Shard[P]) Payload(i int) P { return sh.payload[i] }

// Weight returns row i's raw rescaled weights — a view, valid until the
// shard's next mutation.
func (sh *Shard[P]) Weight(i int) []float64 {
	return sh.weights[i*sh.nRes : (i+1)*sh.nRes : (i+1)*sh.nRes]
}

// Budget returns row i's budget.
func (sh *Shard[P]) Budget(i int) float64 { return sh.budgets[i] }

// AppendEff appends row i's effective weight budget·α̂ to dst — the raw
// weights themselves at the unit budget.
func (sh *Shard[P]) AppendEff(dst []float64, i int) []float64 {
	w, b := sh.Weight(i), sh.budgets[i]
	if b == 1 {
		return append(dst, w...)
	}
	for _, v := range w {
		dst = append(dst, b*v)
	}
	return dst
}

// Insert joins name at row i (as returned by a failed Find) with payload
// p, raw weights w and budget 1, shifting the rows after it.
func (sh *Shard[P]) Insert(i int, name string, p P, w []float64) {
	sh.sums.Apply(nil, w)
	sh.budgetSum.Add(1)
	var zero P
	sh.names = append(sh.names, "")
	copy(sh.names[i+1:], sh.names[i:])
	sh.names[i] = name
	sh.payload = append(sh.payload, zero)
	copy(sh.payload[i+1:], sh.payload[i:])
	sh.payload[i] = p
	sh.budgets = append(sh.budgets, 0)
	copy(sh.budgets[i+1:], sh.budgets[i:])
	sh.budgets[i] = 1
	sh.weights = append(sh.weights, w...)
	copy(sh.weights[(i+1)*sh.nRes:], sh.weights[i*sh.nRes:])
	copy(sh.weights[i*sh.nRes:], w)
}

// Set re-declares row i's raw weights at its current budget, moving the
// effective-weight delta through the sums.
func (sh *Shard[P]) Set(i int, w []float64) {
	row, b := sh.Weight(i), sh.budgets[i]
	sh.sums.Apply(ScaleWeights(sh.effOld, row, b), ScaleWeights(sh.effNew, w, b))
	copy(row, w)
}

// Delete departs row i, shifting the rows after it.
func (sh *Shard[P]) Delete(i int) {
	sh.sums.Apply(ScaleWeights(sh.effOld, sh.Weight(i), sh.budgets[i]), nil)
	sh.budgetSum.Sub(sh.budgets[i])
	var zero P
	last := len(sh.names) - 1
	copy(sh.names[i:], sh.names[i+1:])
	sh.names[last] = ""
	sh.names = sh.names[:last]
	copy(sh.payload[i:], sh.payload[i+1:])
	sh.payload[last] = zero
	sh.payload = sh.payload[:last]
	copy(sh.budgets[i:], sh.budgets[i+1:])
	sh.budgets = sh.budgets[:last]
	copy(sh.weights[i*sh.nRes:], sh.weights[(i+1)*sh.nRes:])
	sh.weights = sh.weights[:last*sh.nRes]
}

// SetBudget retilts row i's budget — an O(R) effective-weight delta, the
// cost of any other update. It returns the old and new effective
// weights (nil when the budget did not change), valid until the shard's
// next mutation.
func (sh *Shard[P]) SetBudget(i int, b float64) (oldEff, newEff []float64) {
	old := sh.budgets[i]
	if b == old {
		return nil, nil
	}
	row := sh.Weight(i)
	oldEff, newEff = ScaleWeights(sh.effOld, row, old), ScaleWeights(sh.effNew, row, b)
	sh.budgetSum.Sub(old)
	sh.budgets[i] = b
	sh.budgetSum.Add(b)
	sh.sums.Apply(oldEff, newEff)
	return oldEff, newEff
}

// resum recomputes the shard's sums and budget sum exactly from its rows
// in canonical order, resetting churn. The unit-budget branch adds the
// raw weights, so unit budgets leave every sum bit-identical to the
// unweighted mechanism.
func (sh *Shard[P]) resum() {
	sh.sums.Reset()
	sh.budgetSum.Reset()
	for i, b := range sh.budgets {
		sh.budgetSum.Add(b)
		w := sh.Weight(i)
		if b == 1 {
			sh.sums.Add(w)
			continue
		}
		for r := range w {
			sh.sums.sums[r].Add(b * w[r])
		}
	}
}

// RebuildRow sets row i's budget to b without moving the running sums
// and folds the row into the table's rebuild (see BeginRebuild). It
// returns the row's effective weight budget·α̂ — the raw weights
// themselves at the unit budget, so unit budgets rebuild every sum
// bit-identical to the unweighted mechanism — as a view valid until the
// shard's next mutation or RebuildRow.
func (sh *Shard[P]) RebuildRow(i int, b float64) []float64 {
	if b != sh.budgets[i] {
		sh.budgets[i] = b
		sh.changed = true
	}
	sh.spareBudget.Add(b)
	eff := ScaleWeights(sh.effNew, sh.Weight(i), b)
	sh.spare.Add(eff)
	return eff
}

// ScaleWeights writes budget·w into dst when the budget differs from 1 and
// returns it; at a budget of exactly 1 it returns w itself, keeping the
// unit-budget path bit-identical (and copy-free). Callers must treat the
// result as read-only.
func ScaleWeights(dst, w []float64, budget float64) []float64 {
	if budget == 1 {
		return w
	}
	for r := range w {
		dst[r] = budget * w[r]
	}
	return dst
}

// RowFromSums computes one agent's Equation 13 allocation row from a
// weight vector and rounded sums, matching opt.Proportional's expression
// order exactly (including the equal-split fallback for a resource no
// agent values). It is the single row formula every caller — the serve
// layer's point reads and snapshot materialization, the queue tree's
// leaves, the differential oracles — shares, so their values cannot
// drift apart.
func RowFromSums(dst, weight, sums, capacity []float64, n int) []float64 {
	return RowFromSumsBudgeted(dst, weight, 1, sums, capacity, n)
}

// RowFromSumsBudgeted is the weighted row formula: the agent's effective
// weight budget·w_r over the effective-weight sums. At a budget of exactly
// 1 the multiplication is exact, so the result is bit-identical to the
// unweighted RowFromSums. The equal-split fallback for a resource nobody
// values stays budget-blind on purpose: tilting the split of a resource no
// utility depends on would change bytes without changing anyone's welfare.
func RowFromSumsBudgeted(dst, weight []float64, budget float64, sums, capacity []float64, n int) []float64 {
	if dst == nil {
		dst = make([]float64, len(capacity))
	}
	for r := range capacity {
		if sums[r] > 0 {
			dst[r] = budget * weight[r] / sums[r] * capacity[r]
		} else {
			dst[r] = capacity[r] / float64(n)
		}
	}
	return dst
}
