// Package hier implements hierarchical multi-tenant fairness: a queue
// tree where every internal node splits its share among its children by
// running REF's Equation 13 over child elasticity *aggregates*, so the
// paper's fairness guarantees hold between sibling subtrees, not just
// between flat agents.
//
// # Model
//
// Queues form a tree rooted at an implicit root whose share is the
// system capacity. Leaf queues hold agents (tenants on the serve
// layer's sharded table); internal queues hold child queues. Every
// queue carries three knobs:
//
//   - quota  — a guaranteed per-resource floor, validated so that child
//     quotas always nest inside their parent's (Σ child quota ≤ parent
//     quota per resource, and Σ top-level quota ≤ capacity), which makes
//     demand-positive floors feasible at every level by induction;
//   - weight — the over-quota split weight (default 1; zero means the
//     queue never receives over-quota allocation);
//   - parent — its position in the tree.
//
// A reserved leaf named "default" always exists directly under the
// root: agents that join without a queue land there, so a tree with no
// user-defined queues degenerates to the paper's flat economy.
//
// # Aggregates
//
// Each node maintains, per resource, the Neumaier-compensated sum
// (core.RunningSums) of the rescaled elasticities of every agent in its
// subtree. An agent join/leave/update moves its weight along the
// leaf-to-root path — O(depth·R) per delta, the hierarchical extension
// of the flat agent table's running sums — and the same resummation
// policy (core.Cadence plus the churn-vs-sum drift test) forces an
// exact O(N·depth·R) rebuild in canonical agent order.
//
// # Allocation
//
// Allocate walks the tree top-down. At a node with share S, children
// first receive their quota floors, then the over-quota pool
// O_r = S_r − Σ quota splits by Equation 13 over weighted aggregates:
// child c's share of O_r is w_c·A_cr / Σ_d w_d·A_dr, where A_cr is c's
// subtree aggregate on r. A second pass — the order-preserving reclaim
// — re-targets floors held by zero-demand subtrees (A_cr = 0, e.g.
// empty queues) back into the pool, then moves allocation from the
// fair point toward that target with the affine rule of Reclaim, which
// provably never inverts relative saturation-ratio order between
// siblings. A child's final share becomes the share its own children
// split, down to the leaves; a leaf's share is what its direct agents
// split by the ordinary flat Equation 13.
package hier

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"unicode/utf8"

	"ref/internal/core"
)

// ConfigSchema identifies the queue-tree wire format.
const ConfigSchema = "ref/queues/v1"

// DefaultQueue is the reserved leaf that holds agents which join
// without naming a queue. It always exists directly under the root and
// cannot be declared, re-parented, or deleted.
const DefaultQueue = "default"

// Structural limits: generous for any real tenancy layout, tight
// enough that fuzzed configs cannot build pathological trees.
const (
	MaxQueues  = 4096
	MaxDepth   = 16
	maxNameLen = 256
)

// QueueConfig is one queue declaration on the wire (POST /v1/queues,
// the -queues file, and trace queue events all share it).
type QueueConfig struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"` // "" = directly under the root
	// Quota is the guaranteed per-resource floor. Empty means zero
	// floor; otherwise its length must match the resource
	// dimensionality.
	Quota []float64 `json:"quota,omitempty"`
	// Weight is the over-quota split weight. nil selects the default
	// of 1; an explicit 0 is legal and means the queue never receives
	// over-quota allocation.
	Weight *float64 `json:"weight,omitempty"`
}

// weightOrDefault resolves the wire pointer.
func (q QueueConfig) weightOrDefault() float64 {
	if q.Weight == nil {
		return 1
	}
	return *q.Weight
}

// TreeConfig is a full queue-tree declaration.
type TreeConfig struct {
	Schema string        `json:"schema,omitempty"`
	Queues []QueueConfig `json:"queues"`
}

// DecodeConfig parses a queue-tree document (strict: unknown fields and
// trailing data are errors). It does not validate tree structure; pass
// the result to Validate or NewTree.
func DecodeConfig(r io.Reader) (*TreeConfig, error) {
	dec := json.NewDecoder(io.LimitReader(r, 1<<24))
	dec.DisallowUnknownFields()
	var cfg TreeConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("queue config: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("queue config: trailing data after document")
	}
	return &cfg, nil
}

// validateQueue checks one declaration's fields in isolation.
func validateQueue(q QueueConfig, nRes int) error {
	if q.Name == "" {
		return fmt.Errorf("queue name must be non-empty")
	}
	if len(q.Name) > maxNameLen || !utf8.ValidString(q.Name) {
		return fmt.Errorf("queue name %q invalid: must be valid UTF-8, at most %d bytes", q.Name, maxNameLen)
	}
	if q.Name == DefaultQueue {
		return fmt.Errorf("queue name %q is reserved", DefaultQueue)
	}
	if q.Parent == DefaultQueue {
		return fmt.Errorf("queue %s: parent %q is a reserved leaf", q.Name, DefaultQueue)
	}
	if len(q.Quota) != 0 && len(q.Quota) != nRes {
		return fmt.Errorf("queue %s: quota has %d resources, system has %d", q.Name, len(q.Quota), nRes)
	}
	for r, v := range q.Quota {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("queue %s: quota[%d] = %v, must be finite and non-negative", q.Name, r, v)
		}
	}
	if w := q.weightOrDefault(); w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("queue %s: weight = %v, must be finite and non-negative", q.Name, w)
	}
	return nil
}

// Validate checks the whole declaration against a capacity vector:
// per-queue field validity, unique names, resolvable acyclic parents
// within the depth bound, and the quota nesting invariant (Σ child
// quota ≤ parent quota per resource, Σ top-level quota ≤ capacity)
// that makes demand-positive floors feasible at every level.
func (c *TreeConfig) Validate(capacity []float64) error {
	if c.Schema != "" && c.Schema != ConfigSchema {
		return fmt.Errorf("queue config: schema %q, want %q", c.Schema, ConfigSchema)
	}
	if len(c.Queues) > MaxQueues {
		return fmt.Errorf("queue config: %d queues exceeds limit %d", len(c.Queues), MaxQueues)
	}
	_, err := NewTree(capacity, c, Options{})
	return err
}

// Encode renders the canonical wire form (schema stamped, queues in
// declaration order).
func (c *TreeConfig) Encode() ([]byte, error) {
	out := TreeConfig{Schema: ConfigSchema, Queues: c.Queues}
	if out.Queues == nil {
		out.Queues = []QueueConfig{}
	}
	return json.MarshalIndent(&out, "", "  ")
}

// Options is empty: the resummation policy is core's fixed one. The
// type stays because the frozen benchmark module calls
// NewTree(…, Options{}).
type Options struct{}

// node is one queue (or the synthetic root). Children are kept sorted
// by name so every tree walk is deterministic.
type node struct {
	name     string
	parent   *node
	children []*node

	weight    float64
	hasWeight bool // wire carried an explicit weight
	quota     []float64

	agents    int // direct agents (leaves only)
	subAgents int // agents anywhere in the subtree

	sums core.RunningSums // subtree aggregate of rescaled elasticities
	// spare accumulates an exact rebuild (see BeginRebuild) until it
	// commits by swapping in.
	spare core.RunningSums
	// slot is the queue's stable index while it lives (see Leaf.Slot).
	slot int
}

func (n *node) isLeaf() bool { return len(n.children) == 0 }

// childIndex locates name in the sorted children slice, or returns
// len and false.
func (n *node) childIndex(name string) (int, bool) {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].name >= name })
	return i, i < len(n.children) && n.children[i].name == name
}

func (n *node) attachChild(c *node) {
	i, _ := n.childIndex(c.name)
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	c.parent = n
}

func (n *node) detachChild(c *node) {
	if i, ok := n.childIndex(c.name); ok {
		n.children = append(n.children[:i], n.children[i+1:]...)
	}
	c.parent = nil
}

func (n *node) depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// subtreeHeight is the number of edges on the longest downward path.
func (n *node) subtreeHeight() int {
	h := 0
	for _, c := range n.children {
		if ch := c.subtreeHeight() + 1; ch > h {
			h = ch
		}
	}
	return h
}

// inSubtree reports whether m lies in n's subtree (including n).
func (n *node) inSubtree(m *node) bool {
	for ; m != nil; m = m.parent {
		if m == n {
			return true
		}
	}
	return false
}

// Tree is the runtime queue hierarchy. It is not safe for concurrent
// mutation; the serve layer mutates it only from the single epoch
// goroutine and reads it under the snapshot lock.
type Tree struct {
	capacity []float64
	root     *node
	deflt    *node
	byName   map[string]*node // named queues only (not root, not default)

	cadence core.Cadence
	// addAgent and addLeafAgent are the resummation visitors, built once
	// so a rebuild allocates nothing.
	addAgent     func(queue string, weight []float64)
	addLeafAgent func(l Leaf, weight []float64)
	// slots is one past the largest slot handed out; freeSlots holds the
	// slots of deleted queues for reuse.
	slots     int
	freeSlots []int
}

// Leaf is a resolved handle on one leaf queue. Per-agent paths hold it
// instead of the queue's name, so an agent's aggregates are reached
// without a name lookup. A handle stays valid until its queue is
// deleted, which only happens once the queue holds no agents; the zero
// Leaf is no queue.
type Leaf struct{ n *node }

// Valid reports whether the handle names a queue.
func (l Leaf) Valid() bool { return l.n != nil }

// Name returns the queue's name ("default" for the reserved leaf).
func (l Leaf) Name() string { return l.n.name }

// Slot returns a small index, stable for the queue's lifetime and
// unique among live queues, below Tree.Slots: callers key per-queue
// state by it in a slice instead of a map. A deleted queue's slot is
// handed to the next queue created.
func (l Leaf) Slot() int { return l.n.slot }

// NewTree builds a tree from a declaration. Declaration order does not
// matter (parents may be declared after children); the result is a
// pure function of the declaration set.
func NewTree(capacity []float64, cfg *TreeConfig, _ Options) (*Tree, error) {
	if len(capacity) == 0 {
		return nil, fmt.Errorf("queue tree: no resources")
	}
	t := &Tree{
		capacity: append([]float64(nil), capacity...),
		byName:   make(map[string]*node),
	}
	t.addLeafAgent = t.RebuildAgent
	t.addAgent = func(queue string, w []float64) {
		t.RebuildAgent(Leaf{t.lookup(CanonicalQueue(queue))}, w)
	}
	t.root = t.newNode("")
	t.root.quota = append([]float64(nil), capacity...)
	t.deflt = t.newNode(DefaultQueue)
	t.root.attachChild(t.deflt)
	if cfg != nil {
		if len(cfg.Queues) > MaxQueues {
			return nil, fmt.Errorf("queue config: %d queues exceeds limit %d", len(cfg.Queues), MaxQueues)
		}
		// Two passes so declaration order is irrelevant: create every
		// node first, then link parents and check structure.
		for _, q := range cfg.Queues {
			if err := validateQueue(q, len(capacity)); err != nil {
				return nil, fmt.Errorf("queue config: %w", err)
			}
			if _, dup := t.byName[q.Name]; dup {
				return nil, fmt.Errorf("queue config: duplicate queue %q", q.Name)
			}
			n := t.newNode(q.Name)
			n.weight = q.weightOrDefault()
			n.hasWeight = q.Weight != nil
			n.quota = denseQuota(q.Quota, len(capacity))
			t.byName[q.Name] = n
		}
		for _, q := range cfg.Queues {
			n := t.byName[q.Name]
			if q.Parent == "" {
				t.root.attachChild(n)
				continue
			}
			p, ok := t.byName[q.Parent]
			if !ok {
				return nil, fmt.Errorf("queue config: queue %s: unknown parent %q", q.Name, q.Parent)
			}
			p.attachChild(n)
		}
		// Orphan detection doubles as cycle detection: a cycle's nodes
		// are never reachable from the root, so the root walk (which
		// cannot itself loop — it only ever enters reachable nodes
		// once, since every node has one parent) misses them.
		reached := make(map[*node]bool, len(t.byName)+2)
		var walk func(n *node, depth int) error
		walk = func(n *node, depth int) error {
			if depth > MaxDepth {
				return fmt.Errorf("queue config: tree deeper than %d levels", MaxDepth)
			}
			reached[n] = true
			for _, c := range n.children {
				if err := walk(c, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(t.root, 0); err != nil {
			return nil, err
		}
		for name, n := range t.byName {
			if !reached[n] {
				return nil, fmt.Errorf("queue config: queue %q unreachable from root (parent cycle)", name)
			}
		}
		if err := t.checkQuotaNesting(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *Tree) newNode(name string) *node {
	r := len(t.capacity)
	n := &node{
		name:   name,
		weight: 1,
		quota:  make([]float64, r),
		sums:   core.NewRunningSums(r),
		spare:  core.NewRunningSums(r),
	}
	if k := len(t.freeSlots); k > 0 {
		n.slot, t.freeSlots = t.freeSlots[k-1], t.freeSlots[:k-1]
	} else {
		n.slot = t.slots
		t.slots++
	}
	return n
}

// Slots returns one past the largest slot a live queue holds.
func (t *Tree) Slots() int { return t.slots }

func denseQuota(q []float64, nRes int) []float64 {
	d := make([]float64, nRes)
	copy(d, q)
	return d
}

// checkQuotaNesting enforces Σ child quota ≤ parent quota per resource
// at every node (the root's quota is the capacity vector). The slack
// tolerance is zero on purpose: quotas are operator-declared constants,
// not computed values.
func (t *Tree) checkQuotaNesting() error {
	var walk func(n *node) error
	walk = func(n *node) error {
		for r := range t.capacity {
			sum := 0.0
			for _, c := range n.children {
				sum += c.quota[r]
			}
			if sum > n.quota[r] {
				where := n.name
				if n == t.root {
					where = "root (capacity)"
				}
				return fmt.Errorf("queue config: child quotas of %s sum to %v on resource %d, exceeding its %v",
					where, sum, r, n.quota[r])
			}
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root)
}

// NumResources returns the resource dimensionality.
func (t *Tree) NumResources() int { return len(t.capacity) }

// Capacity returns the capacity vector (not a copy).
func (t *Tree) Capacity() []float64 { return t.capacity }

// Len returns the number of user-declared queues.
func (t *Tree) Len() int { return len(t.byName) }

// NonTrivial reports whether any user-declared queue exists — the
// switch between the flat serve path and the hierarchical one.
func (t *Tree) NonTrivial() bool { return len(t.byName) > 0 }

// CanonicalQueue maps the wire queue field to the tree's leaf name
// ("" joins the default queue).
func CanonicalQueue(name string) string {
	if name == "" {
		return DefaultQueue
	}
	return name
}

func (t *Tree) lookup(name string) *node {
	if name == DefaultQueue {
		return t.deflt
	}
	return t.byName[name]
}

// Leaf resolves a leaf queue's handle ("" selects the default leaf);
// the zero Leaf when the queue does not exist or has child queues.
func (t *Tree) Leaf(name string) Leaf {
	n := t.lookup(CanonicalQueue(name))
	if n == nil || !n.isLeaf() {
		return Leaf{}
	}
	return Leaf{n}
}

// Has reports whether the queue exists (the default leaf always does).
func (t *Tree) Has(name string) bool { return t.lookup(CanonicalQueue(name)) != nil }

// IsLeaf reports whether the queue exists and has no child queues —
// the only queues agents may join.
func (t *Tree) IsLeaf(name string) bool { return t.Leaf(name).Valid() }

// Names returns every queue name (default included) in sorted order.
func (t *Tree) Names() []string {
	out := make([]string, 0, len(t.byName)+1)
	out = append(out, DefaultQueue)
	for name := range t.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Config returns the wire declaration of a named queue.
func (t *Tree) Config(name string) (QueueConfig, bool) {
	n := t.byName[name]
	if n == nil {
		return QueueConfig{}, false
	}
	return t.configOf(n), true
}

func (t *Tree) configOf(n *node) QueueConfig {
	cfg := QueueConfig{Name: n.name, Quota: append([]float64(nil), n.quota...)}
	if n.parent != nil && n.parent != t.root {
		cfg.Parent = n.parent.name
	}
	if n.hasWeight {
		w := n.weight
		cfg.Weight = &w
	}
	return cfg
}

// ConfigSnapshot returns the full current declaration in sorted order
// (the form the replay driver re-submits on queue moves).
func (t *Tree) ConfigSnapshot() *TreeConfig {
	cfg := &TreeConfig{Schema: ConfigSchema}
	for name := range t.byName {
		cfg.Queues = append(cfg.Queues, QueueConfig{Name: name})
	}
	sort.Slice(cfg.Queues, func(i, j int) bool { return cfg.Queues[i].Name < cfg.Queues[j].Name })
	for i := range cfg.Queues {
		cfg.Queues[i] = t.configOf(t.byName[cfg.Queues[i].Name])
	}
	return cfg
}

// AgentCount returns the subtree agent population of a queue.
func (t *Tree) AgentCount(name string) int {
	n := t.lookup(CanonicalQueue(name))
	if n == nil {
		return 0
	}
	return n.subAgents
}

// LeafAgents returns the direct agent count of a leaf queue.
func (t *Tree) LeafAgents(name string) int {
	n := t.lookup(CanonicalQueue(name))
	if n == nil {
		return 0
	}
	return n.agents
}

// LeafSums rounds a leaf queue's aggregate elasticity sums into dst
// (allocated when nil) — the denominator of the flat Equation 13 its
// direct agents split their leaf share by.
func (t *Tree) LeafSums(name string, dst []float64) []float64 {
	n := t.lookup(CanonicalQueue(name))
	if n == nil {
		if dst == nil {
			return make([]float64, len(t.capacity))
		}
		for r := range dst {
			dst[r] = 0
		}
		return dst
	}
	return n.sums.Values(dst)
}

// Upsert declares a new queue or re-declares an existing one (quota,
// weight, and — for a re-declare — parent, which moves the whole
// subtree). Structural invariants are revalidated against the live
// tree; an error leaves the tree unchanged.
func (t *Tree) Upsert(q QueueConfig) error {
	if err := validateQueue(q, len(t.capacity)); err != nil {
		return err
	}
	parent := t.root
	if q.Parent != "" {
		p, ok := t.byName[q.Parent]
		if !ok {
			return fmt.Errorf("queue %s: unknown parent %q", q.Name, q.Parent)
		}
		parent = p
	}
	n := t.byName[q.Name]
	if n != nil && n.inSubtree(parent) {
		return fmt.Errorf("queue %s: parent %q is inside its own subtree", q.Name, q.Parent)
	}
	if n == nil && len(t.byName) >= MaxQueues {
		return fmt.Errorf("queue %s: %d queues exceeds limit %d", q.Name, len(t.byName)+1, MaxQueues)
	}
	if parent != t.root && parent.agents > 0 {
		return fmt.Errorf("queue %s: parent %q holds agents; only leaf queues may hold agents", q.Name, q.Parent)
	}
	if parent.depth()+1+t.heightAfterMove(n) > MaxDepth {
		return fmt.Errorf("queue %s: tree would exceed %d levels", q.Name, MaxDepth)
	}

	quota := denseQuota(q.Quota, len(t.capacity))
	// Quota nesting: the (re)declared quota must fit beside its future
	// siblings, and — when the queue already has children — cover them.
	for r := range t.capacity {
		sum := quota[r]
		for _, c := range parent.children {
			if c != n {
				sum += c.quota[r]
			}
		}
		if sum > parent.quota[r] {
			return fmt.Errorf("queue %s: child quotas of %s would sum to %v on resource %d, exceeding its %v",
				q.Name, parentName(t, parent), sum, r, parent.quota[r])
		}
		if n != nil {
			csum := 0.0
			for _, c := range n.children {
				csum += c.quota[r]
			}
			if csum > quota[r] {
				return fmt.Errorf("queue %s: new quota %v on resource %d is below its children's sum %v",
					q.Name, quota[r], r, csum)
			}
		}
	}

	if n == nil {
		n = t.newNode(q.Name)
		t.byName[q.Name] = n
		parent.attachChild(n)
	} else if n.parent != parent {
		t.moveSubtree(n, parent)
	}
	n.weight = q.weightOrDefault()
	n.hasWeight = q.Weight != nil
	n.quota = quota
	return nil
}

func parentName(t *Tree, p *node) string {
	if p == t.root {
		return "root (capacity)"
	}
	return p.name
}

// heightAfterMove is the height of n's subtree (0 for a new queue).
func (t *Tree) heightAfterMove(n *node) int {
	if n == nil {
		return 0
	}
	return n.subtreeHeight()
}

// moveSubtree re-hangs n under a new parent, transferring its rounded
// aggregate and population up both ancestor paths. The rounded
// transfer is churn-accounted, so any compensation residue it leaves
// behind is cleaned by the next drift- or cadence-triggered resum.
func (t *Tree) moveSubtree(n *node, newParent *node) {
	delta := n.sums.Values(nil)
	for p := n.parent; p != nil; p = p.parent {
		p.subAgents -= n.subAgents
		p.sums.Apply(delta, nil)
	}
	n.parent.detachChild(n)
	newParent.attachChild(n)
	for p := newParent; p != nil; p = p.parent {
		p.subAgents += n.subAgents
		p.sums.Apply(nil, delta)
	}
}

// Delete removes a queue. Only empty leaves may go: a queue with child
// queues or with agents anywhere in its subtree is refused.
func (t *Tree) Delete(name string) error {
	if name == DefaultQueue {
		return fmt.Errorf("queue %q is reserved and cannot be deleted", DefaultQueue)
	}
	n := t.byName[name]
	if n == nil {
		return fmt.Errorf("no queue named %q", name)
	}
	if !n.isLeaf() {
		return fmt.Errorf("queue %s has %d child queues", name, len(n.children))
	}
	if n.subAgents > 0 {
		return fmt.Errorf("queue %s holds %d agents", name, n.subAgents)
	}
	n.parent.detachChild(n)
	delete(t.byName, name)
	t.freeSlots = append(t.freeSlots, n.slot)
	return nil
}

// AgentDelta applies one agent mutation to the aggregates along the
// leaf-to-root path — O(depth·R). oldW nil is a join, newW nil is a
// leave; both set moves the agent's weight in place. oldQueue and
// newQueue differ when an agent re-declares into another leaf. It
// resolves the names and runs LeafDelta.
func (t *Tree) AgentDelta(oldQueue, newQueue string, oldW, newW []float64) error {
	var from, to Leaf
	if oldW != nil {
		n := t.lookup(CanonicalQueue(oldQueue))
		if n == nil {
			return fmt.Errorf("agent delta: unknown queue %q", oldQueue)
		}
		from = Leaf{n}
	}
	if newW != nil {
		n := t.lookup(CanonicalQueue(newQueue))
		if n == nil {
			return fmt.Errorf("agent delta: unknown queue %q", newQueue)
		}
		if !n.isLeaf() {
			return fmt.Errorf("agent delta: queue %q is not a leaf", newQueue)
		}
		to = Leaf{n}
	}
	t.LeafDelta(from, to, oldW, newW)
	return nil
}

// LeafDelta is AgentDelta on resolved handles: from and oldW are the
// agent's leaf and weight before the mutation (zero and nil for a
// join), to and newW after it (zero and nil for a leave). A re-declare
// or retilt within one leaf takes a single walk that moves each
// aggregate by sub-old then add-new — per resource the same float
// sequence as two walks, so the sums are bit-identical.
func (t *Tree) LeafDelta(from, to Leaf, oldW, newW []float64) {
	if oldW != nil && newW != nil && from == to {
		for n := to.n; n != nil; n = n.parent {
			n.sums.Apply(oldW, newW)
		}
		return
	}
	if oldW != nil {
		from.n.agents--
		for n := from.n; n != nil; n = n.parent {
			n.subAgents--
			n.sums.Apply(oldW, nil)
		}
	}
	if newW != nil {
		to.n.agents++
		for n := to.n; n != nil; n = n.parent {
			n.subAgents++
			n.sums.Apply(nil, newW)
		}
	}
}

// EachAgent is the resummation callback contract: it must visit every
// live agent as (leaf queue, rescaled weight) in a deterministic
// order.
type EachAgent func(visit func(queue string, weight []float64))

// EachLeafAgent is EachAgent on resolved handles. The serve layer
// passes its canonical name-sorted table walk.
type EachLeafAgent func(visit func(l Leaf, weight []float64))

// EndEpoch closes one delta batch, applying the flat table's
// resummation policy: an exact rebuild when the cadence is due, or
// immediately when churn through any node's aggregate has outrun the
// drift tolerance.
func (t *Tree) EndEpoch(each EachLeafAgent) {
	if t.cadence.Tick() || t.root.drifted() {
		t.ResumLeaves(each)
	}
}

// drifted reports whether any aggregate in n's subtree needs an exact
// rebuild.
func (n *node) drifted() bool {
	if n.sums.Drifted() {
		return true
	}
	for _, c := range n.children {
		if c.drifted() {
			return true
		}
	}
	return false
}

// Resum rebuilds every aggregate exactly from the live agents in the
// caller's canonical order — O(N·depth·R) — resetting churn.
func (t *Tree) Resum(each EachAgent) {
	t.BeginRebuild()
	each(t.addAgent)
	t.EndRebuild()
}

// ResumLeaves is Resum on resolved handles.
func (t *Tree) ResumLeaves(each EachLeafAgent) {
	t.BeginRebuild()
	each(t.addLeafAgent)
	t.EndRebuild()
}

// BeginRebuild starts an exact rebuild of every aggregate driven by the
// caller's own walk: the caller folds every live agent in once through
// RebuildAgent, in a deterministic order, and commits with EndRebuild.
// A rebuild that is never ended leaves the running aggregates untouched.
func (t *Tree) BeginRebuild() { t.root.eachNode(func(n *node) { n.spare.Reset() }) }

// RebuildAgent folds one agent's effective weight into the rebuild
// along its leaf-to-root path: per node, one add per resource, the
// arithmetic of an exact resummation.
func (t *Tree) RebuildAgent(l Leaf, w []float64) {
	for n := l.n; n != nil; n = n.parent {
		for r, v := range w {
			n.spare.AddAt(r, v)
		}
	}
}

// EndRebuild commits a rebuild: the rebuilt aggregates replace the
// running ones (churn reset) and the cadence restarts.
func (t *Tree) EndRebuild() {
	t.root.eachNode(func(n *node) { n.sums, n.spare = n.spare, n.sums })
	t.cadence.Resummed(true)
}

// eachNode visits n's subtree, n first.
func (n *node) eachNode(fn func(*node)) {
	fn(n)
	for _, c := range n.children {
		c.eachNode(fn)
	}
}

// Cadence returns the tree's resummation clock.
func (t *Tree) Cadence() *core.Cadence { return &t.cadence }
