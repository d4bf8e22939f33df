package serve

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendSnapshot appends the body of GET /v1/allocation to b: the JSON
// encoding of snap byte-for-byte as json.NewEncoder with
// SetIndent("", "  ") writes it, trailing newline included. It writes the
// indented form directly, skipping encoding/json's reflection pass and
// its second re-indenting pass over the marshalled bytes, which dominate
// the cost of serving a snapshot of a few thousand agents.
//
// Like encoding/json it refuses NaN and ±Inf; the returned bytes are then
// incomplete and must not be sent. Every field of Snapshot and of the
// types it embeds must appear here in declaration order with its tag's
// name and omitempty rule; TestSnapshotEncoderCoversEveryField fails when
// a new field is missed.
func appendSnapshot(b []byte, snap *Snapshot) ([]byte, error) {
	e := snapshotEncoder{b: b}
	e.snapshot(snap)
	return e.b, e.err
}

// snapshotEncoder writes indented JSON one token at a time. empty tracks
// whether the innermost open object or array has an element yet, which
// decides between a separating comma and the compact "{}"/"[]" forms.
type snapshotEncoder struct {
	b     []byte
	depth int
	empty bool
	err   error
}

func (e *snapshotEncoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.empty = true
}

func (e *snapshotEncoder) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, c)
	e.empty = false
}

func (e *snapshotEncoder) newline() {
	e.b = append(e.b, '\n')
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, "  "...)
	}
}

// elem starts the next element of the innermost object or array.
func (e *snapshotEncoder) elem() {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
}

// key starts an object member; names are plain ASCII and need no escaping.
func (e *snapshotEncoder) key(name string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, `": `...)
}

func (e *snapshotEncoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

func (e *snapshotEncoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

func (e *snapshotEncoder) str(s string) { e.b = appendJSONString(e.b, s) }

// float follows encoding/json: the shortest round-tripping decimal, in
// exponent form below 1e-6 and from 1e21 up, with a one-digit negative
// exponent unpadded (1e-7, not 1e-07).
func (e *snapshotEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// floats writes a float array: null for a nil slice, [] for an empty one.
func (e *snapshotEncoder) floats(xs []float64) {
	if xs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('[')
	for _, x := range xs {
		e.elem()
		e.float(x)
	}
	e.close(']')
}

func (e *snapshotEncoder) snapshot(s *Snapshot) {
	e.open('{')
	e.key("schema")
	e.str(s.Schema)
	e.key("epoch")
	e.b = strconv.AppendUint(e.b, s.Epoch, 10)
	e.key("time")
	e.str(s.Time)
	e.key("capacity")
	e.floats(s.Capacity)
	e.key("agents")
	if s.Agents == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for i := range s.Agents {
			e.elem()
			e.agent(&s.Agents[i])
		}
		e.close(']')
	}
	e.key("allocation")
	if s.Allocation == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for _, row := range s.Allocation {
			e.elem()
			e.floats(row)
		}
		e.close(']')
	}
	if s.AgentsElided {
		e.key("agents_elided")
		e.bool(true)
	}
	if s.AgentCount != 0 {
		e.key("agent_count")
		e.int(s.AgentCount)
	}
	if s.Fairness != nil {
		e.key("fairness")
		e.fairness(s.Fairness)
	}
	e.key("batch_size")
	e.int(s.BatchSize)
	e.key("applied")
	e.int(s.Applied)
	e.key("rejected")
	e.int(s.Rejected)
	e.key("epoch_seconds")
	e.float(s.EpochSeconds)
	if len(s.Queues) > 0 {
		e.key("queues")
		e.open('[')
		for i := range s.Queues {
			e.elem()
			e.queue(&s.Queues[i])
		}
		e.close(']')
	}
	if s.Credit != nil {
		e.key("credit")
		e.credit(s.Credit)
	}
	if len(s.Budgets) > 0 {
		e.key("budgets")
		e.floats(s.Budgets)
	}
	e.close('}')
	e.b = append(e.b, '\n')
}

func (e *snapshotEncoder) agent(a *WireAgent) {
	e.open('{')
	e.key("name")
	e.str(a.Name)
	e.key("alpha0")
	e.float(a.Alpha0)
	e.key("elasticities")
	e.floats(a.Elasticities)
	if a.Workload != "" {
		e.key("workload")
		e.str(a.Workload)
	}
	if a.Queue != "" {
		e.key("queue")
		e.str(a.Queue)
	}
	e.close('}')
}

func (e *snapshotEncoder) fairness(f *Fairness) {
	e.open('{')
	e.key("si")
	e.bool(f.SI)
	e.key("ef")
	e.bool(f.EF)
	e.key("pe")
	e.bool(f.PE)
	if len(f.Violations) > 0 {
		e.key("violations")
		e.open('[')
		for _, v := range f.Violations {
			e.elem()
			e.str(v)
		}
		e.close(']')
	}
	if f.Sampled {
		e.key("sampled")
		e.bool(true)
	}
	if f.SampleSize != 0 {
		e.key("sample_size")
		e.int(f.SampleSize)
	}
	if h := f.Hier; h != nil {
		e.key("hier")
		e.open('{')
		e.key("floors")
		e.bool(h.Floors)
		e.key("si")
		e.bool(h.SI)
		e.key("ef")
		e.bool(h.EF)
		if h.MinSIMargin != 0 {
			e.key("min_si_margin")
			e.float(h.MinSIMargin)
		}
		if h.ReclaimMoved != 0 {
			e.key("reclaim_moved")
			e.float(h.ReclaimMoved)
		}
		e.close('}')
	}
	e.close('}')
}

func (e *snapshotEncoder) queue(q *QueueRollup) {
	e.open('{')
	e.key("name")
	e.str(q.Name)
	if q.Parent != "" {
		e.key("parent")
		e.str(q.Parent)
	}
	e.key("leaf")
	e.bool(q.Leaf)
	e.key("weight")
	e.float(q.Weight)
	e.key("quota")
	e.floats(q.Quota)
	e.key("agents")
	e.int(q.Agents)
	e.key("fair")
	e.floats(q.Fair)
	e.key("share")
	e.floats(q.Share)
	if q.ReclaimOut != 0 {
		e.key("reclaim_out")
		e.float(q.ReclaimOut)
	}
	if q.ReclaimIn != 0 {
		e.key("reclaim_in")
		e.float(q.ReclaimIn)
	}
	e.close('}')
}

func (e *snapshotEncoder) credit(c *CreditRollup) {
	e.open('{')
	e.key("half_life_seconds")
	e.float(c.HalfLifeSeconds)
	e.key("min_budget")
	e.float(c.MinBudget)
	e.key("max_budget")
	e.float(c.MaxBudget)
	e.key("budget_sum")
	e.float(c.BudgetSum)
	e.key("tilt_max")
	e.float(c.TiltMax)
	e.key("tilt_min")
	e.float(c.TiltMin)
	e.key("usage_sum")
	e.float(c.UsageSum)
	e.key("fair_sum")
	e.float(c.FairSum)
	e.close('}')
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped with HTML escaping on: everything printable except the quote,
// the backslash, and <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendJSONString appends s as a quoted JSON string escaped exactly as
// encoding/json escapes it: short escapes for \" \\ \b \f \n \r \t, \u00XX
// for other control bytes and for <, > and &, \ufffd for each invalid
// UTF-8 byte, and \u2028 and \u2029 for the two JavaScript line separators.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
