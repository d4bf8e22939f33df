package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FlightSchema identifies flight-recorder JSON payloads (live snapshots
// and anomaly dumps alike).
const FlightSchema = "ref/flightrec/v1"

// FlightOptions tunes a flight recorder.
type FlightOptions struct {
	// MaxDumps bounds the retained in-memory anomaly dumps; older dumps
	// roll off (default 8).
	MaxDumps int
	// Dir, when set, additionally writes each anomaly dump as a JSON
	// file flightrec-<seq>-<reason>.json in that directory.
	Dir string
}

// FlightDump is one anomaly-triggered capture: the full ring at the
// moment of the trigger, oldest record first.
type FlightDump[T any] struct {
	Schema string `json:"schema"`
	// Reason names the trigger, e.g. "audit_failure", "latency_breach",
	// "shed_spike".
	Reason string `json:"reason"`
	// Time is the trigger time (RFC3339Nano).
	Time string `json:"time"`
	// Seq is the total records ever recorded when the dump fired; dumps
	// of the same recorder order by it.
	Seq uint64 `json:"seq"`
	// Records is the ring at dump time, oldest first.
	Records []T `json:"records"`
	// File is the on-disk copy's path when a dump directory was
	// configured.
	File string `json:"file,omitempty"`
}

// FlightSnapshot is the live state served at the flight-recorder
// endpoint: the current ring plus any retained anomaly dumps.
type FlightSnapshot[T any] struct {
	Schema string `json:"schema"`
	// Enabled is false for the nil recorder (the endpoint still answers
	// 200 so probes can distinguish "off" from "broken").
	Enabled bool `json:"enabled"`
	// Size is the ring capacity.
	Size int `json:"size,omitempty"`
	// Seq is the total records ever recorded.
	Seq uint64 `json:"seq,omitempty"`
	// Records is the current ring, oldest first.
	Records []T `json:"records,omitempty"`
	// Dumps lists retained anomaly dumps, oldest first.
	Dumps []FlightDump[T] `json:"dumps,omitempty"`
}

// FlightRecorder keeps the last N records of type T in a bounded ring
// and captures the whole ring when an anomaly fires — a black box for
// reconstructing the moments before an audit failure or latency breach.
// The nil recorder no-ops, so call sites need no enabled-check.
//
// Unlike the metric instruments the recorder is mutex-guarded: records
// are structs, not words, and every caller in the serve path records
// from the single epoch goroutine, so the lock is uncontended.
type FlightRecorder[T any] struct {
	mu       sync.Mutex
	ring     []T
	head     int // next write index
	n        int // filled entries
	seq      uint64
	dumps    []FlightDump[T]
	maxDumps int
	dir      string
	// lastDump rearms per reason: a reason fires again only after the
	// ring has fully turned over since its previous dump, so a sustained
	// anomaly yields distinct captures instead of near-duplicates.
	lastDump map[string]uint64
}

// NewFlightRecorder returns a recorder retaining the last size records
// (minimum 1).
func NewFlightRecorder[T any](size int, opts FlightOptions) *FlightRecorder[T] {
	if size < 1 {
		size = 1
	}
	if opts.MaxDumps <= 0 {
		opts.MaxDumps = 8
	}
	return &FlightRecorder[T]{
		ring:     make([]T, size),
		maxDumps: opts.MaxDumps,
		dir:      opts.Dir,
		lastDump: make(map[string]uint64),
	}
}

// Record appends one record, evicting the oldest when the ring is full.
func (f *FlightRecorder[T]) Record(rec T) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ring[f.head] = rec
	f.head = (f.head + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.seq++
}

// records copies the ring oldest-first. Callers hold f.mu.
func (f *FlightRecorder[T]) recordsLocked() []T {
	out := make([]T, 0, f.n)
	start := f.head - f.n
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < f.n; i++ {
		out = append(out, f.ring[(start+i)%len(f.ring)])
	}
	return out
}

// Dump captures the current ring under the given reason. It reports
// whether a dump was taken — a reason that already dumped re-arms only
// after the ring fully turns over, so sustained anomalies produce
// distinct captures, not one per record. When a dump directory is
// configured the capture is also written as a JSON file (write errors
// are returned but the in-memory dump is kept regardless).
func (f *FlightRecorder[T]) Dump(reason string, now time.Time) (bool, string, error) {
	if f == nil {
		return false, "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armedLocked(reason) {
		return false, "", nil
	}
	f.lastDump[reason] = f.seq
	d := FlightDump[T]{
		Schema:  FlightSchema,
		Reason:  reason,
		Time:    now.UTC().Format(time.RFC3339Nano),
		Seq:     f.seq,
		Records: f.recordsLocked(),
	}
	var err error
	if f.dir != "" {
		d.File = filepath.Join(f.dir, fmt.Sprintf("flightrec-%06d-%s.json", f.seq, reason))
		var data []byte
		if data, err = json.MarshalIndent(d, "", "  "); err == nil {
			err = os.WriteFile(d.File, append(data, '\n'), 0o644)
		}
		if err != nil {
			err = fmt.Errorf("obs: flight dump: %w", err)
			d.File = ""
		}
	}
	f.dumps = append(f.dumps, d)
	if len(f.dumps) > f.maxDumps {
		f.dumps = f.dumps[len(f.dumps)-f.maxDumps:]
	}
	return true, d.File, err
}

// Armed reports whether a Dump under reason would capture now: the
// reason has not dumped within the last ring's worth of records.
func (f *FlightRecorder[T]) Armed(reason string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armedLocked(reason)
}

func (f *FlightRecorder[T]) armedLocked(reason string) bool {
	last, ok := f.lastDump[reason]
	return !ok || f.seq >= last+uint64(len(f.ring))
}

// Dumps returns the retained anomaly dumps, oldest first.
func (f *FlightRecorder[T]) Dumps() []FlightDump[T] {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FlightDump[T](nil), f.dumps...)
}

// Snapshot returns the live ring and retained dumps. The nil recorder
// reports Enabled: false.
func (f *FlightRecorder[T]) Snapshot() FlightSnapshot[T] {
	if f == nil {
		return FlightSnapshot[T]{Schema: FlightSchema}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightSnapshot[T]{
		Schema:  FlightSchema,
		Enabled: true,
		Size:    len(f.ring),
		Seq:     f.seq,
		Records: f.recordsLocked(),
		Dumps:   append([]FlightDump[T](nil), f.dumps...),
	}
}
