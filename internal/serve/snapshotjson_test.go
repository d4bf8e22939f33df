package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// referenceSnapshotJSON is the encoding appendSnapshot must reproduce:
// what json.NewEncoder with SetIndent("", "  ") writes for snap.
func referenceSnapshotJSON(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(snap)
	return buf.Bytes(), err
}

// compareSnapshotJSON fails the test unless appendSnapshot and the
// encoding/json reference agree on snap: the same bytes, or both refuse.
func compareSnapshotJSON(t *testing.T, snap *Snapshot) {
	t.Helper()
	want, wantErr := referenceSnapshotJSON(snap)
	got, gotErr := appendSnapshot([]byte("prefix"), snap)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("error mismatch: appendSnapshot %v, encoding/json %v\nsnapshot %#v", gotErr, wantErr, snap)
	}
	if wantErr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("appendSnapshot clobbered the buffer it appends to: %q", got[:min(len(got), 16)])
	}
	if got = got[len("prefix"):]; !bytes.Equal(got, want) {
		t.Fatalf("appendSnapshot diverged from encoding/json\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// fillNonZero sets every field reachable from v to a distinct non-zero
// value: strings, numbers and bools directly, slices to one element,
// pointers to a filled target.
func fillNonZero(v reflect.Value, seq *int) {
	*seq++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *seq))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*seq))
	case reflect.Uint64:
		v.SetUint(uint64(*seq))
	case reflect.Float64:
		v.SetFloat(float64(*seq) + 0.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0), seq)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem(), seq)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i), seq)
		}
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// TestSnapshotEncoderCoversEveryField sets every field of a Snapshot and
// of everything it points to, so a field added to the wire types but
// not to appendSnapshot fails here even if no fixture sets it.
func TestSnapshotEncoderCoversEveryField(t *testing.T) {
	var snap Snapshot
	seq := 0
	fillNonZero(reflect.ValueOf(&snap).Elem(), &seq)
	compareSnapshotJSON(t, &snap)
	compareSnapshotJSON(t, &Snapshot{})
}

// TestSnapshotEncoderEdgeCases pins the encoding/json rules appendSnapshot
// must reproduce: nil versus empty slices, omitempty on -0, the float
// format switch points, and string escaping.
func TestSnapshotEncoderEdgeCases(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e100, 1.5e-300, 5e-324, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64, 17.999999999999996, 0.1, 123456789012345678}
	names := []string{"", "plain", "<script>&amp;</script>", "quote\"back\\slash", "\b\f\n\r\t\x00\x01\x1f\x7f",
		"\u00fc \u6f22\u5b57 \U0001f642", "line\u2028para\u2029", "bad\xffutf8\xc3", "\xed\xa0\x80 surrogate"}
	agents := make([]WireAgent, 0, len(names))
	for i, n := range names {
		agents = append(agents, WireAgent{Name: n, Alpha0: floats[i%len(floats)], Elasticities: floats, Workload: n, Queue: n})
	}
	cases := map[string]*Snapshot{
		"nil slices": {Schema: Schema, Fairness: &Fairness{}},
		"empty slices": {Schema: Schema, Capacity: []float64{}, Agents: []WireAgent{}, Allocation: [][]float64{},
			Queues: []QueueRollup{}, Budgets: []float64{}, Fairness: &Fairness{Violations: []string{}}},
		"nil and empty rows": {Agents: []WireAgent{{}, {Elasticities: []float64{}}},
			Allocation: [][]float64{nil, {}, floats}},
		"negative zero omitted": {Fairness: &Fairness{Hier: &HierFairness{MinSIMargin: math.Copysign(0, -1)}},
			Queues: []QueueRollup{{ReclaimIn: math.Copysign(0, -1)}}, EpochSeconds: math.Copysign(0, -1)},
		"floats and names": {Schema: Schema, Time: "2014-03-01T00:00:00.123456789Z", Capacity: floats, Agents: agents,
			Allocation: [][]float64{floats}, Budgets: floats,
			Fairness: &Fairness{Violations: names, Sampled: true, SampleSize: -3}},
	}
	for name, snap := range cases {
		t.Run(name, func(t *testing.T) { compareSnapshotJSON(t, snap) })
	}
}

// TestSnapshotEncoderRefusesNonFinite: every float field holding NaN or
// ±Inf must fail the encoding, as it fails encoding/json (which
// compareSnapshotJSON requires of both).
func TestSnapshotEncoderRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, snap := range []*Snapshot{
			{EpochSeconds: bad},
			{Allocation: [][]float64{{1, bad}}},
			{Agents: []WireAgent{{Alpha0: bad}}},
			{Credit: &CreditRollup{FairSum: bad}},
			{Fairness: &Fairness{Hier: &HierFairness{ReclaimMoved: bad}}},
			{Queues: []QueueRollup{{Share: []float64{bad}}}},
		} {
			compareSnapshotJSON(t, snap)
		}
	}
}

// TestSnapshotHandlerRefusesNonFinite: a snapshot that cannot be encoded
// is answered with a typed 500 envelope, not a 200 with a cut body.
func TestSnapshotHandlerRefusesNonFinite(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	join(t, ts.URL, "a", 1, 1)
	bad := *s.Current()
	bad.EpochSeconds = math.NaN()
	s.snap.Store(&bad)
	status, b, h := do(t, http.MethodGet, ts.URL+"/v1/allocation", nil)
	wantAPIError(t, status, b, http.StatusInternalServerError, CodeEncodeFailed)
	if ct := h.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q on the 500 envelope", ct)
	}
}

// fuzzInput hands out the fuzz bytes as snapshot building blocks; an
// exhausted input reads as zeros.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

func (in *fuzzInput) bool() bool { return in.byte()&1 == 1 }

// count is a small length in [0, n).
func (in *fuzzInput) count(n int) int { return int(in.byte()) % n }

func (in *fuzzInput) int() int { return int(int16(uint16(in.byte())<<8 | uint16(in.byte()))) }

// fuzzFloats are the values where encoding/json's float rules change:
// signed zeros, both sides of the 1e-6 and 1e21 format switch points,
// subnormals, and the extremes.
var fuzzFloats = []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-6, -1e-6, math.Nextafter(1e-6, 0), 1e-7,
	1e21, -1e21, math.Nextafter(1e21, 0), 5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	17.999999999999996}

// nonFinite are the floats both encoders must refuse.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// float reads one of fuzzFloats for a lead byte below 128, a non-finite
// value for 255 (rare, so most snapshots stay encodable), and eight raw
// bytes otherwise.
func (in *fuzzInput) float() float64 {
	switch c := int(in.byte()); {
	case c < 128:
		return fuzzFloats[c%len(fuzzFloats)]
	case c == 255:
		return nonFinite[in.count(len(nonFinite))]
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(in.byte())
	}
	return math.Float64frombits(u)
}

// fuzzStrings are names that exercise escaping: HTML characters, every
// short escape, bare control bytes, multi-byte text, the JavaScript line
// separators, and invalid UTF-8.
var fuzzStrings = []string{"", "a", "<a&b>", "\"\\", "\b\f\n\r\t", "\x00\x1f\x7f", "\u00fc\u6f22\U0001f642", "\u2028\u2029",
	"\xff", "\xc3", "\xed\xa0\x80", "default"}

// string reads one of fuzzStrings or, past the table, up to 15 raw bytes.
func (in *fuzzInput) string() string {
	c := int(in.byte())
	if c < 4*len(fuzzStrings) {
		return fuzzStrings[c%len(fuzzStrings)]
	}
	n := c % 16
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, in.byte())
	}
	return string(out)
}

// floats reads a float slice: nil, empty, or up to three values.
func (in *fuzzInput) floats() []float64 {
	switch n := in.count(5); n {
	case 0:
		return nil
	default:
		xs := make([]float64, n-1)
		for i := range xs {
			xs[i] = in.float()
		}
		return xs
	}
}

// snapshot builds a Snapshot in which every field, optional or not, is
// decided by the input.
func (in *fuzzInput) snapshot() *Snapshot {
	s := &Snapshot{Schema: in.string(), Epoch: uint64(in.int()) * 0x9e3779b97f4a7c15, Time: in.string(),
		Capacity: in.floats(), AgentsElided: in.bool(), AgentCount: in.int(),
		BatchSize: in.int(), Applied: in.int(), Rejected: in.int(), EpochSeconds: in.float()}
	if in.bool() {
		s.Agents = make([]WireAgent, in.count(4))
		for i := range s.Agents {
			s.Agents[i] = WireAgent{Name: in.string(), Alpha0: in.float(), Elasticities: in.floats(),
				Workload: in.string(), Queue: in.string()}
		}
	}
	if in.bool() {
		s.Allocation = make([][]float64, in.count(4))
		for i := range s.Allocation {
			s.Allocation[i] = in.floats()
		}
	}
	if in.bool() {
		f := &Fairness{SI: in.bool(), EF: in.bool(), PE: in.bool(), Sampled: in.bool(), SampleSize: in.int()}
		if in.bool() {
			f.Violations = make([]string, in.count(4))
			for i := range f.Violations {
				f.Violations[i] = in.string()
			}
		}
		if in.bool() {
			f.Hier = &HierFairness{Floors: in.bool(), SI: in.bool(), EF: in.bool(),
				MinSIMargin: in.float(), ReclaimMoved: in.float()}
		}
		s.Fairness = f
	}
	if in.bool() {
		s.Queues = make([]QueueRollup, in.count(4))
		for i := range s.Queues {
			s.Queues[i] = QueueRollup{Name: in.string(), Parent: in.string(), Leaf: in.bool(), Weight: in.float(),
				Quota: in.floats(), Agents: in.int(), Fair: in.floats(), Share: in.floats(),
				ReclaimOut: in.float(), ReclaimIn: in.float()}
		}
	}
	if in.bool() {
		s.Credit = &CreditRollup{HalfLifeSeconds: in.float(), MinBudget: in.float(), MaxBudget: in.float(),
			BudgetSum: in.float(), TiltMax: in.float(), TiltMin: in.float(), UsageSum: in.float(), FairSum: in.float()}
	}
	s.Budgets = in.floats()
	return s
}

// FuzzSnapshotJSON is the differential check of appendSnapshot against
// encoding/json on snapshots built from the fuzz input:
//
//	go test ./internal/serve -run '^$' -fuzz FuzzSnapshotJSON -fuzztime 30s
func FuzzSnapshotJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 64))
	f.Add(bytes.Repeat([]byte{0xff, 0x03, 0x41}, 80))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareSnapshotJSON(t, (&fuzzInput{b: data}).snapshot())
	})
}

// TestSnapshotEncoderRandom runs the fuzz body over a fixed set of
// pseudo-random inputs, so every test run covers more than the seeds.
func TestSnapshotEncoderRandom(t *testing.T) {
	const runs = 2000
	rng := rand.New(rand.NewSource(15))
	data := make([]byte, 512)
	encoded := 0
	for i := 0; i < runs; i++ {
		in := &fuzzInput{b: data[:rng.Intn(len(data))]}
		rng.Read(in.b)
		snap := in.snapshot()
		compareSnapshotJSON(t, snap)
		if _, err := appendSnapshot(nil, snap); err == nil {
			encoded++
		}
	}
	if encoded < runs/2 {
		t.Fatalf("only %d of %d random snapshots were encodable; the comparison is mostly vacuous", encoded, runs)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so only the
// handler's own allocations are counted.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestSnapshotHandlerAllocsFlat pins that serving the full snapshot
// allocates the same at 64 and at 3,000 inline agents: after warm-up the
// body is encoded into a pooled buffer, so no allocation grows with N.
func TestSnapshotHandlerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	measure := func(n int) float64 {
		cfg := testConfig()
		cfg.MaxBatch = 1024
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.Close(context.Background()); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		// Concurrent joins share a few large epochs instead of paying
		// one epoch each.
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			u := mustUtility(t, 1, float64(i%7)+1, float64(i%5)+1)
			wire := WireAgent{Name: fmt.Sprintf("agent%05d", i), Alpha0: u.Alpha0, Elasticities: u.Alpha}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, _, aerr := s.Join(context.Background(), wire, u); aerr != nil {
					t.Errorf("join %s: %v", wire.Name, aerr)
				}
			}()
		}
		wg.Wait()
		if snap := s.Current(); snap.AgentsElided || len(snap.Agents) != n {
			t.Fatalf("want %d inline agents, got %d (elided %v)", n, len(snap.Agents), snap.AgentsElided)
		}
		h := s.Handler()
		r := httptest.NewRequest(http.MethodGet, "/v1/allocation", nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, r) // warm the pooled buffer
		return testing.AllocsPerRun(50, func() { h.ServeHTTP(w, r) })
	}
	small, large := measure(64), measure(3000)
	if small != large {
		t.Fatalf("GET /v1/allocation allocates %v times at 64 agents but %v at 3000", small, large)
	}
}

// benchSnapshot is an inline snapshot of n two-resource agents with
// full-precision floats, the shape http-read serves.
func benchSnapshot(n int) *Snapshot {
	rng := rand.New(rand.NewSource(1))
	snap := &Snapshot{Schema: Schema, Epoch: 12345, Time: "2014-03-01T00:00:00.123456789Z",
		Capacity: []float64{24, 12}, Agents: make([]WireAgent, n), Allocation: make([][]float64, n),
		Fairness: &Fairness{SI: true, EF: true, PE: true, Sampled: true, SampleSize: 256}, BatchSize: 3, Applied: 3}
	for i := range snap.Agents {
		a, b := rng.Float64(), rng.Float64()
		snap.Agents[i] = WireAgent{Name: fmt.Sprintf("agent%05d", i), Alpha0: 1, Elasticities: []float64{a / (a + b), b / (a + b)}}
		snap.Allocation[i] = []float64{24 * rng.Float64() / float64(n), 12 * rng.Float64() / float64(n)}
	}
	return snap
}

// BenchmarkSnapshotEncode compares appendSnapshot with the encoding/json
// path it replaced on a 3,000-agent snapshot:
//
//	go test ./internal/serve -run '^$' -bench SnapshotEncode -benchmem
func BenchmarkSnapshotEncode(b *testing.B) {
	snap := benchSnapshot(3000)
	b.Run("append", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendSnapshot(buf[:0], snap)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snap)
		}
		b.SetBytes(int64(buf.Len()))
	})
}
