package hier

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzQueueTreeDecode drives arbitrary bytes through the queue-config
// pipeline: decode → validate → build → re-encode → decode, asserting
// it never panics and that a config which validates round-trips
// semantically (cyclic parents, duplicate names, negative quota or
// weight, and quota sums exceeding the parent are all rejected by
// Validate, never tolerated or crashed on).
func FuzzQueueTreeDecode(f *testing.F) {
	seeds := []string{
		`{"queues":[]}`,
		`{"schema":"ref/queues/v1","queues":[{"name":"a"},{"name":"b","parent":"a","quota":[1,2]}]}`,
		`{"queues":[{"name":"a","parent":"a"}]}`,                           // self cycle
		`{"queues":[{"name":"a","parent":"b"},{"name":"b","parent":"a"}]}`, // two cycle
		`{"queues":[{"name":"a"},{"name":"a"}]}`,                           // duplicate
		`{"queues":[{"name":"a","quota":[-1,0]}]}`,                         // negative quota
		`{"queues":[{"name":"a","weight":-2}]}`,                            // negative weight
		`{"queues":[{"name":"a","quota":[1e308,1e308]}]}`,                  // quota over capacity
		`{"queues":[{"name":"p","quota":[1,1]},{"name":"c","parent":"p","quota":[2,0]}]}`,
		`{"queues":[{"name":"default"}]}`, // reserved name
		`{"queues":[{"name":"a","weight":0},{"name":"b","quota":[0.5,0.25],"weight":3}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	capacity := []float64{24, 12}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := cfg.Validate(capacity); err != nil {
			return
		}
		tree, err := NewTree(capacity, cfg, Options{})
		if err != nil {
			t.Fatalf("Validate accepted but NewTree rejected: %v\ninput: %s", err, data)
		}
		// A validated tree must allocate and audit without panicking,
		// even with no agents anywhere.
		al := tree.Allocate()
		if rep := AuditTree(tree, al, 0); !rep.Floors {
			t.Fatalf("empty tree failed floors: %v", rep.Findings)
		}

		// Re-encode → decode must be a fixed point (same queue set and
		// knobs; the runtime snapshot sorts by name, so compare maps).
		enc, err := tree.ConfigSnapshot().Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		again, err := DecodeConfig(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode: %v\nencoded: %s", err, enc)
		}
		if err := again.Validate(capacity); err != nil {
			t.Fatalf("re-decoded config invalid: %v\nencoded: %s", err, enc)
		}
		if got, want := queueMap(again), queueMap(tree.ConfigSnapshot()); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip drifted:\n got %v\nwant %v", got, want)
		}
		enc2, err := NewTreeMust(capacity, again).ConfigSnapshot().Encode()
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode not a fixed point:\n first %s\nsecond %s", enc, enc2)
		}
	})
}

// NewTreeMust is a fuzz-internal helper: the config was already
// validated, so construction cannot fail.
func NewTreeMust(capacity []float64, cfg *TreeConfig) *Tree {
	t, err := NewTree(capacity, cfg, Options{})
	if err != nil {
		panic(err)
	}
	return t
}

func queueMap(c *TreeConfig) map[string]string {
	m := make(map[string]string, len(c.Queues))
	for _, q := range c.Queues {
		b, _ := json.Marshal(q)
		m[q.Name] = string(b)
	}
	return m
}
