package sim

import (
	"errors"
	"reflect"
	"testing"

	"ref/internal/platform"
	"ref/internal/trace"
)

// The default spec must reproduce the legacy two-axis sweep bit for bit —
// same sample order, same coordinates, same IPC values.
func TestSweepSpecMatchesLegacySweep(t *testing.T) {
	w := cWorkload(t)
	legacy, err := SweepGridParallel(w, testAccesses, LLCSizes, Bandwidths, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SweepSpecParallel(w, platform.Default(), testAccesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Samples, spec.Samples) {
		t.Fatalf("spec sweep diverged from legacy sweep:\nlegacy %+v\nspec   %+v",
			legacy.Samples[:3], spec.Samples[:3])
	}
	if legacy.Names != nil {
		t.Fatalf("legacy sweep must stay unlabeled, got %v", legacy.Names)
	}
	if want := []string{"bandwidth", "cache"}; !reflect.DeepEqual(spec.Names, want) {
		t.Fatalf("spec sweep names = %v, want %v", spec.Names, want)
	}
}

// A three-resource sweep is deterministic across worker-pool widths — the
// tentpole's contract extended to R=3.
func TestSweepSpecThreeResourceDeterministic(t *testing.T) {
	w := cWorkload(t)
	spec := platform.ThreeResource()
	serial, err := SweepSpecParallel(w, spec, testAccesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(serial.Samples), spec.GridSize(); got != want {
		t.Fatalf("got %d samples, want %d", got, want)
	}
	for _, width := range []int{2, 8} {
		par, err := SweepSpecParallel(w, spec, testAccesses, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("width %d diverged from serial", width)
		}
	}
	for i, s := range serial.Samples {
		if len(s.Alloc) != 3 {
			t.Fatalf("sample %d has %d dims", i, len(s.Alloc))
		}
		if s.Perf <= 0 {
			t.Fatalf("sample %d: non-positive perf %v at %v", i, s.Perf, s.Alloc)
		}
	}
}

// Raising only the clock must not reduce instructions-per-second — the
// compute dim's monotonicity, which the Cobb-Douglas fit depends on.
func TestComputeDimMonotoneThroughput(t *testing.T) {
	w := cWorkload(t)
	spec := platform.ThreeResource()
	prev := 0.0
	for _, f := range spec.Dims[2].Levels {
		m, err := spec.Machine([]float64{12.8, 2, f})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, m, testAccesses)
		if err != nil {
			t.Fatal(err)
		}
		perf := spec.PerfOf(res.IPC(), []float64{12.8, 2, f})
		if perf < prev {
			t.Fatalf("throughput fell from %v to %v when clock rose to %v GHz", prev, perf, f)
		}
		prev = perf
	}
}

func TestSweepSpecErrors(t *testing.T) {
	w := cWorkload(t)
	if _, err := SweepSpecParallel(w, platform.Spec{}, 100, 1); !errors.Is(err, ErrBadPlatform) {
		t.Fatalf("empty spec: %v", err)
	}
	s := platform.Default()
	s.Dims[1].Levels = nil
	if _, err := SweepSpecParallel(w, s, 100, 1); !errors.Is(err, ErrBadPlatform) {
		t.Fatalf("empty levels: %v", err)
	}
}

func TestCoRunSpecThreeResource(t *testing.T) {
	spec := platform.ThreeResource()
	ws := []trace.Config{cWorkload(t), mWorkload(t)}
	alloc := [][]float64{
		{6.4, 1.5, 2.0},
		{6.4, 0.5, 1.0},
	}
	res, err := CoRunSpec(ws, spec, alloc, testAccesses, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Agents) != 2 {
		t.Fatalf("got %d agents", len(res.Agents))
	}
	for i, a := range res.Agents {
		if a.IPC() <= 0 {
			t.Fatalf("agent %d: IPC %v", i, a.IPC())
		}
	}
	// Determinism across widths.
	for _, width := range []int{1, 2, 8} {
		again, err := CoRunSpec(ws, spec, alloc, testAccesses, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("CoRunSpec width %d diverged", width)
		}
	}
}

func TestCoRunSpecErrors(t *testing.T) {
	spec := platform.ThreeResource()
	ws := []trace.Config{cWorkload(t), mWorkload(t)}
	cases := [][][]float64{
		nil,                            // wrong allocation count
		{{6.4, 1, 1}, {6.4, 1}},        // dim mismatch
		{{6.4, 1, 1}, {6.4, 0, 1}},     // non-positive share
		{{12.8, 1, 2}, {12.8, 1, 1}},   // bandwidth over capacity
		{{6.4, 1, 2.5}, {6.4, 1, 2.5}}, // compute over capacity
	}
	for i, alloc := range cases {
		if _, err := CoRunSpec(ws, spec, alloc, 100, 1); !errors.Is(err, ErrBadPlatform) {
			t.Errorf("case %d: err = %v, want ErrBadPlatform", i, err)
		}
	}
	if _, err := CoRunSpec(nil, spec, nil, 100, 1); !errors.Is(err, ErrBadPlatform) {
		t.Errorf("no workloads: %v", err)
	}
}
