package platform

import (
	"errors"
	"reflect"
	"testing"
)

// The default spec must reproduce the legacy 2-resource pipeline bit for
// bit: same machines, same grid order, same sample coordinates.
func TestDefaultSpecMatchesLegacyPlatforms(t *testing.T) {
	legacySizes := []int{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
	legacyBandwidths := []float64{0.8, 1.6, 3.2, 6.4, 12.8}
	s := Default()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.GridSize(); got != 25 {
		t.Fatalf("GridSize = %d, want 25", got)
	}
	for i := 0; i < s.GridSize(); i++ {
		// Legacy order: bw = bandwidths[i/len(sizes)], sz = sizes[i%len(sizes)].
		wantBW := legacyBandwidths[i/len(legacySizes)]
		wantSz := legacySizes[i%len(legacySizes)]
		alloc := s.GridPoint(i)
		if alloc[0] != wantBW {
			t.Fatalf("point %d: bandwidth %v, want %v", i, alloc[0], wantBW)
		}
		if alloc[1] != float64(wantSz)/(1<<20) {
			t.Fatalf("point %d: cache %v MB, want %v", i, alloc[1], float64(wantSz)/(1<<20))
		}
		m, err := s.Machine(alloc)
		if err != nil {
			t.Fatal(err)
		}
		want := DefaultPlatform(wantSz, wantBW)
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("point %d: Machine = %+v, want DefaultPlatform = %+v", i, m, want)
		}
	}
}

func TestCacheDimRoundTripsOffLadderSizes(t *testing.T) {
	for _, sz := range []int{192 << 10, 384 << 10, 768 << 10, 3 << 20} {
		mb := float64(sz) / (1 << 20)
		var p Platform
		if err := CacheDim().Apply(&p, mb); err != nil {
			t.Fatal(err)
		}
		if p.LLC.SizeBytes != sz {
			t.Fatalf("cache %v MB applied as %d bytes, want %d", mb, p.LLC.SizeBytes, sz)
		}
	}
}

func TestComputeDimScalesClockOnly(t *testing.T) {
	s := ThreeResource()
	m, err := s.Machine([]float64{6.4, 1, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if m.DRAM.CoreClockGHz != 1.5 {
		t.Fatalf("CoreClockGHz = %v, want 1.5", m.DRAM.CoreClockGHz)
	}
	if m.DRAM.BandwidthGBps != 6.4 || m.LLC.SizeBytes != 1<<20 {
		t.Fatalf("other dims perturbed: %+v", m.DRAM)
	}
	ref := DefaultPlatform(1<<20, 6.4)
	ref.DRAM.CoreClockGHz = 1.5
	if !reflect.DeepEqual(m, ref) {
		t.Fatalf("Machine = %+v, want %+v", m, ref)
	}
}

func TestThreeResourcePerfNormalizesToReferenceClock(t *testing.T) {
	s := ThreeResource()
	if got := s.PerfOf(1.2, []float64{6.4, 1, ReferenceClockGHz}); got != 1.2 {
		t.Fatalf("PerfOf at reference clock = %v, want 1.2", got)
	}
	if got := s.PerfOf(1.2, []float64{6.4, 1, 1.5}); got != 1.2*1.5/ReferenceClockGHz {
		t.Fatalf("PerfOf at 1.5 GHz = %v", got)
	}
	if got := Default().PerfOf(0.7, []float64{6.4, 1}); got != 0.7 {
		t.Fatalf("default PerfOf = %v, want plain IPC", got)
	}
}

func TestSpecValidateRejectsDegenerates(t *testing.T) {
	cases := []Spec{
		{},
		{Dims: []ResourceDim{{Name: "", Capacity: 1, Levels: []float64{1}, Apply: BandwidthDim().Apply}}},
		{Dims: []ResourceDim{BandwidthDim(), BandwidthDim()}},                 // duplicate name
		{Dims: []ResourceDim{{Name: "x", Capacity: 1, Levels: []float64{1}}}}, // no Apply
		{Dims: []ResourceDim{{Name: "x", Capacity: 0, Levels: []float64{1}, Apply: BandwidthDim().Apply}}},
		{Dims: []ResourceDim{{Name: "x", Capacity: 1, Apply: BandwidthDim().Apply}}}, // no levels
		{Dims: []ResourceDim{{Name: "x", Capacity: 1, Levels: []float64{2, 1}, Apply: BandwidthDim().Apply}}},
	}
	for i, s := range cases {
		if err := s.Validate(); !errors.Is(err, ErrBadPlatform) {
			t.Errorf("case %d: Validate = %v, want ErrBadPlatform", i, err)
		}
	}
}

func TestSpecKeyDistinguishesSpecs(t *testing.T) {
	a, b := Default(), ThreeResource()
	if a.Key() == b.Key() {
		t.Fatal("Default and ThreeResource share a key")
	}
	if a.Key() != Default().Key() {
		t.Fatal("Key not deterministic")
	}
	c := Default()
	c.Dims[1].Levels = append([]float64(nil), c.Dims[1].Levels...)
	c.Dims[1].Levels[0] = 0.0625
	if c.Key() == a.Key() {
		t.Fatal("level change not reflected in key")
	}
}

func TestByResources(t *testing.T) {
	if s, err := ByResources(2); err != nil || s.NumResources() != 2 {
		t.Fatalf("ByResources(2) = %v, %v", s.Name, err)
	}
	if s, err := ByResources(3); err != nil || s.NumResources() != 3 {
		t.Fatalf("ByResources(3) = %v, %v", s.Name, err)
	}
	if _, err := ByResources(4); !errors.Is(err, ErrBadPlatform) {
		t.Fatalf("ByResources(4) = %v, want ErrBadPlatform", err)
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(`{"dims":[{"kind":"bandwidth","capacity":25.6},{"kind":"cache"},{"kind":"compute"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumResources() != 3 || s.Dims[0].Capacity != 25.6 || s.Name != "bandwidth+cache+compute" {
		t.Fatalf("ParseSpec = %+v", s)
	}
	if s.Perf == nil {
		t.Fatal("compute dim should select the reference-clock metric")
	}
	if got := s.PerfOf(2, []float64{1, 1, 1.5}); got != 2*1.5/ReferenceClockGHz {
		t.Fatalf("parsed Perf = %v", got)
	}

	// Permuted dims carry their names with them.
	s2, err := ParseSpec([]byte(`{"dims":[{"kind":"cache"},{"kind":"bandwidth"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s2.DimIndex("cache") != 0 || s2.DimIndex("bandwidth") != 1 {
		t.Fatalf("permuted spec indices: %v", s2.Names())
	}
	if s2.Perf != nil {
		t.Fatal("no compute dim should mean plain IPC")
	}

	for _, bad := range []string{
		``, `{}`, `{"dims":[]}`, `{"dims":[{"kind":"tensor-cores"}]}`,
		`{"perf":"reference-clock","dims":[{"kind":"cache"},{"kind":"bandwidth"}]}`,
		`{"perf":"nonsense","dims":[{"kind":"cache"},{"kind":"bandwidth"}]}`,
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestParseSpecArg(t *testing.T) {
	if s, err := ParseSpecArg(nil, 0); err != nil || s.Name != Default().Name {
		t.Fatalf("ParseSpecArg(nil, 0) = %v, %v", s.Name, err)
	}
	if s, err := ParseSpecArg(nil, 3); err != nil || s.NumResources() != 3 {
		t.Fatalf("ParseSpecArg(nil, 3) = %v, %v", s.Name, err)
	}
	if s, err := ParseSpecArg([]byte(`{"dims":[{"kind":"cache"},{"kind":"bandwidth"}]}`), 3); err != nil || s.DimIndex("cache") != 0 {
		t.Fatalf("spec JSON should win over -resources: %v, %v", s.Names(), err)
	}
}

func TestFormatValue(t *testing.T) {
	if got := BandwidthDim().FormatValue(6.4); got != " 6.4 GB/s" {
		t.Fatalf("FormatValue = %q", got)
	}
	d := ResourceDim{Name: "x", Unit: "u"}
	if got := d.FormatValue(1.5); got != "1.5 u" {
		t.Fatalf("default FormatValue = %q", got)
	}
}
