package aggregate

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"envirotrack/internal/geom"
)

func samplesOf(vals ...float64) []Sample {
	ss := make([]Sample, len(vals))
	for i, v := range vals {
		ss[i] = Sample{MoteID: i, Scalar: v}
	}
	return ss
}

func TestBuiltinScalarFuncs(t *testing.T) {
	tests := []struct {
		name string
		fn   Func
		in   []float64
		want float64
	}{
		{name: "avg", fn: Avg, in: []float64{1, 2, 3}, want: 2},
		{name: "avg single", fn: Avg, in: []float64{5}, want: 5},
		{name: "sum", fn: Sum, in: []float64{1, 2, 3}, want: 6},
		{name: "min", fn: Min, in: []float64{3, -1, 2}, want: -1},
		{name: "max", fn: Max, in: []float64{3, -1, 2}, want: 3},
		{name: "count", fn: Count, in: []float64{9, 9, 9, 9}, want: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.fn.Apply(samplesOf(tt.in...))
			if got.IsPos {
				t.Fatalf("%s returned a position", tt.name)
			}
			if math.Abs(got.Scalar-tt.want) > 1e-9 {
				t.Errorf("%s(%v) = %v, want %v", tt.name, tt.in, got.Scalar, tt.want)
			}
		})
	}
}

func TestCentroid(t *testing.T) {
	ss := []Sample{
		{MoteID: 1, Pos: geom.Pt(0, 0)},
		{MoteID: 2, Pos: geom.Pt(2, 0)},
		{MoteID: 3, Pos: geom.Pt(1, 3)},
	}
	got := Centroid.Apply(ss)
	if !got.IsPos {
		t.Fatal("centroid should return a position")
	}
	if math.Abs(got.Pos.X-1) > 1e-9 || math.Abs(got.Pos.Y-1) > 1e-9 {
		t.Errorf("centroid = %v, want (1,1)", got.Pos)
	}
	if !Centroid.PosInput {
		t.Error("Centroid should declare PosInput")
	}
}

func TestWeightedCentroid(t *testing.T) {
	ss := []Sample{
		{MoteID: 1, Pos: geom.Pt(0, 0), Scalar: 3},
		{MoteID: 2, Pos: geom.Pt(4, 0), Scalar: 1},
	}
	got := WeightedCentroid.Apply(ss)
	if math.Abs(got.Pos.X-1) > 1e-9 || math.Abs(got.Pos.Y) > 1e-9 {
		t.Errorf("weighted centroid = %v, want (1,0)", got.Pos)
	}
}

func TestWeightedCentroidZeroWeightFallsBack(t *testing.T) {
	ss := []Sample{
		{MoteID: 1, Pos: geom.Pt(0, 0), Scalar: 0},
		{MoteID: 2, Pos: geom.Pt(4, 0), Scalar: 0},
	}
	got := WeightedCentroid.Apply(ss)
	if math.Abs(got.Pos.X-2) > 1e-9 {
		t.Errorf("zero-weight centroid = %v, want unweighted (2,0)", got.Pos)
	}
}

func TestValueString(t *testing.T) {
	if got := (Value{Scalar: 1.5}).String(); got != "1.5000" {
		t.Errorf("scalar String = %q", got)
	}
	if got := (Value{Pos: geom.Pt(1, 2), IsPos: true}).String(); got != "(1.000, 2.000)" {
		t.Errorf("position String = %q", got)
	}
}

func TestRegistryBuiltinsAndCustom(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"avg", "sum", "min", "max", "count", "centroid", "wcentroid"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("builtin %q missing", name)
		}
	}
	custom := Func{Name: "median", Apply: func(ss []Sample) Value { return Value{} }}
	if err := r.Register(custom); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(custom); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := r.Register(Func{Name: "", Apply: custom.Apply}); err == nil {
		t.Error("empty name should fail")
	}
	if err := r.Register(Func{Name: "x"}); err == nil {
		t.Error("nil Apply should fail")
	}
	names := r.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}

func TestNewWindowValidation(t *testing.T) {
	if _, err := NewWindow(Func{}, time.Second, 1); err == nil {
		t.Error("expected error for missing Apply")
	}
	if _, err := NewWindow(Avg, 0, 1); err == nil {
		t.Error("expected error for zero freshness")
	}
	w, err := NewWindow(Avg, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.CriticalMass() != 1 {
		t.Errorf("critical mass below 1 should clamp to 1, got %d", w.CriticalMass())
	}
	if w.Freshness() != time.Second {
		t.Errorf("Freshness = %v", w.Freshness())
	}
	if w.Func().Name != "avg" {
		t.Errorf("Func = %v", w.Func().Name)
	}
}

func TestWindowCriticalMass(t *testing.T) {
	w, err := NewWindow(Avg, time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Read(0); ok {
		t.Error("empty window read should be invalid")
	}
	w.Add(Sample{MoteID: 1, At: 0, Scalar: 10})
	if _, ok := w.Read(0); ok {
		t.Error("read with 1 of 2 sensors should be invalid (null flag)")
	}
	w.Add(Sample{MoteID: 2, At: 0, Scalar: 20})
	v, ok := w.Read(0)
	if !ok {
		t.Fatal("read with critical mass met should be valid")
	}
	if v.Scalar != 15 {
		t.Errorf("avg = %v, want 15", v.Scalar)
	}
}

func TestWindowFreshnessExpiry(t *testing.T) {
	w, err := NewWindow(Avg, time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(Sample{MoteID: 1, At: 0, Scalar: 10})
	w.Add(Sample{MoteID: 2, At: 0, Scalar: 20})
	if _, ok := w.Read(time.Second); !ok {
		t.Error("samples exactly at the freshness boundary should still count")
	}
	if _, ok := w.Read(1100 * time.Millisecond); ok {
		t.Error("stale samples should not satisfy critical mass")
	}
	if got := w.FreshCount(1100 * time.Millisecond); got != 0 {
		t.Errorf("FreshCount after expiry = %d, want 0", got)
	}
}

func TestWindowDistinctSenders(t *testing.T) {
	w, err := NewWindow(Avg, time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Many samples from the same mote must not satisfy a critical mass of 2.
	for i := 0; i < 10; i++ {
		w.Add(Sample{MoteID: 1, At: time.Duration(i) * time.Millisecond, Scalar: 10})
	}
	if _, ok := w.Read(10 * time.Millisecond); ok {
		t.Error("one sensor must not satisfy critical mass 2, however many samples it sends")
	}
}

func TestWindowLatestSampleWins(t *testing.T) {
	w, err := NewWindow(Avg, 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(Sample{MoteID: 1, At: time.Second, Scalar: 10})
	w.Add(Sample{MoteID: 1, At: 2 * time.Second, Scalar: 30})
	v, ok := w.Read(2 * time.Second)
	if !ok || v.Scalar != 30 {
		t.Errorf("read = %v, %v; want latest sample 30", v, ok)
	}
	// Out-of-order older sample must not replace a newer one.
	w.Add(Sample{MoteID: 1, At: 500 * time.Millisecond, Scalar: 99})
	v, _ = w.Read(2 * time.Second)
	if v.Scalar != 30 {
		t.Errorf("out-of-order sample replaced newer one: %v", v)
	}
}

func TestWindowReset(t *testing.T) {
	w, err := NewWindow(Avg, 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(Sample{MoteID: 1, At: 0, Scalar: 10})
	w.Reset()
	if _, ok := w.Read(0); ok {
		t.Error("read after Reset should be invalid")
	}
}

// Property (the Section 3.2.3 guarantee): whenever Read reports valid, the
// number of distinct fresh senders is at least the critical mass, and the
// value equals the aggregation function applied to only-fresh samples.
func TestWindowQoSProperty(t *testing.T) {
	type op struct {
		MoteID uint8
		AtMs   uint16
		Val    int8
	}
	f := func(ops []op, readAtMs uint16, ne uint8) bool {
		cm := int(ne%5) + 1
		w, err := NewWindow(Sum, time.Second, cm)
		if err != nil {
			return false
		}
		for _, o := range ops {
			w.Add(Sample{MoteID: int(o.MoteID % 16), At: time.Duration(o.AtMs) * time.Millisecond, Scalar: float64(o.Val)})
		}
		now := time.Duration(readAtMs) * time.Millisecond
		v, ok := w.Read(now)

		// Recompute the expectation independently.
		latest := make(map[int]Sample)
		for _, o := range ops {
			s := Sample{MoteID: int(o.MoteID % 16), At: time.Duration(o.AtMs) * time.Millisecond, Scalar: float64(o.Val)}
			if prev, seen := latest[s.MoteID]; !seen || s.At >= prev.At {
				latest[s.MoteID] = s
			}
		}
		var want float64
		fresh := 0
		for _, s := range latest {
			if s.At >= now-time.Second {
				fresh++
				want += s.Scalar
			}
		}
		if fresh >= cm {
			return ok && math.Abs(v.Scalar-want) < 1e-9
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a valid average always lies within [min, max] of the inputs.
func TestAvgBoundedProperty(t *testing.T) {
	f := func(vals []int8) bool {
		if len(vals) == 0 {
			return true
		}
		ss := make([]Sample, len(vals))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range vals {
			ss[i] = Sample{MoteID: i, Scalar: float64(v)}
			lo = math.Min(lo, float64(v))
			hi = math.Max(hi, float64(v))
		}
		got := Avg.Apply(ss).Scalar
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
