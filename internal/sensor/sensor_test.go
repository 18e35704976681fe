package sensor

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"envirotrack/internal/geom"
	"envirotrack/internal/phenomena"
)

// snapshot returns the field of the given targets resolved at t.
func snapshot(t time.Duration, targets ...*phenomena.Target) *phenomena.Snapshot {
	var env phenomena.Snapshot
	phenomena.NewField(targets...).Resolve(t, &env)
	return &env
}

// vehicleField is a stationary vehicle at pos, resolved at time 0.
func vehicleField(pos geom.Point, radius float64) *phenomena.Snapshot {
	return snapshot(0, &phenomena.Target{
		Name:            "tank",
		Kind:            "vehicle",
		Traj:            phenomena.Stationary{At: pos},
		SignatureRadius: radius,
	})
}

func TestDetectionChannel(t *testing.T) {
	f := vehicleField(geom.Pt(0, 0), 2)
	ch := DetectionChannel("vehicle")
	if got := ch(f, geom.Pt(1, 0)); got != 1 {
		t.Errorf("in-range detection = %v, want 1", got)
	}
	if got := ch(f, geom.Pt(3, 0)); got != 0 {
		t.Errorf("out-of-range detection = %v, want 0", got)
	}
	if got := ch(f, geom.Pt(1, 0)); got != 1 {
		t.Errorf("repeat detection = %v, want 1", got)
	}
	wrong := DetectionChannel("fire")
	if got := wrong(f, geom.Pt(1, 0)); got != 0 {
		t.Errorf("wrong-kind detection = %v, want 0", got)
	}
}

func TestIntensityChannelScale(t *testing.T) {
	f := vehicleField(geom.Pt(0, 0), 2)
	ch := IntensityChannel("vehicle", 10)
	// distance 2 => 1/8 * 10.
	if got := ch(f, geom.Pt(2, 0)); math.Abs(got-1.25) > 1e-9 {
		t.Errorf("scaled intensity = %v, want 1.25", got)
	}
}

func TestConstantAndSumChannels(t *testing.T) {
	f := snapshot(0)
	c := SumChannels(ConstantChannel(20), ConstantChannel(5))
	if got := c(f, geom.Pt(0, 0)); got != 25 {
		t.Errorf("sum of constants = %v, want 25", got)
	}
}

func TestWithNoiseIsZeroMean(t *testing.T) {
	f := snapshot(0)
	rng := rand.New(rand.NewSource(7))
	ch := WithNoise(ConstantChannel(100), 1, rng)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += ch(f, geom.Pt(0, 0))
	}
	mean := sum / n
	if math.Abs(mean-100) > 0.1 {
		t.Errorf("noisy mean = %v, want ~100", mean)
	}
}

func TestModelSample(t *testing.T) {
	f := snapshot(3*time.Second, &phenomena.Target{
		Kind:            "vehicle",
		Traj:            phenomena.Stationary{At: geom.Pt(0, 0)},
		SignatureRadius: 2,
	})
	m := NewModel()
	m.SetChannel("magnetic_detect", DetectionChannel("vehicle"))
	m.SetChannel("ambient", ConstantChannel(20))
	rd := m.Sample(f, 7, geom.Pt(1, 0))
	if rd.MoteID != 7 || rd.At != 3*time.Second || rd.Position != geom.Pt(1, 0) {
		t.Errorf("reading metadata = %+v", rd)
	}
	if v, ok := rd.Value("magnetic_detect"); !ok || v != 1 {
		t.Errorf("magnetic_detect = %v, %v", v, ok)
	}
	if v, ok := rd.Value("ambient"); !ok || v != 20 {
		t.Errorf("ambient = %v, %v", v, ok)
	}
	if _, ok := rd.Value("missing"); ok {
		t.Error("missing channel reported present")
	}
}

func TestModelSetChannelReplaces(t *testing.T) {
	m := NewModel()
	m.SetChannel("x", ConstantChannel(1))
	m.SetChannel("x", ConstantChannel(2))
	if got := len(m.Channels()); got != 1 {
		t.Fatalf("channels = %d, want 1", got)
	}
	rd := m.Sample(snapshot(0), 0, geom.Pt(0, 0))
	if v, _ := rd.Value("x"); v != 2 {
		t.Errorf("replaced channel value = %v, want 2", v)
	}
}

func TestModelChannelsSorted(t *testing.T) {
	m := NewModel()
	m.SetChannel("zeta", ConstantChannel(0))
	m.SetChannel("alpha", ConstantChannel(0))
	ch := m.Channels()
	if len(ch) != 2 || ch[0] != "alpha" || ch[1] != "zeta" {
		t.Errorf("Channels = %v, want sorted", ch)
	}
}

func TestVehicleModelPreset(t *testing.T) {
	f := vehicleField(geom.Pt(0, 0), 2)
	m := VehicleModel("vehicle")
	rd := m.Sample(f, 0, geom.Pt(1, 0))
	if v, _ := rd.Value("magnetic_detect"); v != 1 {
		t.Errorf("magnetic_detect = %v, want 1", v)
	}
	if v, _ := rd.Value("magnetic"); v <= 0 {
		t.Errorf("magnetic = %v, want > 0", v)
	}
}

func TestFireModelPreset(t *testing.T) {
	f := snapshot(0, &phenomena.Target{
		Kind:            "fire",
		Traj:            phenomena.Stationary{At: geom.Pt(0, 0)},
		SignatureRadius: 2,
	})
	m := FireModel("fire", 20)
	near := m.Sample(f, 0, geom.Pt(1, 0))
	if v, _ := near.Value("temperature"); v <= 180 {
		t.Errorf("temperature near fire = %v, want > 180", v)
	}
	if v, _ := near.Value("light"); v != 1 {
		t.Errorf("light near fire = %v, want 1", v)
	}
	far := m.Sample(f, 0, geom.Pt(20, 0))
	if v, _ := far.Value("temperature"); v > 180 {
		t.Errorf("temperature far from fire = %v, want ambient", v)
	}
}

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	want := []string{
		"fire_sensor_reading",
		"light_sensor_reading",
		"magnetic_sensor_reading",
		"motion_sensor_reading",
	}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestRegistryMagneticFunc(t *testing.T) {
	r := NewRegistry()
	fn, ok := r.Lookup("magnetic_sensor_reading")
	if !ok {
		t.Fatal("magnetic_sensor_reading not found")
	}
	if !fn(Reading{Values: map[string]float64{"magnetic_detect": 1}}) {
		t.Error("should fire with detection = 1")
	}
	if fn(Reading{Values: map[string]float64{"magnetic_detect": 0}}) {
		t.Error("should not fire with detection = 0")
	}
	if fn(Reading{Values: map[string]float64{}}) {
		t.Error("should not fire with missing channel")
	}
}

func TestRegistryFireFunc(t *testing.T) {
	r := NewRegistry()
	fn, _ := r.Lookup("fire_sensor_reading")
	tests := []struct {
		name string
		vals map[string]float64
		want bool
	}{
		{name: "hot and bright", vals: map[string]float64{"temperature": 200, "light": 1}, want: true},
		{name: "hot only", vals: map[string]float64{"temperature": 200, "light": 0}, want: false},
		{name: "bright only", vals: map[string]float64{"temperature": 100, "light": 1}, want: false},
		{name: "boundary temp", vals: map[string]float64{"temperature": 180, "light": 1}, want: false},
		{name: "missing channels", vals: map[string]float64{}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := fn(Reading{Values: tt.vals}); got != tt.want {
				t.Errorf("fire_sensor_reading(%v) = %v, want %v", tt.vals, got, tt.want)
			}
		})
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", func(Reading) bool { return true }); err == nil {
		t.Error("expected error for empty name")
	}
	if err := r.Register("custom", nil); err == nil {
		t.Error("expected error for nil func")
	}
	if err := r.Register("custom", func(Reading) bool { return true }); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	if err := r.Register("custom", func(Reading) bool { return false }); err == nil {
		t.Error("expected error for duplicate name")
	}
	if _, ok := r.Lookup("custom"); !ok {
		t.Error("registered function not found")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("unregistered function found")
	}
}
