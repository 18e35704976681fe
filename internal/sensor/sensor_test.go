package sensor

import (
	"math"
	"slices"
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
	ch := WithNoise(ConstantChannel(100), 1, 7)
	var sum, sq float64
	const n = 10000
	for i := 0; i < n; i++ {
		d := ch(f, geom.Pt(float64(i%100), float64(i/100))) - 100
		sum += d
		sq += d * d
	}
	mean, sd := sum/n, math.Sqrt(sq/n-(sum/n)*(sum/n))
	if math.Abs(mean) > 0.05 || math.Abs(sd-1) > 0.05 {
		t.Errorf("noise over %d positions has mean %v and sd %v, want ~0 and ~1", n, mean, sd)
	}
}

// TestWithNoiseIsKeyed pins the noise as a function of (seed, position,
// instant): the same key reads the same noise, even through another
// channel built with that seed, and each part of the key moves it.
func TestWithNoiseIsKeyed(t *testing.T) {
	ch := WithNoise(ConstantChannel(0), 1, 7)
	at0, at1 := snapshot(0), snapshot(time.Second)
	p, q := geom.Pt(1, 2), geom.Pt(2, 1)
	base := ch(at0, p)
	if again := ch(at0, p); again != base {
		t.Fatalf("noise at one position and instant read %v then %v", base, again)
	}
	if twin := WithNoise(ConstantChannel(0), 1, 7)(at0, p); twin != base {
		t.Errorf("a second channel with seed 7 read %v, want the shared %v", twin, base)
	}
	for name, other := range map[string]float64{
		"position": ch(at0, q),
		"instant":  ch(at1, p),
		"seed":     WithNoise(ConstantChannel(0), 1, 8)(at0, p),
	} {
		if other == base {
			t.Errorf("changing the %s left the noise at %v", name, base)
		}
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
	if rd.MoteID() != 7 || rd.At() != 3*time.Second || rd.Position() != geom.Pt(1, 0) {
		t.Errorf("reading metadata = %v %v %v", rd.MoteID(), rd.At(), rd.Position())
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

// counting returns a channel that yields v and counts its evaluations, and
// appends name to order on each one.
func counting(name string, v float64, calls *int, order *[]string) ChannelFunc {
	return func(*phenomena.Snapshot, geom.Point) float64 {
		*calls++
		if order != nil {
			*order = append(*order, name)
		}
		return v
	}
}

func TestPresetChannelsAreNotComputedUnread(t *testing.T) {
	env := vehicleField(geom.Pt(0, 0), 2)
	for _, m := range []*Model{VehicleModel("vehicle"), FireModel("vehicle", 20)} {
		var sc Scratch
		rd := m.SampleInto(env, 0, geom.Pt(1, 0), &sc)
		for i, name := range m.names {
			if sc.done[i] == sc.gen {
				t.Errorf("preset channel %q computed before any read", name)
			}
		}
		if rd.Channels() != 2 {
			t.Errorf("reading has %d channels, want 2", rd.Channels())
		}
	}

	calls := 0
	m := NewModel()
	m.set("lazy", counting("lazy", 1, &calls, nil), lazy)
	var sc Scratch
	for i := 0; i < 3; i++ {
		m.SampleInto(env, 0, geom.Pt(0, 0), &sc)
	}
	if calls != 0 {
		t.Errorf("unread preset channel evaluated %d times over 3 scans", calls)
	}
}

func TestPresetChannelIsMemoisedPerScan(t *testing.T) {
	env := snapshot(0)
	calls := 0
	m := NewModel()
	m.set("lazy", counting("lazy", 4, &calls, nil), lazy)
	var sc Scratch
	for scan := 1; scan <= 3; scan++ {
		rd := m.SampleInto(env, 0, geom.Pt(0, 0), &sc)
		for read := 0; read < 2; read++ {
			if v, ok := rd.Value("lazy"); !ok || v != 4 {
				t.Fatalf("scan %d read %d = %v, %v; want 4, true", scan, read, v, ok)
			}
		}
		if calls != scan {
			t.Fatalf("after %d scans reading the channel twice each: %d evaluations, want %d", scan, calls, scan)
		}
	}
}

func TestSetChannelsAreEagerInNameOrder(t *testing.T) {
	env := snapshot(0)
	var order []string
	calls := 0
	m := NewModel()
	m.SetChannel("zeta", counting("zeta", 0, &calls, &order))
	m.SetChannel("alpha", counting("alpha", 0, &calls, &order))
	m.set("mid", counting("mid", 0, &calls, &order), lazy)
	var sc Scratch
	rd := m.SampleInto(env, 0, geom.Pt(0, 0), &sc)
	if want := []string{"alpha", "zeta"}; !slices.Equal(order, want) {
		t.Fatalf("unread scan evaluated %v, want %v", order, want)
	}
	// Reading an eager channel returns the scan's value without evaluating
	// it again.
	rd.Value("alpha")
	rd.Value("zeta")
	m.SampleInto(env, 0, geom.Pt(0, 0), &sc)
	if want := []string{"alpha", "zeta", "alpha", "zeta"}; !slices.Equal(order, want) {
		t.Fatalf("two scans evaluated %v, want %v", order, want)
	}
}

func TestWithNoiseDrawsOncePerScan(t *testing.T) {
	const scans = 5
	env := snapshot(0)
	calls := 0
	m := NewModel()
	m.SetChannel("noisy", WithNoise(counting("noisy", 1, &calls, nil), 0.5, 3))
	var sc Scratch
	for i := 0; i < scans; i++ {
		m.SampleInto(env, 0, geom.Pt(0, 0), &sc) // never read
	}
	if calls != scans {
		t.Errorf("%d unread scans evaluated the noisy channel %d times, want %d", scans, calls, scans)
	}
}

func TestSetChannelOverPresetIsEager(t *testing.T) {
	env := vehicleField(geom.Pt(0, 0), 2)
	calls := 0
	m := VehicleModel("vehicle")
	m.SetChannel("magnetic", counting("magnetic", 9, &calls, nil))
	var sc Scratch
	rd := m.SampleInto(env, 0, geom.Pt(1, 0), &sc)
	if calls != 1 {
		t.Fatalf("replaced channel evaluated %d times by an unread scan, want 1", calls)
	}
	if v, _ := rd.Value("magnetic"); v != 9 || calls != 1 {
		t.Errorf("replaced channel = %v after %d evaluations, want 9 after 1", v, calls)
	}
	// The other preset channel stays lazy.
	if i := slices.Index(m.names, "magnetic_detect"); sc.done[i] == sc.gen {
		t.Error("untouched preset channel computed without a read")
	}
}

func TestSampleIsSelfContained(t *testing.T) {
	field := phenomena.NewField(&phenomena.Target{
		Kind:            "vehicle",
		Traj:            phenomena.Line{Start: geom.Pt(0, 0), Dir: geom.Vec(1, 0), Speed: 1},
		SignatureRadius: 2,
	})
	var env phenomena.Snapshot
	field.Resolve(0, &env)
	m := VehicleModel("vehicle")
	rd := m.Sample(&env, 0, geom.Pt(1, 0))
	wantMag := IntensityChannel("vehicle", 1)(&env, geom.Pt(1, 0))

	// Later scans reuse the snapshot and a scratch of their own.
	var sc Scratch
	field.Resolve(time.Minute, &env)
	later := m.SampleInto(&env, 0, geom.Pt(1, 0), &sc)
	if v, _ := later.Value("magnetic_detect"); v != 0 {
		t.Fatalf("later scan detection = %v, want 0 (target gone)", v)
	}
	if v, _ := rd.Value("magnetic_detect"); v != 1 {
		t.Errorf("sampled detection after later scans = %v, want 1", v)
	}
	if v, _ := rd.Value("magnetic"); v != wantMag {
		t.Errorf("sampled intensity after later scans = %v, want %v", v, wantMag)
	}
}

func TestScratchUnreached(t *testing.T) {
	env := vehicleField(geom.Pt(0, 0), 2)
	far, near := geom.Pt(10, 0), geom.Pt(1, 0)
	for _, tt := range []struct {
		name  string
		model *Model
		pos   geom.Point
		read  func(Reading)
		want  bool
		eager bool
	}{
		{"nothing read", VehicleModel("vehicle"), far, func(Reading) {}, true, false},
		{"bounded channel at 0", VehicleModel("vehicle"), far, func(rd Reading) { rd.Value("magnetic_detect") }, true, false},
		{"absent channel", VehicleModel("vehicle"), far, func(rd Reading) { rd.Value("motion") }, true, false},
		{"bounded channel at 1", VehicleModel("vehicle"), near, func(rd Reading) { rd.Value("magnetic_detect") }, false, false},
		{"unbounded channel", VehicleModel("vehicle"), far, func(rd Reading) { rd.Value("magnetic") }, false, false},
		{"fire's bounded light", FireModel("vehicle", 20), far, func(rd Reading) { rd.Value("light") }, true, false},
		{"fire's temperature", FireModel("vehicle", 20), far, func(rd Reading) { rd.Value("temperature") }, false, false},
		{"At", VehicleModel("vehicle"), far, func(rd Reading) { rd.At() }, false, false},
		{"MoteID", VehicleModel("vehicle"), far, func(rd Reading) { rd.MoteID() }, false, false},
		{"Position", VehicleModel("vehicle"), far, func(rd Reading) { rd.Position() }, false, false},
		{"eager channel", func() *Model {
			m := VehicleModel("vehicle")
			m.SetChannel("hum", ConstantChannel(0))
			return m
		}(), far, func(Reading) {}, false, true},
		{"preset replaced by SetChannel", func() *Model {
			m := VehicleModel("vehicle")
			m.SetChannel("magnetic_detect", DetectionChannel("vehicle"))
			return m
		}(), far, func(Reading) {}, false, true},
	} {
		var sc Scratch
		tt.read(tt.model.SampleInto(env, 3, tt.pos, &sc))
		if got := sc.Unreached(); got != tt.want {
			t.Errorf("%s: Unreached = %v, want %v", tt.name, got, tt.want)
		}
		// The next scan starts a fresh log.
		tt.model.SampleInto(env, 3, far, &sc)
		if got := sc.Unreached(); got == tt.eager {
			t.Errorf("%s: the next scan, reading nothing, is unreached %v, want %v", tt.name, got, !tt.eager)
		}
	}
}
