package phenomena

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"envirotrack/internal/geom"
)

func TestStationary(t *testing.T) {
	s := Stationary{At: geom.Pt(3, 4)}
	if got := s.PositionAt(0); got != geom.Pt(3, 4) {
		t.Errorf("PositionAt(0) = %v", got)
	}
	if got := s.PositionAt(time.Hour); got != geom.Pt(3, 4) {
		t.Errorf("PositionAt(1h) = %v", got)
	}
	if s.Done(time.Hour) {
		t.Error("stationary trajectory should never be done")
	}
}

func TestLine(t *testing.T) {
	l := Line{Start: geom.Pt(0, 0.5), Dir: geom.Vec(1, 0), Speed: 0.1}
	got := l.PositionAt(10 * time.Second)
	if math.Abs(got.X-1) > 1e-9 || math.Abs(got.Y-0.5) > 1e-9 {
		t.Errorf("PositionAt(10s) = %v, want (1, 0.5)", got)
	}
	if l.Done(time.Hour) {
		t.Error("line is never done")
	}
}

func TestLineNormalizesDirection(t *testing.T) {
	l := Line{Start: geom.Pt(0, 0), Dir: geom.Vec(10, 0), Speed: 1}
	got := l.PositionAt(time.Second)
	if math.Abs(got.X-1) > 1e-9 {
		t.Errorf("direction not normalized: PositionAt(1s) = %v", got)
	}
}

func TestNewWaypointsValidation(t *testing.T) {
	if _, err := NewWaypoints(nil, 1); err == nil {
		t.Error("expected error for empty waypoint list")
	}
	if _, err := NewWaypoints([]geom.Point{geom.Pt(0, 0)}, 0); err == nil {
		t.Error("expected error for zero speed")
	}
	if _, err := NewWaypoints([]geom.Point{geom.Pt(0, 0)}, -1); err == nil {
		t.Error("expected error for negative speed")
	}
}

func TestWaypointsInterpolation(t *testing.T) {
	w, err := NewWaypoints([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 5)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.PositionAt(0); got != geom.Pt(0, 0) {
		t.Errorf("PositionAt(0) = %v", got)
	}
	got := w.PositionAt(5 * time.Second)
	if math.Abs(got.X-5) > 1e-9 || math.Abs(got.Y) > 1e-9 {
		t.Errorf("PositionAt(5s) = %v, want (5,0)", got)
	}
	got = w.PositionAt(12 * time.Second)
	if math.Abs(got.X-10) > 1e-9 || math.Abs(got.Y-2) > 1e-9 {
		t.Errorf("PositionAt(12s) = %v, want (10,2)", got)
	}
	if w.EndTime() != 15*time.Second {
		t.Errorf("EndTime = %v, want 15s", w.EndTime())
	}
	if got := w.PositionAt(time.Hour); got != geom.Pt(10, 5) {
		t.Errorf("PositionAt beyond end = %v, want final point", got)
	}
	if w.Done(10 * time.Second) {
		t.Error("Done too early")
	}
	if !w.Done(15 * time.Second) {
		t.Error("not Done at end time")
	}
}

func TestWaypointsSinglePoint(t *testing.T) {
	w, err := NewWaypoints([]geom.Point{geom.Pt(2, 2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.PositionAt(time.Minute); got != geom.Pt(2, 2) {
		t.Errorf("single waypoint PositionAt = %v", got)
	}
	if !w.Done(0) {
		t.Error("single waypoint should be done immediately")
	}
}

// Property: a waypoint target's speed between consecutive samples never
// exceeds the configured speed (within tolerance).
func TestWaypointsSpeedBound(t *testing.T) {
	f := func(seed int64) bool {
		pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 3), geom.Pt(1, 7), geom.Pt(9, 9)}
		const speed = 2.0
		w, err := NewWaypoints(pts, speed)
		if err != nil {
			return false
		}
		dt := 100 * time.Millisecond
		prev := w.PositionAt(0)
		for ti := dt; ti < w.EndTime()+time.Second; ti += dt {
			cur := w.PositionAt(ti)
			if prev.Dist(cur) > speed*dt.Seconds()+1e-6 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestTargetActiveWindow(t *testing.T) {
	tg := &Target{
		Name:         "t",
		Kind:         "vehicle",
		Traj:         Stationary{At: geom.Pt(0, 0)},
		AppearsAt:    time.Second,
		DisappearsAt: 3 * time.Second,
	}
	tests := []struct {
		at   time.Duration
		want bool
	}{
		{0, false},
		{time.Second, true},
		{2 * time.Second, true},
		{3 * time.Second, false},
		{time.Minute, false},
	}
	for _, tt := range tests {
		if got := tg.Active(tt.at); got != tt.want {
			t.Errorf("Active(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestTargetAlwaysActiveByDefault(t *testing.T) {
	tg := &Target{Traj: Stationary{}}
	if !tg.Active(0) || !tg.Active(time.Hour) {
		t.Error("default target should always be active")
	}
}

// resolve returns f resolved at t.
func resolve(f *Field, t time.Duration) *Snapshot {
	var s Snapshot
	f.Resolve(t, &s)
	return &s
}

func TestFieldDetections(t *testing.T) {
	tank := &Target{
		Name:            "tank",
		Kind:            "vehicle",
		Traj:            Line{Start: geom.Pt(0, 0), Dir: geom.Vec(1, 0), Speed: 1},
		SignatureRadius: 1,
	}
	fire := &Target{
		Name:            "fire",
		Kind:            "fire",
		Traj:            Stationary{At: geom.Pt(5, 5)},
		SignatureRadius: 2,
	}
	f := NewField(tank, fire)

	// At t=0 the tank is at (0,0): a sensor at (0.5, 0) detects it.
	now := resolve(f, 0)
	if !now.DetectsAny("vehicle", geom.Pt(0.5, 0)) {
		t.Error("tank not detected at (0.5, 0)")
	}
	// The fire sensor sees nothing of kind vehicle.
	if now.DetectsAny("vehicle", geom.Pt(5, 5)) {
		t.Error("unexpected vehicle detection at fire location")
	}
	// Fire detection within its larger signature.
	if !now.DetectsAny("fire", geom.Pt(6.5, 5)) {
		t.Error("fire not detected")
	}
	// After 10 s the tank has moved to (10, 0).
	later := resolve(f, 10*time.Second)
	if later.At != 10*time.Second {
		t.Errorf("snapshot At = %v, want 10s", later.At)
	}
	if later.DetectsAny("vehicle", geom.Pt(0.5, 0)) {
		t.Error("tank should be out of range after moving")
	}
	if !later.DetectsAny("vehicle", geom.Pt(10.5, 0)) {
		t.Error("tank should be detected at new position")
	}
}

func TestFieldTargetsOfKind(t *testing.T) {
	a := &Target{Kind: "x", Traj: Stationary{}}
	b := &Target{Kind: "x", Traj: Stationary{}, AppearsAt: time.Minute}
	c := &Target{Kind: "y", Traj: Stationary{}}
	f := NewField(a, b, c)
	ofKind := func(s *Snapshot, kind string) int {
		n := 0
		for _, r := range s.rows {
			if s.kinds[r.kind] == kind {
				n++
			}
		}
		return n
	}
	if got := ofKind(resolve(f, 0), "x"); got != 1 {
		t.Errorf("kind-x rows at 0 = %d, want 1", got)
	}
	if got := ofKind(resolve(f, 2*time.Minute), "x"); got != 2 {
		t.Errorf("kind-x rows at 2m = %d, want 2", got)
	}
}

// TestSnapshotReuseInternsPerResolve resolves one snapshot at instants
// with different kinds present: each resolve interns only the kinds
// active then, so a reused snapshot answers nothing for a kind that has
// left the field.
func TestSnapshotReuseInternsPerResolve(t *testing.T) {
	fire := &Target{Kind: "fire", Traj: Stationary{}, SignatureRadius: 1, DisappearsAt: time.Minute}
	tank := &Target{Kind: "vehicle", Traj: Stationary{}, SignatureRadius: 1, AppearsAt: time.Second}
	f := NewField(fire, tank)
	var s Snapshot
	f.Resolve(0, &s)
	if !s.DetectsAny("fire", geom.Pt(0, 0)) || s.DetectsAny("vehicle", geom.Pt(0, 0)) {
		t.Fatal("at 0 only the fire should be detected")
	}
	f.Resolve(2*time.Minute, &s)
	if s.DetectsAny("fire", geom.Pt(0, 0)) || s.Intensity("fire", geom.Pt(0, 0)) != 0 {
		t.Error("a reused snapshot still sees the fire that left the field")
	}
	if !s.DetectsAny("vehicle", geom.Pt(0, 0)) || s.Intensity("vehicle", geom.Pt(0, 0)) != 1 {
		t.Error("the vehicle present at 2m is not seen")
	}
	if want := []string{"vehicle"}; !slices.Equal(s.kinds, want) {
		t.Errorf("kinds at 2m = %v, want %v", s.kinds, want)
	}
}

func TestFieldAddPreparesWaypoints(t *testing.T) {
	w := &Waypoints{Points: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0)}, Speed: 2}
	NewField().Add(&Target{Kind: "v", Traj: w})
	if len(w.legs) != 2 || w.legs[1] != 2*time.Second {
		t.Errorf("legs after Field.Add = %v, want [0 2s]", w.legs)
	}
}

func TestFieldAdd(t *testing.T) {
	f := NewField()
	if len(f.Targets()) != 0 {
		t.Fatal("new empty field has targets")
	}
	f.Add(&Target{Kind: "x", Traj: Stationary{}})
	if len(f.Targets()) != 1 {
		t.Error("Add did not append")
	}
}

func TestIntensityInverseCube(t *testing.T) {
	tg := &Target{Kind: "vehicle", Traj: Stationary{At: geom.Pt(0, 0)}, Amplitude: 8}
	s := resolve(NewField(tg), 0)
	// At distance 2: 8/8 = 1.
	if got := s.Intensity("vehicle", geom.Pt(2, 0)); math.Abs(got-1) > 1e-9 {
		t.Errorf("Intensity at d=2 = %v, want 1", got)
	}
	// Distance below 1 clamps to amplitude.
	if got := s.Intensity("vehicle", geom.Pt(0.1, 0)); math.Abs(got-8) > 1e-9 {
		t.Errorf("Intensity at d<1 = %v, want 8 (clamped)", got)
	}
	// Wrong kind contributes nothing.
	if got := s.Intensity("fire", geom.Pt(2, 0)); got != 0 {
		t.Errorf("Intensity for absent kind = %v, want 0", got)
	}
}

func TestIntensityMonotoneDecreasing(t *testing.T) {
	tg := &Target{Kind: "v", Traj: Stationary{At: geom.Pt(0, 0)}}
	s := resolve(NewField(tg), 0)
	prev := math.Inf(1)
	for d := 1.0; d < 20; d += 0.5 {
		cur := s.Intensity("v", geom.Pt(d, 0))
		if cur > prev {
			t.Fatalf("intensity increased with distance at d=%v", d)
		}
		prev = cur
	}
}

func TestIntensitySumsMultipleTargets(t *testing.T) {
	a := &Target{Kind: "v", Traj: Stationary{At: geom.Pt(-2, 0)}}
	b := &Target{Kind: "v", Traj: Stationary{At: geom.Pt(2, 0)}}
	got := resolve(NewField(a, b), 0).Intensity("v", geom.Pt(0, 0))
	want := 2.0 / 8.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("summed intensity = %v, want %v", got, want)
	}
}

// refDetectsAny and refIntensity are the per-target formulas the field
// evaluated before snapshots existed: every query walked the targets,
// checked kind and activity, and positioned each target itself.
func refDetectsAny(targets []*Target, kind string, pos geom.Point, t time.Duration) bool {
	for _, tg := range targets {
		if tg.Kind != kind || !tg.Active(t) {
			continue
		}
		if tg.PositionAt(t).Within(pos, tg.SignatureRadius) {
			return true
		}
	}
	return false
}

func refIntensity(targets []*Target, kind string, pos geom.Point, t time.Duration) float64 {
	var total float64
	for _, tg := range targets {
		if tg.Kind != kind || !tg.Active(t) {
			continue
		}
		d := tg.PositionAt(t).Dist(pos)
		if d < 1 {
			d = 1
		}
		amp := tg.Amplitude
		if amp <= 0 {
			amp = 1
		}
		total += amp / (d * d * d)
	}
	return total
}

// TestSnapshotMatchesPerTargetReference checks, on random fields, that a
// resolved snapshot answers every query bit-for-bit as the per-target
// reference does: the sweep's readings, and so every simulated output,
// cannot drift by resolving the field once per tick.
func TestSnapshotMatchesPerTargetReference(t *testing.T) {
	kinds := []string{"vehicle", "fire", "person"}
	pt := func(rng *rand.Rand) geom.Point {
		return geom.Pt(rng.Float64()*20-2, rng.Float64()*20-2)
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		at := time.Duration(rng.Int63n(int64(30 * time.Second)))
		f := NewField()
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			tg := &Target{
				Kind:            kinds[rng.Intn(len(kinds))],
				SignatureRadius: rng.Float64() * 4,
			}
			switch rng.Intn(3) {
			case 0:
				tg.Traj = Stationary{At: pt(rng)}
			case 1:
				tg.Traj = Line{Start: pt(rng), Dir: geom.Vec(rng.NormFloat64(), rng.NormFloat64()), Speed: rng.Float64() * 3}
			default:
				pts := make([]geom.Point, 1+rng.Intn(4))
				for j := range pts {
					pts[j] = pt(rng)
				}
				tg.Traj = &Waypoints{Points: pts, Speed: 0.1 + rng.Float64()*3}
			}
			if rng.Intn(3) > 0 {
				tg.Amplitude = rng.Float64() * 10
			} // else zero, which defaults to 1
			// Presence windows, some starting or ending exactly at the
			// resolve instant.
			switch rng.Intn(5) {
			case 0:
				tg.AppearsAt = at
			case 1:
				tg.DisappearsAt = at
			case 2:
				tg.AppearsAt = time.Duration(rng.Int63n(int64(40 * time.Second)))
				tg.DisappearsAt = tg.AppearsAt + time.Duration(rng.Int63n(int64(20*time.Second)))
			}
			f.Add(tg)
		}
		var s Snapshot
		f.Resolve(at, &s)
		if s.At != at {
			return false
		}
		for q := 0; q < 40; q++ {
			pos := pt(rng)
			if q%4 == 0 {
				// Closer than one grid unit to some target: the clamp.
				tg := f.Targets()[rng.Intn(len(f.Targets()))]
				p := tg.PositionAt(at)
				pos = geom.Pt(p.X+rng.Float64()-0.5, p.Y+rng.Float64()-0.5)
			}
			for _, kind := range kinds {
				if s.DetectsAny(kind, pos) != refDetectsAny(f.Targets(), kind, pos, at) {
					t.Logf("seed %d: DetectsAny(%s, %v) differs", seed, kind, pos)
					return false
				}
				if got, want := s.Intensity(kind, pos), refIntensity(f.Targets(), kind, pos, at); got != want {
					t.Logf("seed %d: Intensity(%s, %v) = %v, reference %v", seed, kind, pos, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
