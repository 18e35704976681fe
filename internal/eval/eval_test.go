package eval

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpeedConversions(t *testing.T) {
	// 50 km/h over 140 m hops is the paper's ~10 s/hop: ~0.0992 hops/s.
	hops := KmhToHops(50)
	if math.Abs(hops-0.0992) > 0.001 {
		t.Errorf("KmhToHops(50) = %v, want ~0.0992", hops)
	}
	// Round trip.
	if math.Abs(HopsToKmh(KmhToHops(33))-33) > 1e-9 {
		t.Error("KmhToHops/HopsToKmh round trip failed")
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{}.withDefaults()
	if sc.Cols != 11 || sc.Rows != 2 {
		t.Errorf("default grid = %dx%d", sc.Cols, sc.Rows)
	}
	if sc.CriticalMass != 2 || sc.Freshness != time.Second {
		t.Errorf("default QoS = %d/%v", sc.CriticalMass, sc.Freshness)
	}
	if sc.Seed == 0 {
		t.Error("default seed not set")
	}
}

func TestRunBasicScenario(t *testing.T) {
	t.Parallel()
	res, err := Run(&Env{}, Scenario{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("no tracking reports")
	}
	if !res.TrackedOK {
		t.Error("tracking did not survive to the end")
	}
	if res.Handover.Created < 1 {
		t.Error("no label created")
	}
	if res.Duration <= 0 {
		t.Error("no duration recorded")
	}
}

func TestFigure3ErrorsBounded(t *testing.T) {
	t.Parallel()
	r, err := RunFigure3(&Env{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Run.Track.Points) < 8 {
		t.Fatalf("too few trajectory points: %d", len(r.Run.Track.Points))
	}
	// The paper's tracking error stays within roughly one grid unit; the
	// direction anomalies come from message loss.
	if r.MeanError > 1.0 {
		t.Errorf("mean tracking error = %v grid units, want <= 1", r.MeanError)
	}
	if r.MaxError > 2.0 {
		t.Errorf("max tracking error = %v grid units, want <= 2", r.MaxError)
	}
	// All reports carry one coherent label.
	if r.Run.Labels != 1 {
		t.Errorf("labels = %d, want 1", r.Run.Labels)
	}
	out := r.Render()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "mean error") {
		t.Error("Render output malformed")
	}
}

func TestFigure4Shape(t *testing.T) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): nominal-shape assertions do not apply")
	}
	t.Parallel()
	rows, err := RunFigure4(&Env{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	get := func(h int, kmh float64) float64 {
		for _, r := range rows {
			if r.HopsPast == h && r.SpeedKmh == kmh {
				return r.SuccessPct
			}
		}
		t.Fatalf("missing row h=%d kmh=%v", h, kmh)
		return 0
	}
	// Paper shape: h=1 succeeds at both speeds; h=0 degrades, worse at
	// the higher speed.
	if get(1, 33) < 95 || get(1, 50) < 95 {
		t.Errorf("h=1 success = %.1f/%.1f, want ~100%%", get(1, 33), get(1, 50))
	}
	if get(0, 50) >= get(1, 50) {
		t.Errorf("h=0 at 50 km/h (%.1f) should be below h=1 (%.1f)", get(0, 50), get(1, 50))
	}
	if get(0, 33) < get(0, 50) {
		t.Errorf("h=0: 33 km/h (%.1f) should not be worse than 50 km/h (%.1f)",
			get(0, 33), get(0, 50))
	}
	out := RenderFigure4(rows)
	if !strings.Contains(out, "propagate heartbeat past sensing radius") {
		t.Error("RenderFigure4 output malformed")
	}
}

func TestTable1Shape(t *testing.T) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): nominal-shape assertions do not apply")
	}
	t.Parallel()
	rows, err := RunTable1(&Env{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		// The system operates in the presence of loss, and the protocol's
		// bandwidth needs are a small fraction of the 50 kb/s channel.
		if r.HBLossPct <= 0 {
			t.Errorf("%v km/h: HB loss = %v, want > 0", r.SpeedKmh, r.HBLossPct)
		}
		if r.LinkUtilPct > 15 {
			t.Errorf("%v km/h: link utilization = %.1f%%, want a small fraction", r.SpeedKmh, r.LinkUtilPct)
		}
	}
	// Heartbeat loss grows with target speed (collision effect).
	if rows[1].HBLossPct < rows[0].HBLossPct {
		t.Errorf("HB loss at 50 km/h (%.2f) below 33 km/h (%.2f)",
			rows[1].HBLossPct, rows[0].HBLossPct)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "% HB loss") {
		t.Error("RenderTable1 output malformed")
	}
}

// quickFig5 runs a reduced Figure 5 sweep suitable for the test suite.
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 5 sweep is slow")
	}
	t.Parallel()
	points, err := RunFigure5(&Env{}, Figure5Config{
		Heartbeats: []float64{0.0625, 0.5, 2},
		Radii:      []float64{1, 2},
		Seeds:      []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(hb, r float64) float64 {
		for _, p := range points {
			if p.Mode == "worst-case" && almostEqual(p.HeartbeatSec, hb, 1e-9) && almostEqual(p.SensingRadius, r, 1e-9) {
				return p.MaxSpeedHops
			}
		}
		t.Fatalf("missing point hb=%v r=%v", hb, r)
		return 0
	}
	// Faster heartbeats track faster targets (until overload).
	if get(0.5, 1) <= get(2, 1) {
		t.Errorf("hb=0.5 (%.2f) should beat hb=2 (%.2f) at r=1", get(0.5, 1), get(2, 1))
	}
	// Larger sensory signatures are trackable at higher speeds at slow
	// heartbeats.
	if get(2, 2) < get(2, 1) {
		t.Errorf("r=2 (%.2f) should not be below r=1 (%.2f) at hb=2", get(2, 2), get(2, 1))
	}
	// The overload collapse: the larger event breaks down at 1/16 s.
	if get(0.0625, 2) > get(0.5, 2) {
		t.Errorf("hb=1/16 at r=2 (%.2f) should collapse below hb=0.5 (%.2f)",
			get(0.0625, 2), get(0.5, 2))
	}
	out := RenderFigure5(points)
	if !strings.Contains(out, "Figure 5") {
		t.Error("RenderFigure5 output malformed")
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 6 sweep is slow")
	}
	t.Parallel()
	points, err := RunFigure6(&Env{}, Figure6Config{
		Ratios: []float64{0.75, 1.5, 3},
		Radii:  []float64{1, 2},
		Seeds:  []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(ratio, r float64) float64 {
		for _, p := range points {
			if almostEqual(p.Ratio, ratio, 1e-9) && almostEqual(p.SensingRadius, r, 1e-9) {
				return p.MaxSpeedHops
			}
		}
		t.Fatalf("missing point ratio=%v r=%v", ratio, r)
		return 0
	}
	// Breakdown below CR:SR = 1.
	if get(0.75, 1) != 0 || get(0.75, 2) != 0 {
		t.Errorf("CR:SR=0.75 should break down, got %.2f/%.2f", get(0.75, 1), get(0.75, 2))
	}
	// Speed grows with the ratio.
	if get(3, 1) <= get(0.75, 1) {
		t.Error("speed should grow with CR:SR at r=1")
	}
	if get(3, 2) < get(1.5, 2) {
		t.Errorf("speed at ratio 3 (%.2f) below ratio 1.5 (%.2f) for r=2", get(3, 2), get(1.5, 2))
	}
	// Larger events trackable at higher speeds for a given ratio.
	if get(3, 2) < get(3, 1) {
		t.Errorf("r=2 (%.2f) below r=1 (%.2f) at ratio 3", get(3, 2), get(3, 1))
	}
	out := RenderFigure6(points)
	if !strings.Contains(out, "Figure 6") {
		t.Error("RenderFigure6 output malformed")
	}
}

func TestCrossTrafficDoesNotBreakTracking(t *testing.T) {
	t.Parallel()
	sc := Scenario{Seed: 5, CrossTraffic: true}
	res, err := Run(&Env{}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TrackedOK {
		t.Error("tracking failed under cross traffic")
	}
}

func TestMaxTrackableSpeedZeroWhenImpossible(t *testing.T) {
	t.Parallel()
	// CR:SR well below 1: tracking cannot work at any speed.
	sc := figure6Scenario(2, 0.5)
	speed, err := MaxTrackableSpeed(&Env{}, sc, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if speed != 0 {
		t.Errorf("max speed = %v, want 0 for CR:SR=0.5", speed)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	t.Parallel()
	a, err := Run(&Env{}, Scenario{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(&Env{}, Scenario{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reports) != len(b.Reports) {
		t.Errorf("report counts differ: %d vs %d", len(a.Reports), len(b.Reports))
	}
	if a.HBLoss != b.HBLoss || a.LinkUtil != b.LinkUtil {
		t.Error("stats differ between identical seeded runs")
	}
}
