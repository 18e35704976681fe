package core

import (
	"testing"
	"time"

	"envirotrack/internal/aggregate"
	"envirotrack/internal/directory"
	"envirotrack/internal/geom"
	"envirotrack/internal/group"
	"envirotrack/internal/phenomena"
	"envirotrack/internal/radio"
	"envirotrack/internal/sensor"
	"envirotrack/internal/transport"
)

// TestContextToContextMessaging exercises Ctx.Send: a tracking object on
// one context label invokes a method on another label's object through
// the MTP transport (the paper's inter-object communication).
func TestContextToContextMessaging(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, -1), Max: geom.Pt(16, 2)}
	w := newWorld(t, 2.5, bounds)
	w.env.UseDirectory = true

	received := make(map[group.Label]int)
	// Context "watch" tracks vehicles and pings context "siren" labels.
	var sirenLabel group.Label

	sirenSpec := ContextType{
		Name: "siren",
		Activation: func(rd sensor.Reading) bool {
			v, _ := rd.Value("fire_detect")
			return v > 0.5
		},
		Objects: []ObjectSpec{{
			Name: "horn",
			Methods: []MethodSpec{{
				Name: "on_alert",
				Port: 2,
				Body: func(ctx *Ctx, trig Trigger) {
					received[ctx.Label()]++
				},
			}},
		}},
		Group: fastGroup,
	}
	watchSpec := ContextType{
		Name: "watch",
		Activation: func(rd sensor.Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v > 0.5
		},
		Objects: []ObjectSpec{{
			Name: "alerter",
			Methods: []MethodSpec{{
				Name:   "alert",
				Period: 500 * time.Millisecond,
				Body: func(ctx *Ctx, _ Trigger) {
					if sirenLabel != "" {
						ctx.Send(sirenLabel, 2, "intruder")
					}
				},
			}},
		}},
		Group: fastGroup,
	}

	model := func() *sensor.Model {
		m := sensor.NewModel()
		m.SetChannel("magnetic_detect", sensor.DetectionChannel("vehicle"))
		m.SetChannel("fire_detect", sensor.DetectionChannel("fire"))
		return m
	}
	for x := 0; x < 12; x++ {
		st := w.addMote(t, radio.NodeID(x), geom.Pt(float64(x), 0), model())
		if _, err := st.AttachContext(sirenSpec); err != nil {
			t.Fatal(err)
		}
		if _, err := st.AttachContext(watchSpec); err != nil {
			t.Fatal(err)
		}
	}
	// A vehicle near one end, a "fire" (siren trigger) near the other.
	w.field.Add(&phenomena.Target{
		Kind: "vehicle", Traj: phenomena.Stationary{At: geom.Pt(1, 0)}, SignatureRadius: 1.4,
	})
	w.field.Add(&phenomena.Target{
		Kind: "fire", Traj: phenomena.Stationary{At: geom.Pt(9, 0)}, SignatureRadius: 1.4,
	})
	w.start()
	w.run(t, 4*time.Second)

	live := w.ledger.LiveLabels("siren")
	if len(live) != 1 {
		t.Fatalf("siren labels = %v", live)
	}
	sirenLabel = group.Label(live[0])
	w.run(t, 12*time.Second)

	if received[sirenLabel] == 0 {
		t.Error("siren never received cross-context alerts")
	}
}

func TestCtxAccessorsAndFreshCount(t *testing.T) {
	w, _ := buildTrackingWorld(t, 6)
	w.field.Add(&phenomena.Target{
		Kind: "vehicle", Traj: phenomena.Stationary{At: geom.Pt(2.5, 0)}, SignatureRadius: 1.6,
	})
	w.start()
	w.run(t, 3*time.Second)

	var ctx *Ctx
	for _, st := range w.stacks {
		if rt, ok := st.Runtime("tracker"); ok && rt.Leading() {
			ctx = rt.Ctx()
		}
	}
	if ctx == nil {
		t.Fatal("no leader")
	}
	if ctx.Now() != w.sched.Now() {
		t.Error("Now mismatch")
	}
	if int(ctx.MoteID()) < 0 {
		t.Error("MoteID invalid")
	}
	if ctx.MotePos().Dist(geom.Pt(2.5, 0)) > 3 {
		t.Errorf("leader position %v far from target", ctx.MotePos())
	}
	if got := ctx.FreshCount("location"); got < 2 {
		t.Errorf("FreshCount = %d, want >= 2", got)
	}
	if got := ctx.FreshCount("missing"); got != 0 {
		t.Errorf("FreshCount(missing) = %d, want 0", got)
	}
	if _, ok := ctx.Read("missing"); ok {
		t.Error("Read of unknown variable succeeded")
	}
	if _, ok := ctx.ReadScalar("location"); ok {
		t.Error("ReadScalar of a position variable succeeded")
	}
}

func TestCtxQueryDirectory(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, -1), Max: geom.Pt(6, 1)}
	w := newWorld(t, 2.5, bounds)
	w.env.UseDirectory = true
	spec := trackerSpec(100, fastGroup)
	for x := 0; x < 5; x++ {
		st := w.addMote(t, radio.NodeID(x), geom.Pt(float64(x), 0), sensor.VehicleModel("vehicle"))
		if _, err := st.AttachContext(spec); err != nil {
			t.Fatal(err)
		}
	}
	w.field.Add(&phenomena.Target{
		Kind: "vehicle", Traj: phenomena.Stationary{At: geom.Pt(2, 0)}, SignatureRadius: 1.4,
	})
	w.start()
	w.run(t, 3*time.Second)

	var got []directory.Entry
	for _, st := range w.stacks {
		if rt, ok := st.Runtime("tracker"); ok && rt.Leading() {
			// A tracking object asks "where are all the trackers?" — and
			// finds itself.
			rt.Ctx().QueryDirectory("tracker", func(es []directory.Entry) { got = es })
		}
	}
	w.run(t, 8*time.Second)
	if len(got) != 1 {
		t.Fatalf("directory entries from Ctx query = %d, want 1", len(got))
	}
}

func TestStaticCtxReadsAreInvalid(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(2, 1)}
	w := newWorld(t, 2, bounds)
	st := w.addMote(t, 0, geom.Pt(0, 0), nil)
	ctx, err := st.AttachStatic("sink/0.1", []ObjectSpec{{
		Name:    "s",
		Methods: []MethodSpec{{Name: "m", Period: time.Second, Body: func(*Ctx, Trigger) {}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Read("anything"); ok {
		t.Error("static object read should be invalid")
	}
	if _, ok := ctx.ReadPosition("anything"); ok {
		t.Error("static ReadPosition should be invalid")
	}
	if ctx.FreshCount("anything") != 0 {
		t.Error("static FreshCount should be 0")
	}
	if ctx.State() != nil {
		t.Error("static State should be nil")
	}
	ctx.SetState([]byte("x")) // no-op, must not panic
	if ctx.Label() != "sink/0.1" {
		t.Errorf("Label = %q", ctx.Label())
	}
}

// TestTrackingDegradesGracefullyUnderLoss sweeps channel loss and checks
// the system never wedges: at modest loss tracking works; at extreme loss
// it degrades without panics or violated invariants (coherence is
// restored by the ledger's own accounting).
func TestTrackingDegradesGracefullyUnderLoss(t *testing.T) {
	if protocolMutated {
		t.Skip("protocol mutated (-tags chaosmut): single-leader convergence is off")
	}
	for _, loss := range []float64{0, 0.1, 0.3, 0.5} {
		loss := loss
		w := newWorldWithLoss(t, 2.5, geom.Rect{Min: geom.Pt(0, -1), Max: geom.Pt(8, 1)}, loss)
		spec := trackerSpec(100, fastGroup)
		for x := 0; x < 8; x++ {
			st := w.addMote(t, radio.NodeID(x), geom.Pt(float64(x), 0), sensor.VehicleModel("vehicle"))
			if _, err := st.AttachContext(spec); err != nil {
				t.Fatal(err)
			}
		}
		w.field.Add(&phenomena.Target{
			Kind: "vehicle", Traj: phenomena.Stationary{At: geom.Pt(3.5, 0)}, SignatureRadius: 1.6,
		})
		w.start()
		w.run(t, 20*time.Second)

		leaders := 0
		for _, st := range w.stacks {
			if rt, ok := st.Runtime("tracker"); ok && rt.Leading() {
				leaders++
			}
		}
		if loss <= 0.1 && leaders != 1 {
			t.Errorf("loss=%.1f: leaders = %d, want 1", loss, leaders)
		}
		if leaders == 0 && loss < 0.5 {
			t.Errorf("loss=%.1f: tracking died entirely", loss)
		}
	}
}

// newWorldWithLoss is newWorld with a channel loss probability.
func newWorldWithLoss(t *testing.T, commRadius float64, bounds geom.Rect, loss float64) *world {
	t.Helper()
	return newWorldP(t, radio.Params{CommRadius: commRadius, LossProb: loss}, bounds)
}

// Compile-time checks that the public surface of core stays intact.
var (
	_ = aggregate.Avg
	_ transport.PortID
)
